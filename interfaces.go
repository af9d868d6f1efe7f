package sprofile

// This file defines the public contract every profile variant in the module
// satisfies. It is the promotion of the internal evaluation interface
// (internal/profiler) into the supported API: callers program against
// Updater/Reader/Profiler and pick a concrete representation — plain,
// locked (one shard or several) or windowed — with Build, swapping one for
// another without touching query code. The durable profile is keyed: see
// BuildKeyed and KeyedProfiler.

// Updater is the ingestion half of a profile: it consumes the (object,
// add|remove) log stream the paper is built around. Object ids are dense
// integers in [0, Cap()).
type Updater interface {
	// Add applies an "add" event: the frequency of object x rises by one.
	Add(x int) error
	// Remove applies a "remove" event: the frequency of object x drops by
	// one. Profiles built with WithStrictNonNegative reject removals that
	// would make a frequency negative.
	Remove(x int) error
	// Apply applies one log tuple.
	Apply(t Tuple) error
	// ApplyAll applies tuples in order, stopping at the first error; it
	// returns the number of tuples applied. Implementations amortise
	// per-batch overheads (lock acquisition) across the batch.
	ApplyAll(tuples []Tuple) (int, error)
}

// Reader is the query half of a profile: every statistic the S-Profile
// structure maintains, each answered from the continuously sorted frequency
// multiset. On a plain Profile all of these are O(1) (O(k) for TopK/BottomK,
// O(#distinct frequencies) for Distribution); concurrency wrappers add lock
// or merge overhead but keep the same semantics.
type Reader interface {
	// Count returns the current frequency of object x.
	Count(x int) (int64, error)
	// Mode returns an object with maximum frequency, that frequency, and how
	// many objects share it.
	Mode() (Entry, int, error)
	// Min returns an object with minimum frequency, that frequency, and how
	// many objects share it.
	Min() (Entry, int, error)
	// TopK returns the k most frequent entries in non-increasing frequency
	// order.
	TopK(k int) []Entry
	// BottomK returns the k least frequent entries in non-decreasing
	// frequency order.
	BottomK(k int) []Entry
	// KthLargest returns the entry holding the k-th largest frequency
	// (1-based: k=1 is the mode representative).
	KthLargest(k int) (Entry, error)
	// Median returns the lower-median entry of the frequency multiset.
	Median() (Entry, error)
	// Quantile returns the entry at quantile q in [0, 1], using the
	// nearest-rank definition shared by every implementation.
	Quantile(q float64) (Entry, error)
	// Majority returns the object holding a strict majority of the total
	// count, if one exists.
	Majority() (Entry, bool, error)
	// Distribution returns the frequency histogram in ascending frequency
	// order.
	Distribution() []FreqCount
	// Summarize returns aggregate statistics of the profile.
	Summarize() Summary
	// Cap returns the number of object slots m.
	Cap() int
	// Total returns the sum of all frequencies.
	Total() int64
}

// Profiler is the full contract: ingestion plus queries. Every dense-id
// profile variant in this package satisfies it — *Profile, *Sharded (one
// shard is the single-mutex profile), *Window and *TimeWindow — as does
// anything returned by Build.
type Profiler interface {
	Updater
	Reader
}

// Snapshotter is the optional capability of producing a consistent
// point-in-time copy of the profile as a standalone *Profile, queryable with
// no further locking. Callers that hold a Profiler can test for it:
//
//	if s, ok := p.(sprofile.Snapshotter); ok { snap, err := s.Snapshot() }
type Snapshotter interface {
	Snapshot() (*Profile, error)
}

// DeltaUpdater is the optional capability of applying coalesced batches:
// moving an object by a net delta in one block-boundary walk (cost O(blocks
// crossed) instead of O(|delta|) repeated single steps) and applying a whole
// []Delta batch at once. It is the ingestion fast path for skewed traffic,
// where the same hot objects repeat many times per batch: coalesce the batch
// with a Coalescer, then hand the net deltas to ApplyDeltas.
//
// Strict-mode semantics differ from the per-event path in one documented
// way: the non-negativity check applies to each delta's net result, so a
// batch whose net effect is valid succeeds even if some per-event
// interleaving of it would have failed mid-way. *Profile and *Sharded
// satisfy the capability; the window adapters do not (a window must observe
// every individual tuple to expire it later).
type DeltaUpdater interface {
	// AddN raises the frequency of object x by k (k >= 0) in one step.
	AddN(x int, k int64) error
	// RemoveN lowers the frequency of object x by k (k >= 0) in one step;
	// strict profiles reject a net-negative result.
	RemoveN(x int, k int64) error
	// ApplyDelta applies one coalesced delta, preserving the gross
	// adds/removes counters it records.
	ApplyDelta(d Delta) error
	// ApplyDeltas applies a coalesced batch and reports how many deltas were
	// applied. Implementations may partition the batch across their lock
	// domains; see each implementation for its error semantics.
	ApplyDeltas(deltas []Delta) (int, error)
}

// KeyedProfiler is the key-addressed counterpart of Profiler, addressed by
// arbitrary comparable keys instead of dense ids. Its one read of the
// profile-wide statistics is QueryKeys, which answers any selection of them
// from one consistent cut and translates every dense id back to its key
// under that cut. Both Keyed (single-goroutine, global recycling) and
// KeyedConcurrent (lock-striped, per-stripe recycling, safe for concurrent
// use) satisfy it, so callers can swap one for the other without touching
// query code. The HTTP server reads through it (POST /v1/query is one
// QueryKeys call) and writes through KeyedConcurrent.ApplyBatch.
type KeyedProfiler[K comparable] interface {
	// Add increments the frequency of key, assigning a dense id if needed
	// and recycling an idle one when the profile is full.
	Add(key K) error
	// Remove decrements the frequency of key; unknown keys are an error.
	Remove(key K) error
	// Apply applies one (key, action) event.
	Apply(key K, action Action) error
	// Track assigns key a dense id without counting anything.
	Track(key K) error

	// Count returns the current frequency of key (zero for unknown keys).
	Count(key K) (int64, error)
	// Cap returns the maximum number of concurrently tracked keys.
	Cap() int
	// Tracked returns the number of keys currently holding a dense id.
	Tracked() int
	// Total returns the sum of all frequencies.
	Total() int64
	// QueryKeys answers a composite multi-statistic query atomically; see
	// KeyedQuery.
	QueryKeys(q KeyedQuery[K]) (KeyedQueryResult[K], error)
}

// Compile-time checks that every variant honours the contract.
var (
	_ Profiler = (*Profile)(nil)
	_ Profiler = (*Sharded)(nil)
	_ Profiler = (*Window)(nil)
	_ Profiler = (*TimeWindow)(nil)

	_ Querier = (*Profile)(nil)
	_ Querier = (*Sharded)(nil)
	_ Querier = (*Window)(nil)
	_ Querier = (*TimeWindow)(nil)

	_ Snapshotter = (*Profile)(nil)
	_ Snapshotter = (*Sharded)(nil)

	_ DeltaUpdater = (*Profile)(nil)
	_ DeltaUpdater = (*Sharded)(nil)

	_ KeyedProfiler[string] = (*Keyed[string])(nil)
	_ KeyedProfiler[string] = (*KeyedConcurrent[string])(nil)
	_ KeyedProfiler[int64]  = (*Keyed[int64])(nil)
	_ KeyedProfiler[int64]  = (*KeyedConcurrent[int64])(nil)
)
