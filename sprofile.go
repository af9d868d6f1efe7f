// Package sprofile is a Go implementation of S-Profile, the O(1)-per-update
// algorithm for profiling dynamic arrays with finite values from
//
//	Dingcheng Yang, Wenjian Yu, Junhui Deng, Shenghua Liu.
//	"Optimal Algorithm for Profiling Dynamic Arrays with Finite Values."
//	EDBT 2019 (arXiv:1812.05306).
//
// A profile tracks the frequencies of up to m distinct objects under a log
// stream of (object, add|remove) events — users following each other, likes
// and dislikes, channel joins and leaves — and keeps the whole frequency
// multiset sorted at a constant cost per event. Once profiled, the mode
// (most popular object), the top-K, the median, arbitrary quantiles, the
// majority element and the full frequency distribution are all available in
// O(1) (O(K) for top-K, O(#distinct frequencies) for the distribution).
//
// All profile variants satisfy one exported contract — Updater for
// ingestion, Reader for queries, Profiler for both — and are assembled from
// declared capabilities with Build:
//
//	p, err := sprofile.Build(m)                            // plain Profile
//	p, err := sprofile.Build(m, sprofile.Synchronized())   // one mutex (one shard)
//	p, err := sprofile.Build(m, sprofile.WithSharding(16)) // per-shard locks
//	p, err := sprofile.Build(m, sprofile.Windowed(100_000))
//
// The durable profile is keyed: BuildKeyed assembles a concurrent profile
// over arbitrary comparable keys from the same options, and WithWAL
// journals one keyed by strings:
//
//	k, err := sprofile.BuildKeyed[string](m, sprofile.WithWAL("events.wal"))
//
// Composite reads go through the query plane: one Query selects any subset
// of the statistics and every variant answers it atomically from a single
// consistent cut (see Querier, KeyedQuery and QueryProfiler), and all
// operational errors resolve via errors.Is to a typed taxonomy (see the
// error sentinels in errors.go). The same plane is served over HTTP by
// internal/server's POST /v1/query and consumed by the sprofile/client SDK.
//
// Code written against Profiler never changes when the representation does.
// The concrete constructors remain for callers that need a variant's extra
// methods: New for the raw dense-id profile (object ids are integers in
// [0, m)), NewKeyed for arbitrary comparable keys (user names, URLs, int64
// ids, optionally over any Build result via NewKeyedOver), NewSharded (one
// shard is the single-mutex profile Synchronized builds), NewWindow and
// NewTimeWindow. See README.md for the full interface documentation and the
// migration table from the constructor-based API.
//
// The subdirectories contain the full evaluation apparatus used to reproduce
// the paper's experiments: baseline profilers (indexed heap, order-statistic
// trees, Fenwick index, bucket scan), synthetic log-stream generators, a
// sliding-window adapter, a graph-shaving application and the benchmark
// harness behind cmd/sprofile-bench, plus the conformance suite
// (profilertest) every Profiler implementation is tested against.
package sprofile

import (
	"io"

	"sprofile/internal/core"
)

// Action says whether a log tuple adds or removes one occurrence of an
// object.
type Action = core.Action

// Re-exported action values.
const (
	// ActionAdd increments an object's frequency by one.
	ActionAdd = core.ActionAdd
	// ActionRemove decrements an object's frequency by one.
	ActionRemove = core.ActionRemove
)

// Tuple is one log-stream event: an object id and an action.
type Tuple = core.Tuple

// Entry pairs an object id with its frequency in query results.
type Entry = core.Entry

// FreqCount is one histogram bucket of the frequency distribution.
type FreqCount = core.FreqCount

// Delta is the net effect of a coalesced run of events on one object: the
// net frequency change plus the gross add/remove counts it folds together.
// See DeltaUpdater for the profiles that can apply one.
type Delta = core.Delta

// Coalescer folds a tuple batch into net per-object deltas with reusable,
// allocation-free scratch buffers; pair it with a DeltaUpdater's ApplyDeltas
// for the batch ingestion fast path.
type Coalescer = core.Coalescer

// NewCoalescer returns a Coalescer for object ids in [0, m).
func NewCoalescer(m int) (*Coalescer, error) { return core.NewCoalescer(m) }

// Summary is a snapshot of a profile's aggregate statistics.
type Summary = core.Summary

// Profile is the S-Profile data structure over dense object ids in [0, m).
// See the core package for the full method set: Add, Remove, Apply, Mode,
// ModeAll, Min, TopK, BottomK, KthLargest, KthSmallest, Median, Quantile,
// Majority, Distribution, Count, Rank, Summarize, snapshots and more.
type Profile = core.Profile

// Option configures a Profile.
type Option = core.Option

// WithStrictNonNegative makes Remove fail instead of letting a frequency drop
// below zero. Use it when objects can only be removed after being added
// (e.g. unfollow events always follow a follow event).
func WithStrictNonNegative() Option { return core.WithStrictNonNegative() }

// WithBlockHint pre-sizes the internal block slab; useful when the number of
// distinct frequency values is roughly known in advance.
func WithBlockHint(hint int) Option { return core.WithBlockHint(hint) }

// New returns an S-Profile over m dense object ids (0..m-1), all starting at
// frequency zero. Updates cost O(1) worst case; memory is O(m).
func New(m int, opts ...Option) (*Profile, error) { return core.New(m, opts...) }

// MustNew is New for callers with a known-good capacity; it panics on error.
func MustNew(m int, opts ...Option) *Profile { return core.MustNew(m, opts...) }

// FromFrequencies builds a profile whose object x starts with frequency
// freqs[x]; it costs O(m) once instead of replaying every event.
func FromFrequencies(freqs []int64, opts ...Option) (*Profile, error) {
	return core.FromFrequencies(freqs, opts...)
}

// ReadSnapshot restores a profile previously saved with Profile.WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Profile, error) { return core.ReadSnapshot(r) }
