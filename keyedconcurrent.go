package sprofile

import (
	"errors"
	"fmt"
	"sync"

	"sprofile/internal/checkpoint"
	"sprofile/internal/core"
	"sprofile/internal/idmap"
	"sprofile/internal/wal"
)

// ErrWALAppend reports an update that was applied to the in-memory profile
// but could not be journaled to the write-ahead log. The profile and the log
// have diverged; the caller decides whether to surface the failure or to
// retry the sync.
var ErrWALAppend = errors.New("sprofile: event applied but not journaled")

// KeyedConcurrent is the concurrent counterpart of Keyed: a key-addressed
// profile safe for many goroutines ingesting and querying at once, with no
// global lock anywhere on the update path.
//
// Concurrency model — three aligned layers:
//
//   - the id mapper is striped: keys hash onto stripes, each guarded by its
//     own mutex, and each stripe prefers dense ids from its own contiguous
//     range (borrowing from other ranges only when its own is exhausted);
//   - the dense profile is sharded with the same geometry, so the id a
//     stripe assigns lands in the matching shard — one Add takes one stripe
//     lock plus one shard lock, and updates on different stripes never
//     contend;
//   - the idle keys (frequency zero, the recycling candidates) are marked by
//     dense id in the mapper (StripeTxn.SetIdle), on a per-stripe list that
//     costs 4 bytes per idle key and holds no copy of the key. An id is
//     marked or unmarked only while its stripe's lock is held, from the
//     dense profile's own count of that id. That lock serialises both the
//     eviction check and every update that could move the key's frequency,
//     which is what makes eviction sound under concurrency; no second copy
//     of the frequencies is kept.
//
// Every keyed write — Add, Remove, Apply, ApplyDelta, ApplyBatch, Track and
// WAL replay — takes the same step: one entry (key, adds, removes) applied
// inside the key's stripe transaction, then journaled before the stripe lock
// is released.
//
// Recycling semantics under concurrency (the part that differs from Keyed):
// when every dense id is in use, Add evicts an idle key — frequency zero —
// from the new key's own stripe. If that stripe has no idle key, Add returns
// ErrKeyedFull even if another stripe has one; eviction never crosses a
// stripe boundary, because that would need two stripe locks and reintroduce
// cross-stripe contention (and deadlock risk) on the hot path. With
// hash-distributed keys the stripes stay balanced and the difference from
// global eviction is marginal.
//
// Reads: QueryKeys answers every statistic from one quiesced cut, so each
// key it reports held the frequency beside it at that instant, even while
// ids are recycled. Count reads one key under its stripe lock, and Entries
// lists every tracked key's count from one quiesced cut.
//
// Construct with BuildKeyed.
type KeyedConcurrent[K ~string] struct {
	keyedQueries[K]
	ids     *idmap.Striped[K]
	recycle bool
	// dense is the dense profile (keyedQueries.profile), called directly by
	// the write path, QueryKeys, Entries, Checkpoint and restore.
	dense *Sharded
	// batches recycles the coalescing scratch of ApplyBatch.
	batches sync.Pool

	// store is the checkpointed write-ahead log (nil without WithWAL). The
	// store's internal append mutex serialises journal writes; each append
	// happens while the event's stripe lock is held, which keeps every key's
	// add/remove order in the log identical to its apply order (the property
	// strict replay depends on). Events of different keys interleave in
	// whatever order their stripes reach the log, which replay is
	// insensitive to. Fsyncs run outside all locks with group commit.
	store    *checkpoint.Store
	ckpt     *checkpoint.Checkpointer
	replayed int
	stats    RecoveryStats
}

// BuildKeyed assembles a concurrent key-addressed profile able to track up
// to m keys at once, from the same capability options Build accepts:
//
//	k, err := sprofile.BuildKeyed[string](m)                          // sharded per CPU
//	k, err := sprofile.BuildKeyed[string](m, sprofile.WithSharding(16))
//	k, err := sprofile.BuildKeyed[string](m, sprofile.WithSharding(16), sprofile.WithWAL("events.wal"))
//	k, err := sprofile.BuildKeyed[string](m, sprofile.WithoutKeyRecycling())
//	k, err := sprofile.BuildKeyed[UserID](m) // type UserID string
//
// The result is always safe for concurrent use. WithSharding sets both the
// profile shard count and the mapper stripe count (they are kept aligned);
// without it the profile is sharded one shard per CPU. Synchronized, alone,
// is WithSharding(1): one shard and one mapper stripe. Windowed and
// TimeWindowed are rejected — window adapters are single-goroutine.
//
// Id recycling is on by default, which forces WithStrictNonNegative on the
// dense profile exactly like NewKeyed; WithoutKeyRecycling turns it off and
// permits negative frequencies. WithWAL makes ingestion durable; the log is
// replayed before BuildKeyed returns, and Sync/Close flush it.
// WithWALSyncEvery and WithCheckpoints require WithWAL.
//
// Keys are strings, or any type whose underlying type is string: the id map
// keeps every tracked key's bytes in pointer-free pages (see idmap.Striped),
// and the log stores them as they are. A numeric id is keyed by its decimal
// (or binary) form.
func BuildKeyed[K ~string](m int, opts ...BuildOption) (*KeyedConcurrent[K], error) {
	cfg := newBuildConfig(opts)
	kc, err := newKeyed[K](m, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.walPath == "" {
		if err := kc.load(nil, cfg); err != nil {
			return nil, err
		}
		return kc, nil
	}
	store, err := checkpoint.Open(cfg.walPath, checkpoint.Options{SyncEvery: cfg.walSyncEvery})
	if err != nil {
		return nil, fmt.Errorf("sprofile: opening WAL %s: %w", cfg.walPath, err)
	}
	if err := kc.load(store.TakeState(), cfg); err != nil {
		return nil, fmt.Errorf("sprofile: restoring snapshot from %s: %w", cfg.walPath, err)
	}
	replayed, err := store.ReplayTail(kc.applyWALRecord)
	if err != nil {
		return nil, fmt.Errorf("sprofile: replaying WAL %s: %w", cfg.walPath, err)
	}
	kc.replayed = replayed
	kc.stats = recoveryStats(store.Stats())
	kc.store = store
	if cfg.ckptSet && cfg.ckpt.Enabled() {
		kc.ckpt = checkpoint.Start(checkpoint.Policy{Every: cfg.ckpt.Every, EveryBytes: cfg.ckpt.EveryBytes},
			kc.Checkpoint, store.TailBytes)
	}
	return kc, nil
}

// newKeyed checks cfg as BuildKeyed describes and returns a keyed profile
// of capacity m with its id map but no dense profile yet: load builds that,
// so a restore need not zero-fill one first.
func newKeyed[K ~string](m int, cfg buildConfig) (*KeyedConcurrent[K], error) {
	if cfg.windowSet || cfg.spanSet {
		return nil, fmt.Errorf("%w: window adapters are single-goroutine; BuildKeyed cannot maintain them concurrently", ErrBuildConfig)
	}
	if cfg.shardsSet && cfg.shards <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrBuildConfig, cfg.shards)
	}
	if opt := cfg.journalOption(); opt != "" && cfg.walPath == "" {
		return nil, fmt.Errorf("%w: %s requires WithWAL", ErrBuildConfig, opt)
	}
	shards := cfg.shards
	switch {
	case cfg.shardsSet:
	case cfg.synchronized:
		shards = 1
	default:
		shards = defaultShards()
	}
	// The dense profile load builds takes the stripe count, so its shards
	// and the mapper stripes cover the same id ranges (both clamp the count
	// for small m the same way).
	ids, err := idmap.NewStriped[K](m, shards)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCapacity, err)
	}
	return &KeyedConcurrent[K]{ids: ids, recycle: !cfg.noKeyRecycle}, nil
}

// load gives k, fresh from newKeyed, its dense profile, sharded like its id
// map: the checkpoint snapshot st as restore maps it, or every frequency
// zero when st is nil. Each shard materialises only the ids loaded into it
// and grows with the ids its stripe hands out, low ids first, so the dense
// profile's memory follows the keys tracked rather than the capacity.
func (k *KeyedConcurrent[K]) load(st *checkpoint.State, cfg buildConfig) error {
	opts := cfg.profileOpts
	if k.recycle {
		// Recycled ids must start from a clean zero frequency, so the dense
		// profile has to reject negative frequencies.
		opts = append(opts, WithStrictNonNegative())
	}
	m, ns := k.ids.Cap(), k.ids.NumStripes()
	parts := make([][]core.Entry, ns)
	var adds, removes uint64
	if st != nil {
		var err error
		if parts, err = k.restore(st); err != nil {
			return err
		}
		adds, removes = st.Adds, st.Removes
	}
	dense, err := newLoadedSharded(m, ns, parts, adds, removes, opts...)
	if err != nil {
		return err
	}
	k.dense = dense
	k.keyedQueries = keyedQueries[K]{profile: dense, resolver: k.ids}
	return nil
}

// applyWALRecord replays one durable record into the profile. Stripe
// assignment is seeded per process, so the per-stripe eviction decisions of
// the writing run cannot be reproduced here: when the record's own stripe
// has no idle key to evict, replay releases an idle key of any stripe
// (Striped.ReleaseIdle) and retries. The log guarantees the live
// (frequency > 0) key set never exceeded capacity, hence an idle key always
// exists when an Add finds the mapper full. The profile's store must be nil
// (recovery, or a follower without an append head), so the apply paths
// rebuild state without re-journaling the records being replayed.
func (k *KeyedConcurrent[K]) applyWALRecord(rec wal.Record) error {
	key := K(rec.Key)
	apply := func() error {
		if rec.Batch {
			return k.ApplyDelta(key, rec.Adds, rec.Removes)
		}
		return k.Apply(key, rec.Action)
	}
	err := apply()
	if errors.Is(err, idmap.ErrFull) {
		if _, ok := k.ids.ReleaseIdle(); ok {
			err = apply()
		}
	}
	return err
}

// restore maps the keys of the checkpoint snapshot st into k's empty id
// map and returns their nonzero frequencies under the new ids, parts[i]
// holding those of stripe i's id range by id within the range: the load of
// the dense profile's shard i. The snapshotted keys are hashed from their
// bytes in st, grouped by stripe with the counting sort ApplyBatch uses,
// and the stripes load concurrently, on at most GOMAXPROCS goroutines: each
// maps its group with one StripeTxn.Load, which copies the keys' bytes into
// its range's pages (ids are reassigned — stripe hashing is seeded per
// process, so the original ids are meaningless here), then lists the
// frequencies of the ids in its own range and marks the keys at frequency
// zero idle. The few keys whose ids a full stripe borrowed from another
// range join that range's part afterwards. No string is made for any key.
// A key the snapshot lists twice makes it invalid.
func (k *KeyedConcurrent[K]) restore(st *checkpoint.State) ([][]core.Entry, error) {
	n := st.Len()
	if m := k.ids.Cap(); n > m {
		return nil, fmt.Errorf("snapshot tracks %d keys but the profile has capacity %d: %w", n, m, ErrBadSnapshot)
	}
	ns := k.ids.NumStripes()
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = k.ids.HashBytes(st.Key(i))
	}
	var g stripeGroups
	g.sort(ns, n, func(i int) int32 { return int32(k.ids.StripeOfHash(hashes[i])) })
	parts := make([][]core.Entry, ns)
	borrowed := make([][]core.Entry, ns) // by global id
	err := parallelEach(ns, func(si int) error {
		group := g.group(si)
		ids := make([]int, len(group))
		base, size := k.ids.StripeRange(si)
		return k.ids.BatchFunc(si, func(t idmap.StripeTxn[K]) error {
			if err := t.Load(st.Key, hashes, group, ids); err != nil {
				return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
			}
			part := make([]core.Entry, 0, len(group))
			for j, i := range group {
				switch id, f := ids[j], st.Freqs[i]; {
				case f == 0:
					if k.recycle {
						t.SetIdle(id, true)
					}
				case id >= base && id < base+size:
					part = append(part, core.Entry{Object: id - base, Frequency: f})
				default:
					borrowed[si] = append(borrowed[si], core.Entry{Object: id, Frequency: f})
				}
			}
			parts[si] = part
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	_, stripeSize := k.ids.StripeRange(0)
	for _, es := range borrowed {
		for _, e := range es {
			si := e.Object / stripeSize
			parts[si] = append(parts[si], core.Entry{Object: e.Object - si*stripeSize, Frequency: e.Frequency})
		}
	}
	return parts, nil
}

// MustBuildKeyed is BuildKeyed for callers with a known-good configuration;
// it panics on error.
func MustBuildKeyed[K ~string](m int, opts ...BuildOption) *KeyedConcurrent[K] {
	k, err := BuildKeyed[K](m, opts...)
	if err != nil {
		panic(err)
	}
	return k
}

// Tracked returns the number of keys currently holding a dense id.
func (k *KeyedConcurrent[K]) Tracked() int { return k.ids.Len() }

// Replayed returns the number of WAL tail entries replayed when the profile
// was built (zero without WithWAL): one per single-event record and one per
// key of a batch record, so it is neither the record count nor the event
// count. With checkpointing it covers only the log after the last snapshot,
// not the full ingest history.
func (k *KeyedConcurrent[K]) Replayed() int { return k.replayed }

// Recovery returns the full recovery breakdown: what the snapshot restored
// and what the tail replay added.
func (k *KeyedConcurrent[K]) Recovery() RecoveryStats { return k.stats }

// Sync flushes buffered write-ahead-log records to stable storage. Without
// WithWAL it is a no-op.
func (k *KeyedConcurrent[K]) Sync() error {
	if k.store == nil {
		return nil
	}
	return k.store.Sync()
}

// WALError returns the sticky I/O error poisoning the write-ahead log — nil
// while the log is healthy, or without WithWAL. Once set, every update fails
// fast with ErrWALAppend until RollWAL recovers the log; see wal.Dir.SyncError
// for why a failed fsync cannot simply be retried.
func (k *KeyedConcurrent[K]) WALError() error {
	if k.store == nil {
		return nil
	}
	return k.store.SyncError()
}

// RollWAL recovers a poisoned write-ahead log by rolling the append head onto
// a fresh segment, restoring update service once the disk accepts writes
// again. Records that were applied in memory but never acknowledged as
// durable (their writers got ErrWALAppend) are dropped from the log. It is a
// no-op on a healthy log or without WithWAL.
func (k *KeyedConcurrent[K]) RollWAL() error {
	if k.store == nil {
		return nil
	}
	return k.store.Roll()
}

// Close stops background checkpointing and closes the write-ahead log, if
// one is configured. The profile stays queryable, but further updates will
// fail to journal.
func (k *KeyedConcurrent[K]) Close() error {
	if k.store == nil {
		return nil
	}
	if k.ckpt != nil {
		k.ckpt.Stop()
	}
	return k.store.Close()
}

// CheckpointError returns the outcome of the most recent background
// checkpoint (always nil without WithCheckpoints, or while none has run).
func (k *KeyedConcurrent[K]) CheckpointError() error {
	if k.ckpt == nil {
		return nil
	}
	return k.ckpt.LastError()
}

// Checkpoint writes an atomic snapshot — key table, frequencies and event
// counters — into the WAL directory and deletes the log segments it covers,
// so the next restart loads the snapshot and replays only what follows it.
//
// The capture quiesces writers by holding every mapper stripe lock (each
// update path takes one first), which yields an exact cut: the snapshot
// covers precisely the events journaled before the rotation it performs.
// With every stripe lock held the dense profile cannot change, so the
// capture reads each key's count from it in place, and copies the keys'
// bytes from the id map's pages into the snapshot's one byte run, sized
// up front: three allocations however many keys are tracked. Serialisation
// and fsync of the snapshot happen entirely outside the update path, and
// one checkpoint runs at a time.
func (k *KeyedConcurrent[K]) Checkpoint() error {
	if k.store == nil {
		return errNoWAL
	}
	return k.store.Checkpoint(func() (st *checkpoint.State, sealed uint64, err error) {
		k.ids.Quiesce(func() {
			sealed, err = k.store.Rotate()
			if err != nil {
				return
			}
			adds, removes := k.dense.events()
			n := k.ids.Len()
			st = &checkpoint.State{
				Capacity: k.dense.Cap(),
				Adds:     adds,
				Removes:  removes,
				KeyBytes: make([]byte, 0, k.ids.KeyBytesLocked()),
				KeyEnds:  make([]int, 0, n),
				Freqs:    make([]int64, 0, n),
			}
			k.rangeCountsLocked(st.Append)
		})
		return st, sealed, err
	})
}

// Entries returns every tracked key with its count, read from one quiesced
// cut like QueryKeys: each key is paired with the frequency it held at that
// instant, however ids are recycled around the call. Idle keys (count zero)
// are listed too. The order is the mapper's, which is not stable across
// processes; sort the result for a canonical listing.
func (k *KeyedConcurrent[K]) Entries() ([]KeyedEntry[K], error) {
	var out []KeyedEntry[K]
	k.ids.Quiesce(func() {
		out = make([]KeyedEntry[K], 0, k.ids.Len())
		k.rangeCountsLocked(func(key []byte, f int64) {
			out = append(out, KeyedEntry[K]{Key: K(key), Frequency: f})
		})
	})
	return out, nil
}

// rangeCountsLocked calls fn with every tracked key's bytes, valid while
// the caller stays inside Quiesce, and its count. The caller holds every
// stripe lock (Quiesce), so the dense profile cannot change and each count
// is read in place, without its shard's lock.
func (k *KeyedConcurrent[K]) rangeCountsLocked(fn func(key []byte, f int64)) {
	k.ids.RangeLocked(func(key []byte, id int) bool {
		fn(key, k.dense.countQuiesced(id))
		return true
	})
}

// checkJournalableKey rejects keys the write-ahead log cannot record.
// Every write path validates before applying anything: an event applied in
// memory but refused by the log would be lost on restart, and a batch record
// is appended (and validated) wholesale per stripe, so one bad key would
// otherwise void journaling for every entry sharing its record.
func checkJournalableKey(key string) error {
	if key == "" {
		return fmt.Errorf("%w: an empty key cannot be journaled", ErrOutOfRange)
	}
	if len(key) > wal.MaxKeyLen {
		return fmt.Errorf("sprofile: key of %d bytes exceeds the write-ahead log's %d-byte record limit: %w", len(key), wal.MaxKeyLen, ErrOutOfRange)
	}
	return nil
}

// checkKey is checkJournalableKey for a profile with a WAL; without one
// any key is fine.
func (k *KeyedConcurrent[K]) checkKey(key K) error {
	if k.store == nil {
		return nil
	}
	return checkJournalableKey(string(key))
}

// Add increments the frequency of key, assigning it a dense id if needed.
// When the profile is full, Add recycles the id of an idle key in the same
// stripe; if the stripe has none it returns ErrKeyedFull.
func (k *KeyedConcurrent[K]) Add(key K) error { return k.Apply(key, ActionAdd) }

// Remove decrements the frequency of key. Removing an unknown key is an
// error: with recycling enabled frequencies cannot go negative, and without
// recycling the key must still be added first to receive an id.
func (k *KeyedConcurrent[K]) Remove(key K) error { return k.Apply(key, ActionRemove) }

// Apply applies one (key, action) event: a one-event entry through the
// write step every keyed write shares, journaled as a single-event record.
func (k *KeyedConcurrent[K]) Apply(key K, action Action) error {
	if !action.Valid() {
		return errInvalidAction(action)
	}
	if err := k.checkKey(key); err != nil {
		return err
	}
	var err error
	if action == ActionAdd {
		err = k.applyKey(key, 1, 0, true)
	} else {
		err = k.applyKey(key, 0, 1, false)
	}
	// ErrWALAppend means applied in memory but not journaled.
	if err == nil || errors.Is(err, ErrWALAppend) {
		mIngestEventsSingle.Inc()
	}
	return err
}

// QueryKeys answers a keyed composite query from ONE quiesced cut: every
// mapper stripe lock is held for the duration (writers wait, readers of
// other structures proceed), so the dense statistics, the per-key counts,
// the tracked-key count and the id→key translation all describe the same
// instant — a translated key can never have been recycled between a
// statistic and its resolution.
//
// The dense evaluation is Sharded.Query: one read-locked cut evaluated by
// core.EvalQuery, on the shard's own profile when there is one shard and on
// the merged view of several otherwise; with writers quiesced those locks
// are uncontended.
func (k *KeyedConcurrent[K]) QueryKeys(q KeyedQuery[K]) (KeyedQueryResult[K], error) {
	var out KeyedQueryResult[K]
	var err error
	k.ids.Quiesce(func() {
		var dres QueryResult
		dres, err = k.dense.Query(q.dense())
		if err != nil {
			return
		}
		out = k.translateQueryResult(dres)
		if len(q.Count) == 0 {
			return
		}
		out.Counts = make([]KeyedEntry[K], len(q.Count))
		for i, key := range q.Count {
			var f int64
			// LookupLocked, not DenseID: the stripe locks are already held.
			if id, ok := k.ids.LookupLocked(key); ok {
				f = k.dense.countQuiesced(id)
			}
			out.Counts[i] = KeyedEntry[K]{Key: key, Frequency: f}
		}
	})
	if err != nil {
		return KeyedQueryResult[K]{}, err
	}
	return out, nil
}

// KeyedTuple is one keyed log event — the key-addressed counterpart of
// Tuple, and the element type of ApplyBatch.
type KeyedTuple[K comparable] struct {
	Key    K
	Action Action
}

// keyedDelta is one coalesced per-key delta inside an ApplyBatch call.
// Entries whose keys collide on the 64-bit coalescing hash are chained
// through next. firstIsAdd records whether the key's first event in the
// batch was an add — the per-event path acquires an unknown key exactly
// then, so the batch path preserves that decision.
type keyedDelta[K ~string] struct {
	key           K
	hash          uint64
	adds, removes uint64
	next          int32
	firstIsAdd    bool
}

// keyedBatch is the reusable scratch of ApplyBatch: the coalescing index,
// the per-stripe counting sort and the write-ahead-log record buffer. It is
// pooled so steady-state batch ingestion allocates nothing beyond the keys
// themselves. The index is keyed by the mapper's 64-bit key hash — computed
// once per event and reused for stripe selection and the mapper's own
// lookup — because an integer-keyed map is markedly cheaper than re-hashing
// arbitrary K inside a generic map.
type keyedBatch[K ~string] struct {
	index   map[uint64]int32
	entries []keyedDelta[K]
	stripeGroups
	wrecs []wal.BatchEntry
}

// stripeGroups is a counting sort of items by mapper stripe: the grouping
// by which ApplyBatch and restore resolve each stripe's items in one
// stripe transaction. Its buffers are reused across sorts.
type stripeGroups struct {
	counts  []int32
	offsets []int32
	order   []int32
}

// sort groups the items 0..n-1 by stripe(i), one of ns stripes, keeping
// their order within each stripe.
func (g *stripeGroups) sort(ns, n int, stripe func(i int) int32) {
	g.counts = growInt32(g.counts, ns)
	clear(g.counts)
	for i := 0; i < n; i++ {
		g.counts[stripe(i)]++
	}
	g.offsets = growInt32(g.offsets, ns)
	sum := int32(0)
	for si, c := range g.counts {
		g.offsets[si] = sum
		sum += c
	}
	g.order = growInt32(g.order, n)
	for i := 0; i < n; i++ {
		si := stripe(i)
		g.order[g.offsets[si]] = int32(i)
		g.offsets[si]++
	}
}

// group returns the items of stripe si; offsets[si] is the end of the
// group once sort has run.
func (g *stripeGroups) group(si int) []int32 {
	return g.order[g.offsets[si]-g.counts[si] : g.offsets[si]]
}

// growInt32 returns s resized to n elements, reallocating only on growth.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// ApplyBatch ingests a whole batch of keyed events through the delta fast
// path:
//
//  1. the batch is coalesced into one net delta per distinct key (so a hot
//     key repeated many times costs one update, not many);
//  2. the deltas are grouped by mapper stripe and each stripe's group is
//     resolved under a single stripe-lock acquisition, amortising the
//     per-event striping overhead of the id mapping;
//  3. each key moves by its net delta in one block-boundary walk of the
//     dense profile;
//  4. with a write-ahead log, each stripe's group is journaled as one batch
//     record (appended while the stripe lock is held, preserving per-key
//     log order) and the whole batch is made durable by ONE group-commit
//     fsync.
//
// It returns the number of events whose effect is in the profile. Semantics
// match applying the events one by one except in two documented ways shared
// with the rest of the delta path: strict non-negativity applies to each
// key's net delta, and a key whose entry fails (a remove-first unknown key,
// ErrKeyedFull, a strict violation) does not stop the others — it is left
// unchanged, every other key of the batch is applied, and the first such
// error is returned. An invalid action (or, with a WAL, an unjournalable
// key) anywhere rejects the whole batch before anything is applied. A
// journaling failure is reported as ErrWALAppend after its stripe has been
// applied in memory; later stripes are not applied.
func (k *KeyedConcurrent[K]) ApplyBatch(events []KeyedTuple[K]) (int, error) {
	if len(events) == 0 {
		return 0, nil
	}

	b, _ := k.batches.Get().(*keyedBatch[K])
	if b == nil {
		b = &keyedBatch[K]{index: make(map[uint64]int32)}
	}
	defer func() {
		clear(b.index)
		// Zero the full backing arrays before truncating so pooled scratch
		// does not pin the batch's key strings past the call (wrecs is
		// truncated per stripe, so its live prefix alone is not enough).
		clear(b.entries)
		b.entries = b.entries[:0]
		clear(b.wrecs[:cap(b.wrecs)])
		b.wrecs = b.wrecs[:0]
		k.batches.Put(b)
	}()

	// Coalesce, deduplicating keys through their stripe hash (hash
	// collisions chain and simply yield one entry per distinct key).
	// Validation happens here, before anything is applied, so an invalid
	// action — or, with a WAL, a key the log could not journal — rejects the
	// batch whole instead of leaving applied-but-unjournaled state behind.
	ns := k.ids.NumStripes()
	for _, e := range events {
		if !e.Action.Valid() {
			return 0, errInvalidAction(e.Action)
		}
		if err := k.checkKey(e.Key); err != nil {
			return 0, err
		}
		h := k.ids.Hash(e.Key)
		first := e.Action == ActionAdd
		j, ok := b.index[h]
		if ok {
			for b.entries[j].key != e.Key {
				if b.entries[j].next < 0 {
					nj := int32(len(b.entries))
					b.entries = append(b.entries, keyedDelta[K]{key: e.Key, hash: h, next: -1, firstIsAdd: first})
					b.entries[j].next = nj
					j = nj
					break
				}
				j = b.entries[j].next
			}
		} else {
			j = int32(len(b.entries))
			b.index[h] = j
			b.entries = append(b.entries, keyedDelta[K]{key: e.Key, hash: h, next: -1, firstIsAdd: first})
		}
		if e.Action == ActionAdd {
			b.entries[j].adds++
		} else {
			b.entries[j].removes++
		}
	}

	mIngestEventsBatch.Add(uint64(len(events)))
	mIngestBatchEvents.Observe(float64(len(events)))
	mIngestBatchKeys.Add(uint64(len(b.entries)))

	// Group by stripe with a counting sort over the reusable buffers.
	b.sort(ns, len(b.entries), func(i int) int32 { return int32(k.ids.StripeOfHash(b.entries[i].hash)) })

	// Apply stripe by stripe: one stripe-lock acquisition, one profile
	// delta per distinct key, one log record per stripe group.
	applied := 0
	var journalErr error
	var entryErr error
	for si := 0; si < ns && journalErr == nil; si++ {
		idxs := b.group(si)
		if len(idxs) == 0 {
			continue
		}
		_ = k.ids.BatchFunc(si, func(t idmap.StripeTxn[K]) error {
			b.wrecs = b.wrecs[:0]
			for _, j := range idxs {
				en := &b.entries[j]
				if err := k.applyEntryLocked(t, en.key, en.hash, en.adds, en.removes, en.firstIsAdd); err != nil {
					// A failed entry leaves its key unchanged; the other
					// keys still apply.
					if entryErr == nil {
						entryErr = err
					}
					continue
				}
				applied += int(en.adds + en.removes)
				if k.store != nil {
					b.wrecs = append(b.wrecs, wal.BatchEntry{Key: string(en.key), Adds: en.adds, Removes: en.removes})
				}
			}
			// The stripe's applied entries are journaled even when one of
			// them failed: the in-memory updates happened, so the log must
			// carry them.
			if k.store != nil && len(b.wrecs) > 0 {
				if _, jerr := k.store.AppendBatch(b.wrecs); jerr != nil {
					journalErr = fmt.Errorf("%w: %v", ErrWALAppend, jerr)
				}
			}
			return nil
		})
	}

	// One group-commit fsync covers every stripe's record.
	if k.store != nil && journalErr == nil {
		if err := k.store.Sync(); err != nil {
			journalErr = fmt.Errorf("%w: sync: %v", ErrWALAppend, err)
		}
	}
	if journalErr != nil {
		return applied, journalErr
	}
	return applied, entryErr
}

// ApplyDelta applies a coalesced run of events for one key: adds gross add
// events and removes gross remove events, moving the key's frequency by
// adds-removes in one step. A key whose events cancel out is still acquired
// (and left idle), exactly as the per-event sequence would. A key unknown
// to the profile is acquired only when the delta records at least one add
// event; otherwise it fails like Remove. Counts that would take the
// profile's adds or removes counter, summed over every key, past
// math.MaxInt64/2 fail with ErrOutOfRange and change nothing.
func (k *KeyedConcurrent[K]) ApplyDelta(key K, adds, removes uint64) error {
	if adds == 0 && removes == 0 {
		return nil
	}
	if err := k.checkKey(key); err != nil {
		return err
	}
	return k.applyKey(key, adds, removes, adds > 0)
}

// Track assigns key a dense id without counting anything, so a catalogue can
// be registered ahead of its events. A tracked key sits at frequency zero
// and is therefore an eviction candidate until its first Add.
func (k *KeyedConcurrent[K]) Track(key K) error { return k.applyKey(key, 0, 0, true) }

// applyKey writes one key's entry outside ApplyBatch: applyEntryLocked in
// the key's stripe transaction, then one journal record appended before the
// lock is released, so the key's log order is its apply order. An entry of
// one event is journaled as a single-event record, a larger one as a
// one-entry batch record, and an empty one (Track) not at all. The caller
// has validated the key.
func (k *KeyedConcurrent[K]) applyKey(key K, adds, removes uint64, acquire bool) error {
	h := k.ids.Hash(key)
	si := k.ids.StripeOfHash(h)
	var syncDue bool
	var journalErr error
	err := k.ids.BatchFunc(si, func(t idmap.StripeTxn[K]) error {
		if err := k.applyEntryLocked(t, key, h, adds, removes, acquire); err != nil {
			return err
		}
		if k.store == nil || adds+removes == 0 {
			return nil
		}
		// A journal failure must not roll back the applied update (the
		// mapping and profile would then disagree), so it is carried out of
		// the transaction and wrapped in ErrWALAppend.
		var jerr error
		if adds+removes == 1 {
			a := ActionRemove
			if adds == 1 {
				a = ActionAdd
			}
			syncDue, jerr = k.store.Append(wal.Record{Key: string(key), Action: a})
		} else {
			rec := [1]wal.BatchEntry{{Key: string(key), Adds: adds, Removes: removes}}
			syncDue, jerr = k.store.AppendBatch(rec[:])
		}
		if jerr != nil {
			journalErr = fmt.Errorf("%w: %v", ErrWALAppend, jerr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if journalErr != nil || !syncDue {
		return journalErr
	}
	// A WithWALSyncEvery-due sync runs outside every profile lock.
	if err := k.store.Sync(); err != nil {
		return fmt.Errorf("%w: sync: %v", ErrWALAppend, err)
	}
	return nil
}

// applyEntryLocked is the one place a keyed write reaches the dense
// profile. It applies one coalesced (key, gross adds, gross removes) entry
// while the key's stripe transaction is open: id resolution (with in-stripe
// eviction for new keys), the dense-profile delta and the idle-key
// bookkeeping happen as one atomic step under the stripe lock. acquire says
// whether an unknown key may be assigned an id — true exactly when the
// key's first event is an add; an unknown key without it fails like Remove
// does.
func (k *KeyedConcurrent[K]) applyEntryLocked(t idmap.StripeTxn[K], key K, h uint64, adds, removes uint64, acquire bool) error {
	net := int64(adds) - int64(removes)
	var id int
	var isNew bool
	if acquire {
		var err error
		id, isNew, err = t.Acquire(key, h, k.recycle)
		if err != nil {
			return err
		}
	} else {
		var ok bool
		id, ok = t.Get(key, h)
		if !ok {
			return fmt.Errorf("%w: %v", idmap.ErrUnknownKey, key)
		}
	}
	if err := k.dense.ApplyDelta(Delta{Object: id, Delta: net, Adds: adds, Removes: removes}); err != nil {
		if isNew {
			t.Rollback(key, h, id)
		}
		return err
	}
	if !k.recycle {
		return nil
	}
	// Every update of id runs under this stripe lock, so the count read here
	// is the frequency this entry left behind (id is in range: the delta was
	// just accepted). A fresh id starts at zero and is not marked idle.
	now, _ := k.dense.Count(id)
	switch old := now - net; {
	case now == 0 && (isNew || old != 0):
		t.SetIdle(id, true)
	case now != 0 && old == 0 && !isNew:
		t.SetIdle(id, false)
	}
	return nil
}

// Count returns the current frequency of key (zero for unknown keys). The
// lookup and the read happen under the key's stripe lock, so the answer is
// consistent with concurrent updates to the same key.
func (k *KeyedConcurrent[K]) Count(key K) (int64, error) {
	var count int64
	h := k.ids.Hash(key)
	err := k.ids.BatchFunc(k.ids.StripeOfHash(h), func(t idmap.StripeTxn[K]) error {
		id, ok := t.Get(key, h)
		if !ok {
			return nil
		}
		var err error
		count, err = k.dense.Count(id)
		return err
	})
	return count, err
}
