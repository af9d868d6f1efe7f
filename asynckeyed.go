package sprofile

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"sprofile/internal/core"
)

// AsyncKeyed wraps a KeyedConcurrent with the async ingest plane: keyed
// events are enqueued to per-producer SPSC mailboxes, routed by the key's
// mapper stripe, and applied by one goroutine per stripe through
// KeyedConcurrent.ApplyBatch — so the batch path's coalescing, single
// stripe-lock resolution, one-WAL-record-per-batch journaling and
// group-commit fsync all apply per mailbox drain. Reads answer from
// epoch-published immutable snapshots of the dense profile, translated back
// to keys through the live id mapper.
//
// Semantics vs the synchronous KeyedConcurrent, all consequences of the
// decoupling:
//
//   - Bounded staleness instead of read-your-write: a read reflects every
//     event up to some publish epoch at most ~PublishInterval (plus the
//     drain in progress) behind the ingest frontier. Flush restores
//     read-your-write: it returns only when every event enqueued before it
//     is applied and published.
//   - Argument errors stay synchronous: an invalid action, or a key the
//     write-ahead log cannot record, fails the enqueueing call. So do
//     ErrBackpressure (see AsyncPolicy) and ErrReadOnly after Close.
//   - Stream-dependent errors are deferred: removing an unknown key,
//     ErrKeyedFull when no id can be recycled, strict-mode violations and
//     journal failures surface on the next Flush (or Close), which returns
//     the first one and clears it. A failing event costs only its own key:
//     each drain is one ApplyBatch over every producer's events for that
//     stripe, and ApplyBatch still applies every other key of the batch.
//   - Concurrency: AsyncKeyed is safe for any number of producer and reader
//     goroutines. Update calls on AsyncKeyed itself rent a producer handle
//     from an internal pool; hot producers should hold their own handle
//     (Producer) for strict per-producer ordering and no pool traffic.
//   - Close drains every mailbox, publishes the final epoch, stops the
//     appliers and closes the wrapped profile; no accepted event is
//     dropped. Later updates fail with ErrReadOnly, and reads keep
//     answering from the final epoch.
//   - Key translation uses the live mapper, so in rare cases a key read
//     from an epoch snapshot may have been recycled since that epoch was
//     published — the same point-in-time caveat KeyedConcurrent documents
//     for its global queries.
//
// Dense-id callers use AsyncKeyed[int] built WithoutKeyRecycling, whose
// keys are the ids themselves; a write-ahead log needs string keys.
//
// Construct with NewAsyncKeyed over a BuildKeyed profile, or in one step
// with BuildKeyedAsync.
type AsyncKeyed[K comparable] struct {
	// k's dense profile has one shard per mapper stripe (BuildKeyed aligns
	// them), so applier i owns stripe i's home shard.
	k *KeyedConcurrent[K]

	plane *asyncPlane[KeyedTuple[K]]
	// snaps holds the newest per-shard snapshot; guarded by plane.publishMu.
	snaps []*core.Profile
	// view is the current epoch: a *Sharded over snaps.
	view atomic.Pointer[Sharded]

	pool chan *AsyncKeyedProducer[K]
}

// NewAsyncKeyed wraps k, a BuildKeyed profile, with the async ingest plane
// described on AsyncKeyed. The wrapped profile must no longer be updated
// directly.
func NewAsyncKeyed[K comparable](k *KeyedConcurrent[K], policy AsyncPolicy) (*AsyncKeyed[K], error) {
	if k == nil {
		return nil, fmt.Errorf("%w: nil keyed profiler", ErrBuildConfig)
	}
	shards := k.dense.Shards()
	ak := &AsyncKeyed[K]{k: k}
	ak.plane = newAsyncPlane[KeyedTuple[K]](shards, policy, ak.applyBatch, ak.publishShard)
	ak.snaps = make([]*core.Profile, shards)
	ak.plane.publishMu.Lock()
	for i := 0; i < shards; i++ {
		ak.publishShard(i)
	}
	ak.plane.publishMu.Unlock()
	ak.pool = make(chan *AsyncKeyedProducer[K], 4*runtime.GOMAXPROCS(0))
	ak.plane.start()
	return ak, nil
}

// BuildKeyedAsync assembles a concurrent keyed profile with BuildKeyed and
// wraps it with the async ingest plane in one step:
//
//	ak, err := sprofile.BuildKeyedAsync[string](m, sprofile.AsyncPolicy{},
//	        sprofile.WithSharding(8), sprofile.WithWAL("events.wal"))
func BuildKeyedAsync[K comparable](m int, policy AsyncPolicy, opts ...BuildOption) (*AsyncKeyed[K], error) {
	k, err := BuildKeyed[K](m, opts...)
	if err != nil {
		return nil, err
	}
	ak, err := NewAsyncKeyed(k, policy)
	if err != nil {
		k.Close()
		return nil, err
	}
	return ak, nil
}

// applyBatch ingests one drained, single-stripe batch through the keyed
// batch path (coalescing, one stripe-lock acquisition, one WAL record, one
// group-commit fsync).
func (ak *AsyncKeyed[K]) applyBatch(items []KeyedTuple[K]) error {
	_, err := ak.k.ApplyBatch(items)
	return err
}

// publishShard installs a new epoch view containing shard's fresh snapshot;
// called under plane.publishMu.
func (ak *AsyncKeyed[K]) publishShard(shard int) {
	ak.snaps[shard] = ak.k.dense.cloneShard(shard)
	ak.view.Store(newShardedView(ak.k.dense, ak.snaps))
}

// curView returns the current epoch's dense read view.
func (ak *AsyncKeyed[K]) curView() *Sharded { return ak.view.Load() }

// queries builds the key-translating read facade over the current epoch.
// The resolver is the live mapper: snapshots capture frequencies, the
// id↔key assignment stays authoritative in the mapper.
func (ak *AsyncKeyed[K]) queries() keyedQueries[K] {
	return keyedQueries[K]{profile: ak.curView(), resolver: ak.k.ids}
}

// checkEvent validates what can be validated at enqueue time, keeping
// argument errors synchronous like the direct keyed paths.
func (ak *AsyncKeyed[K]) checkEvent(key K, action Action) error {
	if !action.Valid() {
		return errInvalidAction(action)
	}
	if ak.k.store != nil {
		// BuildKeyed guarantees K = string when a WAL is attached.
		if err := checkJournalableKey(any(key).(string)); err != nil {
			return err
		}
	}
	return nil
}

// Producer returns a dedicated keyed producer handle: one lock-free mailbox
// per stripe, single-goroutine, ordered per producer. Close it when the
// producer retires.
func (ak *AsyncKeyed[K]) Producer() (*AsyncKeyedProducer[K], error) {
	p, err := ak.plane.newProducer()
	if err != nil {
		return nil, err
	}
	return &AsyncKeyedProducer[K]{ak: ak, p: p}, nil
}

// withProducer rents a pooled handle for one call.
func (ak *AsyncKeyed[K]) withProducer(f func(*AsyncKeyedProducer[K]) error) error {
	var p *AsyncKeyedProducer[K]
	select {
	case p = <-ak.pool:
	default:
		var err error
		p, err = ak.Producer()
		if err != nil {
			return err
		}
	}
	err := f(p)
	select {
	case ak.pool <- p:
	default:
		p.Close()
	}
	return err
}

// Add enqueues an "add" event for key; id assignment and recycling happen
// on the applier. ErrKeyedFull (no recyclable id) surfaces on the next
// Flush.
func (ak *AsyncKeyed[K]) Add(key K) error {
	return ak.withProducer(func(p *AsyncKeyedProducer[K]) error { return p.Add(key) })
}

// Remove enqueues a "remove" event for key; an unknown key surfaces as
// ErrUnknownKey on the next Flush.
func (ak *AsyncKeyed[K]) Remove(key K) error {
	return ak.withProducer(func(p *AsyncKeyedProducer[K]) error { return p.Remove(key) })
}

// Apply enqueues one (key, action) event.
func (ak *AsyncKeyed[K]) Apply(key K, action Action) error {
	return ak.withProducer(func(p *AsyncKeyedProducer[K]) error { return p.Apply(key, action) })
}

// ApplyBatch enqueues a batch of keyed events, stopping at the first
// invalid one; it returns how many were enqueued.
func (ak *AsyncKeyed[K]) ApplyBatch(events []KeyedTuple[K]) (int, error) {
	var n int
	err := ak.withProducer(func(p *AsyncKeyedProducer[K]) error {
		var err error
		n, err = p.ApplyBatch(events)
		return err
	})
	return n, err
}

// Track assigns key a dense id without counting anything. It acts on the
// live mapper immediately (Tracked reflects it at once); the id's zero
// frequency reaches epoch snapshots on the next publish.
func (ak *AsyncKeyed[K]) Track(key K) error { return ak.k.Track(key) }

// Flush drains every producer mailbox, waits until every drained event is
// applied, republishes all shard snapshots, and returns the first deferred
// apply error since the last Flush, clearing it. After Flush returns, reads
// see every event enqueued before it: the read-your-write barrier of the
// bounded-staleness contract, and what a Checkpoint that must cover every
// accepted event calls first.
func (ak *AsyncKeyed[K]) Flush() error { return ak.plane.flush() }

// Close drains and stops the ingest plane, then closes the wrapped keyed
// profile (flushing its WAL and stopping its checkpointer). It returns the
// last deferred apply error. Further updates fail with ErrReadOnly; reads
// keep answering from the final published epoch.
func (ak *AsyncKeyed[K]) Close() error {
	err := ak.plane.close()
	if cerr := ak.k.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sync flushes the wrapped profile's write-ahead log. It does NOT drain the
// mailboxes; call Flush first for an inclusive cut.
func (ak *AsyncKeyed[K]) Sync() error { return ak.k.Sync() }

// Checkpoint forwards to the wrapped profile's Checkpoint: the appliers
// mutate state under the stripe locks Checkpoint quiesces, so the snapshot
// is an exact cut of the applied stream. Call Flush first when the
// checkpoint must also cover everything enqueued so far.
func (ak *AsyncKeyed[K]) Checkpoint() error { return ak.k.Checkpoint() }

// Inner returns the wrapped keyed profile. Updating it directly bypasses
// the mailboxes and must be avoided.
func (ak *AsyncKeyed[K]) Inner() *KeyedConcurrent[K] { return ak.k }

// Stats returns the plane's observability snapshot.
func (ak *AsyncKeyed[K]) Stats() AsyncStats { return ak.plane.stats() }

// Epoch returns the current publish epoch (total snapshot installs).
func (ak *AsyncKeyed[K]) Epoch() uint64 { return ak.plane.epoch.Load() }

// The read surface: statistics answer from the current epoch snapshot,
// translated to keys through the live mapper.

// Count returns the frequency of key in the current epoch (zero for
// unknown keys).
func (ak *AsyncKeyed[K]) Count(key K) (int64, error) {
	id, err := ak.k.ids.DenseID(key)
	if err != nil {
		return 0, nil
	}
	return ak.curView().Count(id)
}

// Mode returns a maximum-frequency key of the current epoch.
func (ak *AsyncKeyed[K]) Mode() (KeyedEntry[K], int, error) {
	q := ak.queries()
	return q.Mode()
}

// Min returns a minimum-frequency key of the current epoch.
func (ak *AsyncKeyed[K]) Min() (KeyedEntry[K], int, error) {
	q := ak.queries()
	return q.Min()
}

// TopK returns the k most frequent entries of the current epoch.
func (ak *AsyncKeyed[K]) TopK(k int) []KeyedEntry[K] {
	q := ak.queries()
	return q.TopK(k)
}

// BottomK returns the k least frequent entries of the current epoch.
func (ak *AsyncKeyed[K]) BottomK(k int) []KeyedEntry[K] {
	q := ak.queries()
	return q.BottomK(k)
}

// KthLargest returns the entry holding the k-th largest frequency.
func (ak *AsyncKeyed[K]) KthLargest(k int) (KeyedEntry[K], error) {
	q := ak.queries()
	return q.KthLargest(k)
}

// Median returns the lower-median entry of the current epoch.
func (ak *AsyncKeyed[K]) Median() (KeyedEntry[K], error) {
	q := ak.queries()
	return q.Median()
}

// Quantile returns the entry at quantile quant in [0, 1].
func (ak *AsyncKeyed[K]) Quantile(quant float64) (KeyedEntry[K], error) {
	q := ak.queries()
	return q.Quantile(quant)
}

// Majority returns the strict-majority key of the current epoch, if any.
func (ak *AsyncKeyed[K]) Majority() (KeyedEntry[K], bool, error) {
	q := ak.queries()
	return q.Majority()
}

// Distribution returns the frequency histogram of the current epoch.
func (ak *AsyncKeyed[K]) Distribution() []FreqCount {
	return ak.curView().Distribution()
}

// Summarize returns aggregate statistics of the current epoch.
func (ak *AsyncKeyed[K]) Summarize() Summary { return ak.curView().Summarize() }

// Cap returns the maximum number of concurrently tracked keys.
func (ak *AsyncKeyed[K]) Cap() int { return ak.k.Cap() }

// Tracked returns the number of keys currently holding a dense id (live
// mapper state, not the epoch snapshot).
func (ak *AsyncKeyed[K]) Tracked() int { return ak.k.Tracked() }

// Total returns the sum of all frequencies in the current epoch.
func (ak *AsyncKeyed[K]) Total() int64 { return ak.curView().Total() }

// KeyOf resolves a dense id back to its key, when one is assigned.
func (ak *AsyncKeyed[K]) KeyOf(id int) (K, bool) { return ak.k.ids.Key(id) }

// QueryKeys answers a composite query atomically against ONE epoch
// snapshot; per-key counts resolve ids through the live mapper and read
// the same snapshot, so all panels are one cut.
func (ak *AsyncKeyed[K]) QueryKeys(kq KeyedQuery[K]) (KeyedQueryResult[K], error) {
	q := ak.queries()
	dres, err := q.queryDense(kq.dense())
	if err != nil {
		return KeyedQueryResult[K]{}, err
	}
	out := q.translateQueryResult(dres)
	if len(kq.Count) > 0 {
		out.Counts = make([]KeyedEntry[K], len(kq.Count))
		for i, key := range kq.Count {
			var f int64
			if id, err := ak.k.ids.DenseID(key); err == nil {
				if f, err = q.profile.Count(id); err != nil {
					return KeyedQueryResult[K]{}, err
				}
			}
			out.Counts[i] = KeyedEntry[K]{Key: key, Frequency: f}
		}
	}
	return out, nil
}

// Profile exposes the current epoch's dense snapshot as a read-only view.
func (ak *AsyncKeyed[K]) Profile() Profiler { return NewReadOnly(ak.curView()) }

// AsyncKeyedProducer is a keyed producer handle: lock-free enqueues routed
// by the key's mapper stripe, strictly ordered per handle. Handles are
// single-goroutine.
type AsyncKeyedProducer[K comparable] struct {
	ak *AsyncKeyed[K]
	p  *asyncProducer[KeyedTuple[K]]
}

// Add enqueues an "add" event for key.
func (p *AsyncKeyedProducer[K]) Add(key K) error {
	return p.Apply(key, ActionAdd)
}

// Remove enqueues a "remove" event for key.
func (p *AsyncKeyedProducer[K]) Remove(key K) error {
	return p.Apply(key, ActionRemove)
}

// Apply enqueues one (key, action) event.
func (p *AsyncKeyedProducer[K]) Apply(key K, action Action) error {
	if err := p.ak.checkEvent(key, action); err != nil {
		return err
	}
	return p.p.push(p.ak.k.ids.StripeOf(key), KeyedTuple[K]{Key: key, Action: action})
}

// ApplyBatch enqueues events in order, stopping at the first invalid one
// (or the first backpressure rejection); it returns how many were
// enqueued.
func (p *AsyncKeyedProducer[K]) ApplyBatch(events []KeyedTuple[K]) (int, error) {
	for i, e := range events {
		if err := p.Apply(e.Key, e.Action); err != nil {
			return i, err
		}
	}
	return len(events), nil
}

// Close retires the handle; its mailboxes are drained, then reclaimed.
func (p *AsyncKeyedProducer[K]) Close() error {
	p.p.close()
	return nil
}
