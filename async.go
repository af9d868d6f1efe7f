package sprofile

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sprofile/internal/mailbox"
)

// This file is the shared-nothing async ingest plane behind AsyncKeyed. The
// synchronous KeyedConcurrent makes every producer take a stripe mutex and
// a shard mutex on the hot path; the async plane removes both from the
// producer's side of the fence:
//
//	producer goroutines ──SPSC mailboxes──▶ per-stripe appliers ──▶ shards
//	                                              │
//	                                              └─▶ epoch snapshots ◀── readers
//
//   - each producer handle owns one single-producer/single-consumer ring
//     (internal/mailbox) per stripe, so an enqueue is a bounds check plus a
//     lock-free ring push — no shared mutable state with other producers;
//   - exactly one applier goroutine drains each stripe's rings in batches and
//     runs KeyedConcurrent.ApplyBatch, so coalescing, the
//     one-WAL-record-per-batch layout and group-commit fsync of the
//     synchronous bulk path are inherited, not reimplemented;
//   - appliers publish immutable per-shard snapshots on a configurable
//     cadence (every AsyncPolicy.PublishEvents applied events, and at least
//     every PublishInterval while dirty), installed by atomic pointer swap.
//     Reads load the current epoch view and never touch a writer lock.
//
// The read contract is bounded staleness, the same vocabulary as the
// replication plane's staleness_ms watermark; AsyncKeyed states it in full.

// BackpressureMode says what a producer does when a stripe mailbox is full.
type BackpressureMode int

const (
	// BackpressureBlock makes the producer wait (yielding, then briefly
	// sleeping) until the applier frees mailbox space. Ingestion never drops
	// or fails, at the cost of producer latency under overload.
	BackpressureBlock BackpressureMode = iota
	// BackpressureError makes the producer fail fast with ErrBackpressure,
	// leaving the event unapplied. The HTTP server surfaces it as 429 with a
	// Retry-After hint.
	BackpressureError
)

// Async plane defaults; a zero AsyncPolicy gets all of them.
const (
	// DefaultMailboxDepth is events buffered per producer×shard ring.
	DefaultMailboxDepth = 1024
	// DefaultPublishEvents bounds how many applied events a shard batches
	// into one epoch before republishing its snapshot. It is deliberately
	// large: PublishInterval is the real staleness bound (the ticker
	// republishes dirty shards on that cadence regardless), and each publish
	// clones the shard, so an aggressive event trigger turns high-rate
	// ingest into allocation churn. Lower it when a test or a bursty
	// low-rate stream needs snapshots promptly after the k-th event.
	DefaultPublishEvents = 1 << 16
	// DefaultPublishInterval bounds how long an applied-but-unpublished
	// event can stay invisible to readers — the staleness half of the read
	// contract — and doubles as the applier's idle wakeup tick.
	DefaultPublishInterval = 2 * time.Millisecond
)

// AsyncPolicy configures the async ingest plane NewAsyncKeyed and
// BuildKeyedAsync wrap a keyed profile with. The zero value means "all
// defaults". Its fields set the two halves of the AsyncKeyed contract:
// PublishInterval (with PublishEvents) bounds how stale a read may be, and
// MailboxDepth with Backpressure decide what an enqueue does when the
// appliers fall behind. Neither changes what is applied: an accepted event
// is applied as KeyedConcurrent.ApplyBatch applies it, its stream-dependent
// error is deferred to the next Flush, and Flush and Close wait for it.
type AsyncPolicy struct {
	// MailboxDepth is the per-producer, per-stripe ring capacity in events,
	// rounded up to a power of two. Deeper mailboxes absorb burstier
	// producers before backpressure; shallower ones bound enqueue-to-apply
	// latency. Default DefaultMailboxDepth.
	MailboxDepth int
	// PublishEvents re-publishes a shard's read snapshot after this many
	// applied events even if PublishInterval has not elapsed. Default
	// DefaultPublishEvents.
	PublishEvents int
	// PublishInterval is the staleness bound: a dirty shard republishes at
	// least this often. Default DefaultPublishInterval.
	PublishInterval time.Duration
	// Backpressure picks the full-mailbox behaviour. Default
	// BackpressureBlock.
	Backpressure BackpressureMode
}

// withDefaults fills unset fields.
func (p AsyncPolicy) withDefaults() AsyncPolicy {
	if p.MailboxDepth <= 0 {
		p.MailboxDepth = DefaultMailboxDepth
	}
	if p.PublishEvents <= 0 {
		p.PublishEvents = DefaultPublishEvents
	}
	if p.PublishInterval <= 0 {
		p.PublishInterval = DefaultPublishInterval
	}
	return p
}

// AsyncShardStats is one shard's corner of AsyncStats.
type AsyncShardStats struct {
	// Shard is the shard (and applier) index.
	Shard int `json:"shard"`
	// MailboxDepth is the number of enqueued-but-unapplied events across
	// every producer ring feeding this shard.
	MailboxDepth int `json:"mailbox_depth"`
	// Applied is the total number of events this shard's applier has applied.
	Applied uint64 `json:"applied"`
}

// AsyncStats is a point-in-time observability snapshot of an async plane;
// the HTTP server serves it inside /healthz and republishes it via expvar.
type AsyncStats struct {
	// Shards is the applier count (one per shard).
	Shards int `json:"shards"`
	// Producers is the number of live producer handles.
	Producers int `json:"producers"`
	// Epoch counts snapshot publishes across all shards — the "applied
	// epoch" readers are served from advances with it.
	Epoch uint64 `json:"epoch"`
	// Applied is the total number of events applied by all appliers.
	Applied uint64 `json:"applied"`
	// Queued is the total number of enqueued-but-unapplied events.
	Queued int `json:"queued"`
	// Drops counts enqueues refused with ErrBackpressure.
	Drops uint64 `json:"drops"`
	// Waits counts enqueues that had to block on a full mailbox.
	Waits uint64 `json:"waits"`
	// PublishLagMs is how long ago the newest epoch was published — the
	// realized staleness bound, in the staleness_ms vocabulary of the
	// replication watermark. Zero before the first publish.
	PublishLagMs float64 `json:"publish_lag_ms"`
	// PerShard breaks depth and applied counts down by shard.
	PerShard []AsyncShardStats `json:"per_shard,omitempty"`
}

// asyncRing pairs one producer×shard mailbox with the applier-side applied
// counter Flush compares against the ring's pushed counter.
type asyncRing[T any] struct {
	ring *mailbox.Ring[T]
	// applied counts this ring's events whose effect is in the profile
	// (bumped by the applier strictly after application).
	applied atomic.Uint64
	// closed marks the owning producer closed; the applier unregisters the
	// ring once it is also drained.
	closed atomic.Bool
}

// asyncApplier is one shard's single consumer goroutine.
type asyncApplier[T any] struct {
	plane *asyncPlane[T]
	shard int

	// rings is the copy-on-write registry of producer rings feeding this
	// shard: the applier loads it lock-free; registration swaps it under
	// regMu.
	rings atomic.Pointer[[]*asyncRing[T]]
	regMu sync.Mutex

	// wake is the producer→applier doorbell (buffered 1); producers only
	// touch it when sleeping says the applier parked, keeping the enqueue
	// hot path channel-free.
	wake     chan struct{}
	sleeping atomic.Bool

	// version counts applied drain batches that may have touched this
	// shard; published is the version the current epoch snapshot covers.
	// Flush's publish barrier waits for published >= version.
	version   atomic.Uint64
	published atomic.Uint64
	// force asks for an immediate publish (Flush, Close).
	force atomic.Bool
	// appliedEvents is this applier's total event count (stats).
	appliedEvents atomic.Uint64

	// scratch is the drain buffer; fills records how much of the current
	// batch came from each ring (for per-ring applied accounting);
	// sincePublish counts applied events since the last publish. All
	// applier-private.
	scratch      []T
	fills        []ringFill[T]
	sincePublish int
}

// ringFill attributes one slice of a drained batch to its source ring.
type ringFill[T any] struct {
	r *asyncRing[T]
	n int
}

// asyncPlane is the machinery under AsyncKeyed: rings, appliers, publish
// cadence, backpressure, flush and deferred-error bookkeeping. T is the
// event type, a KeyedTuple.
type asyncPlane[T any] struct {
	policy AsyncPolicy

	// apply ingests one drained batch, all routed to one stripe; it runs on
	// that stripe's applier goroutine.
	apply func(items []T) error
	// publishShard captures shard's snapshot and installs the new epoch
	// view; always called under publishMu.
	publishShard func(shard int)
	// clearScratch is set when T holds pointers: drained batches must then
	// be zeroed after the apply so the scratch buffer does not pin key
	// strings. Pointer-free event types (integer keys) skip the pass.
	clearScratch bool

	appliers []*asyncApplier[T]

	// publishMu serialises snapshot captures and view installs, so the
	// installed view is always built from the newest snapshot of every
	// shard (two racing publishers could otherwise install a view missing
	// the other's fresher shard). Producers never touch it.
	publishMu   sync.Mutex
	epoch       atomic.Uint64
	lastPublish atomic.Int64 // unix nanos of the newest publish

	producers atomic.Int64
	drops     atomic.Uint64
	waits     atomic.Uint64

	// errMu guards deferred, the first stream-dependent apply error (strict
	// violation, unknown key, journal failure) since the last Flush; Flush
	// returns and clears it.
	errMu    sync.Mutex
	deferred error

	closed    atomic.Bool // no new enqueues or producers
	stopped   atomic.Bool // appliers have exited
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// unregister removes this plane from the metrics scrape aggregation.
	unregister func()
}

func newAsyncPlane[T any](nshards int, policy AsyncPolicy,
	apply func(items []T) error, publishShard func(shard int)) *asyncPlane[T] {
	pl := &asyncPlane[T]{
		policy:       policy.withDefaults(),
		apply:        apply,
		publishShard: publishShard,
		clearScratch: mailbox.HoldsPointers[T](),
		stop:         make(chan struct{}),
	}
	pl.appliers = make([]*asyncApplier[T], nshards)
	for i := range pl.appliers {
		// The drain buffer is at least a few rings deep: batches fill
		// across all of a shard's producers, and larger apply windows mean
		// better coalescing and fewer WAL fsyncs under load.
		batch := pl.policy.MailboxDepth
		if batch < 4096 {
			batch = 4096
		}
		pl.appliers[i] = &asyncApplier[T]{
			plane:   pl,
			shard:   i,
			wake:    make(chan struct{}, 1),
			scratch: make([]T, batch),
		}
	}
	pl.unregister = registerAsyncPlane(pl.stats)
	return pl
}

func (pl *asyncPlane[T]) start() {
	for _, a := range pl.appliers {
		pl.wg.Add(1)
		a := a
		go pprof.Do(context.Background(), pprof.Labels("sprofile_plane", "applier"), func(context.Context) {
			a.run()
		})
	}
}

// recordErr keeps the first deferred apply error until the next Flush.
func (pl *asyncPlane[T]) recordErr(err error) {
	if err == nil {
		return
	}
	pl.errMu.Lock()
	if pl.deferred == nil {
		pl.deferred = err
	}
	pl.errMu.Unlock()
}

func (pl *asyncPlane[T]) takeErr() error {
	pl.errMu.Lock()
	err := pl.deferred
	pl.deferred = nil
	pl.errMu.Unlock()
	return err
}

// nudge rings the applier's doorbell without ever blocking.
func (a *asyncApplier[T]) nudge() {
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// bumpVersions marks every shard dirty after a batch. An apply on stripe i
// may mutate other shards too: a stripe whose dense-id range is exhausted
// borrows ids from a neighbouring shard's range. So every applier's version
// advances on every batch, and Flush's publish barrier republishes every
// shard.
func (a *asyncApplier[T]) bumpVersions() {
	for _, other := range a.plane.appliers {
		other.version.Add(1)
	}
}

// drain consumes every ring until all are momentarily empty, applying in
// batches of up to cap(scratch); it returns how many events it applied.
// Each batch is filled across ALL of the shard's rings before it is applied,
// so concurrent producers share one coalescing window (and, on a durable
// profile, one WAL record and fsync) instead of paying one apply per ring.
func (a *asyncApplier[T]) drain() int {
	ringsp := a.rings.Load()
	if ringsp == nil {
		return 0
	}
	total := 0
	for {
		fill := 0
		a.fills = a.fills[:0]
		for _, r := range *ringsp {
			if fill == len(a.scratch) {
				break
			}
			if n := r.ring.Pop(a.scratch[fill:]); n > 0 {
				fill += n
				a.fills = append(a.fills, ringFill[T]{r: r, n: n})
			}
		}
		if fill == 0 {
			break
		}
		if err := a.plane.apply(a.scratch[:fill]); err != nil {
			a.plane.recordErr(err)
		}
		if a.plane.clearScratch {
			// Drop element references (keyed tuples pin key strings).
			clear(a.scratch[:fill])
		}
		a.bumpVersions()
		// applied advances only after the apply completed, so Flush's
		// drain barrier implies the events' effects are visible.
		for _, f := range a.fills {
			f.r.applied.Add(uint64(f.n))
		}
		a.appliedEvents.Add(uint64(fill))
		mAsyncAppliedEvents.Add(uint64(fill))
		mAsyncApplierBatches.Inc()
		mAsyncBatchEvents.Observe(float64(fill))
		a.sincePublish += fill
		total += fill
		if a.sincePublish >= a.plane.policy.PublishEvents {
			a.publishNow()
		}
	}
	var dead []*asyncRing[T]
	for _, r := range *ringsp {
		if r.closed.Load() && r.ring.Len() == 0 {
			dead = append(dead, r)
		}
	}
	if dead != nil {
		a.unregister(dead)
	}
	return total
}

// publishNow captures this shard's snapshot and installs a new epoch view.
func (a *asyncApplier[T]) publishNow() {
	pl := a.plane
	// The version is read before the capture: applies racing with the
	// capture keep the shard dirty and trigger a re-publish next tick.
	v := a.version.Load()
	pl.publishMu.Lock()
	pl.publishShard(a.shard)
	pl.epoch.Add(1)
	pl.lastPublish.Store(time.Now().UnixNano())
	pl.publishMu.Unlock()
	mAsyncPublishes.Inc()
	a.published.Store(v)
	a.force.Store(false)
	a.sincePublish = 0
}

// dirty reports whether the current epoch is missing applied events of this
// shard.
func (a *asyncApplier[T]) dirty() bool {
	return a.version.Load() != a.published.Load()
}

// pending reports whether any ring holds work.
func (a *asyncApplier[T]) pending() bool {
	ringsp := a.rings.Load()
	if ringsp == nil {
		return false
	}
	for _, r := range *ringsp {
		if r.ring.Len() > 0 {
			return true
		}
	}
	return false
}

// run is the applier loop: run-to-completion draining, cadence-based
// publishing, parking on the doorbell/tick when idle.
func (a *asyncApplier[T]) run() {
	defer a.plane.wg.Done()
	tick := time.NewTicker(a.plane.policy.PublishInterval)
	defer tick.Stop()
	for {
		n := a.drain()
		if a.force.Load() {
			a.publishNow()
		}
		if n > 0 {
			// Busy: keep draining, but honour the staleness bound by
			// polling the tick between rounds.
			select {
			case <-tick.C:
				if a.dirty() {
					a.publishNow()
				}
			case <-a.plane.stop:
				a.shutdown()
				return
			default:
			}
			continue
		}
		// Momentarily idle: yield a few times before parking. On a busy
		// host the producers refill the rings as soon as they get the
		// CPU, and staying out of the park/doorbell round-trip (a channel
		// send plus a goroutine wakeup per cycle) keeps the drain loop
		// hot. Truly idle planes fall through and park as before.
		yielded := false
		for i := 0; i < 4; i++ {
			runtime.Gosched()
			if a.pending() || a.force.Load() {
				yielded = true
				break
			}
		}
		if yielded {
			continue
		}
		// Idle: park. Producers check sleeping before ringing the doorbell,
		// so the store must happen before the final emptiness recheck.
		a.sleeping.Store(true)
		if a.pending() || a.force.Load() {
			a.sleeping.Store(false)
			continue
		}
		select {
		case <-a.wake:
		case <-tick.C:
			if a.dirty() {
				a.publishNow()
			}
		case <-a.plane.stop:
			a.sleeping.Store(false)
			a.shutdown()
			return
		}
		a.sleeping.Store(false)
	}
}

// shutdown drains whatever raced in before the plane closed and publishes
// the final state.
func (a *asyncApplier[T]) shutdown() {
	for a.drain() > 0 {
	}
	if a.dirty() || a.force.Load() {
		a.publishNow()
	}
}

// unregister removes closed, drained rings from the registry.
func (a *asyncApplier[T]) unregister(dead []*asyncRing[T]) {
	a.regMu.Lock()
	defer a.regMu.Unlock()
	cur := a.rings.Load()
	if cur == nil {
		return
	}
	next := make([]*asyncRing[T], 0, len(*cur))
outer:
	for _, r := range *cur {
		for _, d := range dead {
			if r == d {
				continue outer
			}
		}
		next = append(next, r)
	}
	a.rings.Store(&next)
}

// register adds one ring to shard's applier.
func (a *asyncApplier[T]) register(r *asyncRing[T]) {
	a.regMu.Lock()
	defer a.regMu.Unlock()
	var cur []*asyncRing[T]
	if p := a.rings.Load(); p != nil {
		cur = *p
	}
	next := make([]*asyncRing[T], len(cur)+1)
	copy(next, cur)
	next[len(cur)] = r
	a.rings.Store(&next)
}

// asyncProducer is the generic half of a producer handle: one ring per
// shard. Handles are single-goroutine, like any Go value that is not
// documented otherwise; spawn one per producer goroutine (or rent from the
// wrapper's internal pool).
type asyncProducer[T any] struct {
	plane  *asyncPlane[T]
	rings  []*asyncRing[T]
	closed bool
}

func (pl *asyncPlane[T]) newProducer() (*asyncProducer[T], error) {
	if pl.closed.Load() {
		return nil, fmt.Errorf("%w: async ingest plane is closed", ErrReadOnly)
	}
	p := &asyncProducer[T]{plane: pl, rings: make([]*asyncRing[T], len(pl.appliers))}
	for i, a := range pl.appliers {
		r := &asyncRing[T]{ring: mailbox.New[T](pl.policy.MailboxDepth)}
		p.rings[i] = r
		a.register(r)
	}
	pl.producers.Add(1)
	return p, nil
}

// close retires the handle: its rings are drained then unregistered by the
// appliers.
func (p *asyncProducer[T]) close() {
	if p.closed {
		return
	}
	p.closed = true
	p.plane.producers.Add(-1)
	for i, r := range p.rings {
		r.closed.Store(true)
		p.plane.appliers[i].nudge()
	}
}

// push enqueues one event for shard, applying the backpressure policy on a
// full ring.
func (p *asyncProducer[T]) push(shard int, v T) error {
	pl := p.plane
	if p.closed || pl.closed.Load() {
		return fmt.Errorf("%w: async ingest plane is closed", ErrReadOnly)
	}
	r := p.rings[shard]
	a := pl.appliers[shard]
	if r.ring.Push(v) {
		if a.sleeping.Load() {
			a.nudge()
		}
		return nil
	}
	// Full: the applier is behind; wake it regardless of policy.
	a.nudge()
	if pl.policy.Backpressure == BackpressureError {
		pl.drops.Add(1)
		mAsyncDrops.Inc()
		return ErrBackpressure
	}
	pl.waits.Add(1)
	mAsyncWaits.Inc()
	for spins := 0; ; spins++ {
		if pl.closed.Load() {
			return fmt.Errorf("%w: async ingest plane is closed", ErrReadOnly)
		}
		if r.ring.Push(v) {
			if a.sleeping.Load() {
				a.nudge()
			}
			return nil
		}
		a.nudge()
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// flush drains every mailbox, waits until the effects are applied, forces a
// publish of every dirty shard, and returns (clearing) the first deferred
// apply error recorded since the previous flush.
func (pl *asyncPlane[T]) flush() error {
	// Poll by yielding first: on few-core hosts runtime.Gosched hands the
	// CPU straight to the applier, so a flush of an almost-empty mailbox
	// completes in microseconds instead of a scheduler sleep quantum.
	wait := func(spins *int) {
		if *spins < 1024 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
		*spins++
	}
	// Drain barrier: every event pushed before this flush is applied.
	for _, a := range pl.appliers {
		ringsp := a.rings.Load()
		if ringsp == nil {
			continue
		}
		for _, r := range *ringsp {
			want := r.ring.Pushed()
			for spins := 0; r.applied.Load() < want; {
				if pl.stopped.Load() {
					break
				}
				a.nudge()
				wait(&spins)
			}
		}
	}
	// Publish barrier: every applied event is visible to readers. The
	// version targets are read after the drain barrier, so they cover it.
	for _, a := range pl.appliers {
		v := a.version.Load()
		for spins := 0; a.published.Load() < v; {
			if pl.stopped.Load() {
				// Appliers are gone; publish the final state inline.
				pl.publishMu.Lock()
				pl.publishShard(a.shard)
				pl.epoch.Add(1)
				pl.lastPublish.Store(time.Now().UnixNano())
				pl.publishMu.Unlock()
				mAsyncPublishes.Inc()
				a.published.Store(v)
				break
			}
			a.force.Store(true)
			a.nudge()
			wait(&spins)
		}
	}
	return pl.takeErr()
}

// close stops ingestion: new enqueues fail, queued events are drained and
// published, appliers exit. Idempotent; returns the last deferred error.
func (pl *asyncPlane[T]) close() error {
	var err error
	pl.closeOnce.Do(func() {
		pl.closed.Store(true)
		err = pl.flush()
		close(pl.stop)
		for _, a := range pl.appliers {
			a.nudge()
		}
		pl.wg.Wait()
		pl.stopped.Store(true)
		pl.unregister()
	})
	return err
}

// stats assembles the observability snapshot.
func (pl *asyncPlane[T]) stats() AsyncStats {
	st := AsyncStats{
		Shards:    len(pl.appliers),
		Producers: int(pl.producers.Load()),
		Epoch:     pl.epoch.Load(),
		Drops:     pl.drops.Load(),
		Waits:     pl.waits.Load(),
	}
	if last := pl.lastPublish.Load(); last > 0 {
		st.PublishLagMs = float64(time.Now().UnixNano()-last) / 1e6
	}
	st.PerShard = make([]AsyncShardStats, len(pl.appliers))
	for i, a := range pl.appliers {
		ss := AsyncShardStats{Shard: i, Applied: a.appliedEvents.Load()}
		if ringsp := a.rings.Load(); ringsp != nil {
			for _, r := range *ringsp {
				ss.MailboxDepth += r.ring.Len()
			}
		}
		st.Applied += ss.Applied
		st.Queued += ss.MailboxDepth
		st.PerShard[i] = ss
	}
	return st
}
