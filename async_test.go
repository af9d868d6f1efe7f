package sprofile_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sprofile"
	"sprofile/profilertest"
)

// asyncTestPolicy keeps idle appliers quiet during tests; exactness comes
// from Flush, not the cadence.
func asyncTestPolicy() sprofile.AsyncPolicy {
	return sprofile.AsyncPolicy{PublishInterval: 50 * time.Millisecond}
}

// flushedAsync adapts an async profiler to the synchronous semantics the
// conformance battery asserts: every update flushes (surfacing deferred
// apply errors at the call, and restoring read-your-write), every read
// flushes first. It is the documented migration recipe for code that needs
// exactness — what the battery verifies is that enqueue + Flush is
// observationally identical to the synchronous profile.
type flushedAsync struct {
	p     sprofile.Profiler
	flush func() error
}

func (f *flushedAsync) sync(opErr error) error {
	ferr := f.flush()
	if opErr != nil {
		return opErr
	}
	return ferr
}

func (f *flushedAsync) Add(x int) error    { return f.sync(f.p.Add(x)) }
func (f *flushedAsync) Remove(x int) error { return f.sync(f.p.Remove(x)) }
func (f *flushedAsync) Apply(t sprofile.Tuple) error {
	return f.sync(f.p.Apply(t))
}

func (f *flushedAsync) ApplyAll(tuples []sprofile.Tuple) (int, error) {
	n, err := f.p.ApplyAll(tuples)
	return n, f.sync(err)
}

func (f *flushedAsync) Count(x int) (int64, error) {
	f.flush()
	return f.p.Count(x)
}
func (f *flushedAsync) Mode() (sprofile.Entry, int, error) { f.flush(); return f.p.Mode() }
func (f *flushedAsync) Min() (sprofile.Entry, int, error)  { f.flush(); return f.p.Min() }
func (f *flushedAsync) TopK(k int) []sprofile.Entry        { f.flush(); return f.p.TopK(k) }
func (f *flushedAsync) BottomK(k int) []sprofile.Entry     { f.flush(); return f.p.BottomK(k) }
func (f *flushedAsync) KthLargest(k int) (sprofile.Entry, error) {
	f.flush()
	return f.p.KthLargest(k)
}
func (f *flushedAsync) Median() (sprofile.Entry, error) { f.flush(); return f.p.Median() }
func (f *flushedAsync) Quantile(q float64) (sprofile.Entry, error) {
	f.flush()
	return f.p.Quantile(q)
}
func (f *flushedAsync) Majority() (sprofile.Entry, bool, error) { f.flush(); return f.p.Majority() }
func (f *flushedAsync) Distribution() []sprofile.FreqCount      { f.flush(); return f.p.Distribution() }
func (f *flushedAsync) Summarize() sprofile.Summary             { f.flush(); return f.p.Summarize() }
func (f *flushedAsync) Cap() int                                { return f.p.Cap() }
func (f *flushedAsync) Total() int64                            { f.flush(); return f.p.Total() }

// flushedKeyed wraps an async keyed profile addressed by dense ids for the
// conformance battery: the keyed adapter translates ids to keys, flushed
// makes every call synchronous.
func flushedKeyed(k sprofile.KeyedProfiler[int], flush func() error, m int) (sprofile.Profiler, error) {
	adapter, err := newKeyedAdapter(k, m)
	if err != nil {
		return nil, err
	}
	return &flushedAsync{p: adapter, flush: flush}, nil
}

// TestAsyncProfilerConformance holds the async ingest plane to the same
// update/query/error semantics as every synchronous variant: enqueue + Flush
// must be observationally identical to a direct apply, with four stripes
// (built in one step, and wrapped by NewAsyncKeyed under two-event
// mailboxes), with one (a single applier and shard), and WAL-backed.
// Key→stripe routing, per-stripe appliers, backpressure waits and
// epoch-translated reads must preserve the reference semantics exactly.
func TestAsyncProfilerConformance(t *testing.T) {
	dense := func(shards int) profilertest.Factory {
		return func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
			ak, err := sprofile.BuildKeyedAsync[int](m, asyncTestPolicy(),
				sprofile.WithSharding(shards),
				sprofile.WithoutKeyRecycling(),
				sprofile.WithOptions(opts...))
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { ak.Close() })
			return flushedKeyed(ak, ak.Flush, m)
		}
	}
	profilertest.Run(t, "AsyncKeyed-4", dense(4))
	profilertest.Run(t, "Async-Unsharded", dense(1))

	// Four shards wrapped by NewAsyncKeyed around a separately built
	// profile, under a tight policy: the smallest mailboxes (two events), so
	// batches can meet block-mode backpressure, and a republish every 8
	// applied events.
	profilertest.Run(t, "Async-Sharded", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		k, err := sprofile.BuildKeyed[int](m,
			sprofile.WithSharding(4),
			sprofile.WithoutKeyRecycling(),
			sprofile.WithOptions(opts...))
		if err != nil {
			return nil, err
		}
		ak, err := sprofile.NewAsyncKeyed(k, sprofile.AsyncPolicy{
			MailboxDepth:    2,
			PublishEvents:   8,
			PublishInterval: 50 * time.Millisecond,
		})
		if err != nil {
			k.Close()
			return nil, err
		}
		t.Cleanup(func() { ak.Close() })
		return flushedKeyed(ak, ak.Flush, m)
	})

	// The log stores string keys, so the WAL-backed run addresses the
	// plane through the int→string key adapter.
	walDir := t.TempDir()
	walSeq := 0
	profilertest.Run(t, "Async-WAL", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		walSeq++
		ak, err := sprofile.BuildKeyedAsync[string](m, asyncTestPolicy(),
			sprofile.WithSharding(3),
			sprofile.WithoutKeyRecycling(),
			sprofile.WithWAL(filepath.Join(walDir, fmt.Sprintf("async-%d.wal", walSeq))),
			sprofile.WithOptions(opts...))
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { ak.Close() })
		return flushedKeyed(intStringKeyed{ak}, ak.Flush, m)
	})
}

// TestAsyncRestoredConformance holds the async Flush→Checkpoint→Close→reopen
// cycle to the full battery: every query is answered by a profile rebuilt
// from the WAL (alternating snapshot-restored and tail-replayed recovery)
// that must agree exactly with the in-memory reference — the "Flush then
// Checkpoint captures the exact cut" contract.
func TestAsyncRestoredConformance(t *testing.T) {
	dir := t.TempDir()
	seq := 0
	profilertest.Run(t, "Async-WAL-Restored", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		seq++
		path := filepath.Join(dir, fmt.Sprintf("async-restored-%d.wal", seq))
		var ak *sprofile.AsyncKeyed[string]
		build := func() (sprofile.Profiler, error) {
			var err error
			ak, err = sprofile.BuildKeyedAsync[string](m, asyncTestPolicy(),
				sprofile.WithSharding(3),
				sprofile.WithoutKeyRecycling(),
				sprofile.WithWAL(path),
				sprofile.WithOptions(opts...))
			if err != nil {
				return nil, err
			}
			return flushedKeyed(intStringKeyed{ak}, ak.Flush, m)
		}
		cur, err := build()
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { ak.Close() })
		return &restoredProfiler{cur: cur, reopen: func(_ sprofile.Profiler, cycle int) (sprofile.Profiler, error) {
			if err := ak.Flush(); err != nil {
				return nil, err
			}
			if cycle%2 == 0 {
				if err := ak.Checkpoint(); err != nil {
					return nil, err
				}
			}
			if err := ak.Close(); err != nil {
				return nil, err
			}
			return build()
		}}, nil
	})
}

// TestAsyncFlushReadYourWrite verifies the migration contract directly:
// enqueued events may be invisible, Flush makes them visible.
func TestAsyncFlushReadYourWrite(t *testing.T) {
	a, err := sprofile.BuildKeyedAsync[string](100, asyncTestPolicy(), sprofile.WithSharding(4))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 100; i++ {
		if err := a.Add(fmt.Sprintf("k%d", i%10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := a.Total(); got != 100 {
		t.Fatalf("Total after Flush = %d, want 100", got)
	}
	for i := 0; i < 10; i++ {
		c, err := a.Count(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if c != 10 {
			t.Fatalf("Count(k%d) = %d, want 10", i, c)
		}
	}
	// Composite query answers from one epoch snapshot.
	res, err := a.QueryKeys(sprofile.KeyedQuery[string]{Summary: true, TopK: 3, Distribution: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary == nil || res.Summary.Total != 100 {
		t.Fatalf("Query summary = %+v, want total 100", res.Summary)
	}
}

// TestAsyncEventualPublish verifies the staleness bound without Flush: an
// enqueued event becomes visible within a few publish intervals.
func TestAsyncEventualPublish(t *testing.T) {
	a, err := sprofile.BuildKeyedAsync[string](16,
		sprofile.AsyncPolicy{PublishInterval: time.Millisecond}, sprofile.WithSharding(2))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Add("k3"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c, _ := a.Count("k3"); c == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("event not published within 5s; stats: %+v", a.Stats())
}

// TestAsyncBackpressureError verifies the fail-fast mode: a full mailbox
// refuses the enqueue with ErrBackpressure, the event is not applied, and
// the drop is counted.
func TestAsyncBackpressureError(t *testing.T) {
	a, err := sprofile.BuildKeyedAsync[int](8, sprofile.AsyncPolicy{
		MailboxDepth:    2,
		PublishInterval: time.Hour, // applier effectively manual
		Backpressure:    sprofile.BackpressureError,
	}, sprofile.WithSharding(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	prod, err := a.Producer()
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	// Saturate: the applier drains concurrently, so push until a rejection.
	sawBackpressure := false
	for i := 0; i < 1_000_000; i++ {
		if err := prod.Add(i % 8); err != nil {
			if !errors.Is(err, sprofile.ErrBackpressure) {
				t.Fatalf("push error = %v, want ErrBackpressure", err)
			}
			sawBackpressure = true
			break
		}
	}
	if !sawBackpressure {
		t.Skip("applier kept up with 1e6 pushes; backpressure not reachable here")
	}
	if st := a.Stats(); st.Drops == 0 {
		t.Fatalf("Stats.Drops = 0 after ErrBackpressure")
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("Flush after backpressure: %v", err)
	}
}

// TestAsyncClosed verifies that a closed plane refuses producers and
// pushes with an ErrReadOnly-classified error while reads keep answering.
func TestAsyncClosed(t *testing.T) {
	a, err := sprofile.BuildKeyedAsync[string](10, asyncTestPolicy(), sprofile.WithSharding(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add("k5"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := a.Add("k1"); !errors.Is(err, sprofile.ErrReadOnly) {
		t.Fatalf("Add after Close = %v, want ErrReadOnly", err)
	}
	if _, err := a.Producer(); !errors.Is(err, sprofile.ErrReadOnly) {
		t.Fatalf("Producer after Close = %v, want ErrReadOnly", err)
	}
	// Close drained and published: the pre-close event is visible.
	if c, _ := a.Count("k5"); c != 1 {
		t.Fatalf("Count(k5) after Close = %d, want 1", c)
	}
}

// TestAsyncDeferredStrictError verifies the deferred-error contract: a
// strict violation surfaces on Flush, not at the enqueueing call, and is
// cleared once reported.
func TestAsyncDeferredStrictError(t *testing.T) {
	a, err := sprofile.BuildKeyedAsync[string](8, asyncTestPolicy(),
		sprofile.WithSharding(2),
		sprofile.WithOptions(sprofile.WithStrictNonNegative()))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// A tracked key sits at zero, so removing it is a strict violation
	// rather than an unknown key.
	if err := a.Track("k3"); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove("k3"); err != nil {
		t.Fatalf("Remove enqueue = %v, want nil (error is deferred)", err)
	}
	if err := a.Flush(); !errors.Is(err, sprofile.ErrNegativeFrequency) {
		t.Fatalf("Flush = %v, want ErrNegativeFrequency", err)
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want nil (error cleared)", err)
	}
}

// TestAsyncDeferredErrorKeepsOtherProducers verifies that a deferred error
// costs only the failing key: producer A's removes of unknown keys share
// each drained batch with producer B's adds, and every acknowledged add
// must still land.
func TestAsyncDeferredErrorKeepsOtherProducers(t *testing.T) {
	a, err := sprofile.BuildKeyedAsync[string](16, asyncTestPolicy(), sprofile.WithSharding(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ghosts, err := a.Producer()
	if err != nil {
		t.Fatal(err)
	}
	defer ghosts.Close()
	adds, err := a.Producer()
	if err != nil {
		t.Fatal(err)
	}
	defer adds.Close()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if err := ghosts.Remove(fmt.Sprintf("ghost%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := adds.Add("hot"); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(); !errors.Is(err, sprofile.ErrUnknownKey) {
			t.Fatalf("round %d: Flush = %v, want ErrUnknownKey", i, err)
		}
	}
	if c, _ := a.Count("hot"); c != rounds {
		t.Fatalf("Count(hot) = %d after %d acknowledged adds", c, rounds)
	}
}

// TestAsyncBuildRejects verifies the config surface: the plane needs a
// keyed profiler, windows cannot be async, and a WAL needs string keys. A
// Synchronized profile is one shard with one stripe, which the plane serves
// like any other.
func TestAsyncBuildRejects(t *testing.T) {
	if _, err := sprofile.NewAsyncKeyed[string](nil, sprofile.AsyncPolicy{}); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("NewAsyncKeyed(nil) = %v, want ErrBuildConfig", err)
	}
	k, err := sprofile.BuildKeyed[string](10, sprofile.Synchronized())
	if err != nil {
		t.Fatal(err)
	}
	if n := writableDense(k).(*sprofile.Sharded).Shards(); n != 1 {
		t.Fatalf("BuildKeyed(Synchronized()) has %d shards, want 1", n)
	}
	ak, err := sprofile.NewAsyncKeyed(k, sprofile.AsyncPolicy{})
	if err != nil {
		t.Fatalf("NewAsyncKeyed(Synchronized) = %v", err)
	}
	if err := ak.Add("a"); err != nil {
		t.Fatal(err)
	}
	if err := ak.Flush(); err != nil {
		t.Fatal(err)
	}
	if c, _ := ak.Count("a"); c != 1 {
		t.Fatalf("Count(a) = %d after a flushed add, want 1", c)
	}
	if err := ak.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sprofile.BuildKeyedAsync[string](10, sprofile.AsyncPolicy{}, sprofile.Windowed(5)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("BuildKeyedAsync(Windowed) = %v, want ErrBuildConfig", err)
	}
	if _, err := sprofile.BuildKeyedAsync[string](10, sprofile.AsyncPolicy{}, sprofile.TimeWindowed(time.Hour)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("BuildKeyedAsync(TimeWindowed) = %v, want ErrBuildConfig", err)
	}
	if _, err := sprofile.BuildKeyedAsync[int](10, sprofile.AsyncPolicy{},
		sprofile.WithWAL(filepath.Join(t.TempDir(), "int.wal"))); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("BuildKeyedAsync[int](WithWAL) = %v, want ErrBuildConfig", err)
	}
}

// TestAsyncKeyedBasics exercises the keyed plane end to end: mixed keys
// across stripes, Flush exactness, deferred unknown-key error, stats.
func TestAsyncKeyedBasics(t *testing.T) {
	ak, err := sprofile.BuildKeyedAsync[string](64, asyncTestPolicy(), sprofile.WithSharding(4))
	if err != nil {
		t.Fatal(err)
	}
	defer ak.Close()
	for i := 0; i < 200; i++ {
		if err := ak.Add(fmt.Sprintf("key-%d", i%20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ak.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := ak.Total(); got != 200 {
		t.Fatalf("Total = %d, want 200", got)
	}
	c, err := ak.Count("key-7")
	if err != nil || c != 10 {
		t.Fatalf("Count(key-7) = %d, %v; want 10, nil", c, err)
	}
	// Unknown-key remove is stream-dependent: enqueue succeeds, Flush
	// reports it.
	if err := ak.Remove("never-seen"); err != nil {
		t.Fatalf("Remove(unknown) enqueue = %v, want nil", err)
	}
	if err := ak.Flush(); !errors.Is(err, sprofile.ErrUnknownKey) {
		t.Fatalf("Flush = %v, want ErrUnknownKey", err)
	}
	res, err := ak.QueryKeys(sprofile.KeyedQuery[string]{
		Summary: true, TopK: 3, Count: []string{"key-0", "absent"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary == nil || res.Summary.Total != 200 {
		t.Fatalf("QueryKeys summary = %+v, want total 200", res.Summary)
	}
	if len(res.Counts) != 2 || res.Counts[0].Frequency != 10 || res.Counts[1].Frequency != 0 {
		t.Fatalf("QueryKeys counts = %+v, want [10, 0]", res.Counts)
	}
	st := ak.Stats()
	if st.Applied != 201 || st.Queued != 0 {
		t.Fatalf("Stats = %+v, want 201 applied, 0 queued", st)
	}
	if st.Epoch == 0 {
		t.Fatal("Stats.Epoch = 0 after flushes")
	}
}

// TestAsyncKeyedCheckpointRoundTrip verifies the keyed one-cut contract:
// Flush then Checkpoint captures exactly the flushed stream, and a reopen
// restores it bit for bit.
func TestAsyncKeyedCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyed-async.wal")
	ak, err := sprofile.BuildKeyedAsync[string](32, asyncTestPolicy(),
		sprofile.WithSharding(2), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i%13)
		if err := ak.Add(key); err != nil {
			t.Fatal(err)
		}
		want[key]++
	}
	if err := ak.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ak.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := ak.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	k2, err := sprofile.BuildKeyed[string](32, sprofile.WithSharding(2), sprofile.WithWAL(path))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer k2.Close()
	for key, w := range want {
		c, err := k2.Count(key)
		if err != nil || c != w {
			t.Fatalf("restored Count(%s) = %d, %v; want %d, nil", key, c, err, w)
		}
	}
	if got := k2.Total(); got != 500 {
		t.Fatalf("restored Total = %d, want 500", got)
	}
}

// TestAsyncProducerOrdering verifies per-producer FIFO: a producer's own
// add/remove sequence for one key is applied in order, so the flushed
// frequency is exact.
func TestAsyncProducerOrdering(t *testing.T) {
	a, err := sprofile.BuildKeyedAsync[string](4, asyncTestPolicy(),
		sprofile.WithSharding(2),
		sprofile.WithOptions(sprofile.WithStrictNonNegative()))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	prod, err := a.Producer()
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	// Strict mode makes any reordering of add-before-remove fatal.
	for i := 0; i < 10_000; i++ {
		if err := prod.Add("k1"); err != nil {
			t.Fatal(err)
		}
		if err := prod.Remove("k1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("Flush = %v (reordering under strict mode?)", err)
	}
	if c, _ := a.Count("k1"); c != 0 {
		t.Fatalf("Count(k1) = %d, want 0", c)
	}
}
