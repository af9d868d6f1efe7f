package sprofile_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprofile"
)

// stressPolicy gives the stress runs tiny mailboxes, which force the
// block-mode backpressure wait path constantly, and frequent publishes.
var stressPolicy = sprofile.AsyncPolicy{
	MailboxDepth:    8,
	PublishEvents:   64,
	PublishInterval: time.Millisecond,
}

// runAsyncStress drives ak under the race detector: producers spread
// add-only events uniformly over keys (perProducer must be a multiple of
// len(keys)), while two readers verify one-cut invariants on epoch
// snapshots, a flusher interleaves Flush and, if checkpoint is set, a
// checkpointer interleaves Checkpoint. It then flushes and checks the exact
// total, every key's count and Stats, and returns the per-key count.
func runAsyncStress[K comparable](t *testing.T, ak *sprofile.AsyncKeyed[K], keys []K, producers, perProducer int, checkpoint bool) int64 {
	t.Helper()
	var wg sync.WaitGroup
	var readersWg sync.WaitGroup
	stopReaders := make(chan struct{})

	// Readers: every answer must be one consistent cut of SOME epoch — the
	// distribution, the summary and the top entry all agree internally even
	// while ingestion runs full tilt.
	readerErr := make(chan error, 8)
	for r := 0; r < 2; r++ {
		readersWg.Add(1)
		go func() {
			defer readersWg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				res, err := ak.QueryKeys(sprofile.KeyedQuery[K]{Summary: true, Distribution: true, TopK: 1})
				if err != nil {
					readerErr <- fmt.Errorf("QueryKeys: %w", err)
					return
				}
				var distTotal, distMax int64
				for _, fc := range res.Distribution {
					distTotal += fc.Freq * int64(fc.Count)
					distMax = max(distMax, fc.Freq)
				}
				if distTotal != res.Summary.Total {
					readerErr <- fmt.Errorf("torn epoch: distribution sums to %d, summary total %d", distTotal, res.Summary.Total)
					return
				}
				if distMax != res.Summary.MaxFrequency {
					readerErr <- fmt.Errorf("torn epoch: distribution max %d, summary max %d", distMax, res.Summary.MaxFrequency)
					return
				}
				if len(res.TopK) > 0 && res.TopK[0].Frequency != res.Summary.MaxFrequency {
					readerErr <- fmt.Errorf("torn epoch: top-1 frequency %d, summary max %d", res.TopK[0].Frequency, res.Summary.MaxFrequency)
					return
				}
			}
		}()
	}

	// A flusher and a checkpointer, concurrent with everything.
	var flushErrs atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := ak.Flush(); err != nil {
				flushErrs.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	if checkpoint {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := ak.Checkpoint(); err != nil {
					readerErr <- fmt.Errorf("Checkpoint: %w", err)
					return
				}
				time.Sleep(3 * time.Millisecond)
			}
		}()
	}

	// Producers: dedicated handles, add-only, uniform over all keys.
	prodErr := make(chan error, producers)
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h, err := ak.Producer()
			if err != nil {
				prodErr <- err
				return
			}
			defer h.Close()
			for i := 0; i < perProducer; i++ {
				if err := h.Add(keys[(seed*17+i)%len(keys)]); err != nil {
					prodErr <- fmt.Errorf("producer %d event %d: %w", seed, i, err)
					return
				}
			}
		}(pr)
	}

	// Wait for producers, then stop the readers and join everyone.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-readerErr:
		t.Fatal(err)
	case err := <-prodErr:
		t.Fatal(err)
	case <-time.After(120 * time.Second):
		t.Fatalf("stress run wedged; stats: %+v", ak.Stats())
	}
	close(stopReaders)
	readersWg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	if err := ak.Flush(); err != nil {
		t.Fatalf("final Flush: %v", err)
	}
	want := int64(producers * perProducer)
	if got := ak.Total(); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	// Uniform traffic: every key got exactly want/len(keys) adds.
	perKey := want / int64(len(keys))
	for _, key := range keys {
		c, err := ak.Count(key)
		if err != nil || c != perKey {
			t.Fatalf("Count(%v) = %d, %v; want %d, nil", key, c, err, perKey)
		}
	}
	if st := ak.Stats(); st.Applied != uint64(want) || st.Queued != 0 {
		t.Fatalf("Stats = %+v, want %d applied, 0 queued", st, want)
	}
	if flushErrs.Load() != 0 {
		t.Fatalf("%d concurrent flushes returned errors on an add-only stream", flushErrs.Load())
	}
	return perKey
}

// TestAsyncStress runs the plane the way a dense-id caller uses it —
// BuildKeyedAsync[int] without key recycling over ids 0..m-1 — through
// runAsyncStress. An int-keyed profile has no WAL, so there is nothing to
// checkpoint; TestAsyncKeyedStress covers Checkpoint and recovery.
func TestAsyncStress(t *testing.T) {
	const m = 64
	a, err := sprofile.BuildKeyedAsync[int](m, stressPolicy,
		sprofile.WithSharding(4), sprofile.WithoutKeyRecycling())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, m)
	for i := range ids {
		ids[i] = i
	}
	runAsyncStress(t, a, ids, 4, 5_120, false)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestAsyncKeyedStress runs the keyed plane through runAsyncStress with
// string keys, id assignment and recycling bookkeeping live, a WAL and
// Checkpoints taken mid-flight; the log must then rebuild the exact same
// profile.
func TestAsyncKeyedStress(t *testing.T) {
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	path := filepath.Join(t.TempDir(), "keyed-stress.wal")
	ak, err := sprofile.BuildKeyedAsync[string](len(keys), stressPolicy,
		sprofile.WithSharding(4), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	perKey := runAsyncStress(t, ak, keys, 4, 4_000, true)
	if err := ak.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recovery: the WAL (tail + checkpoints taken mid-flight) must rebuild
	// the exact same profile.
	k2, err := sprofile.BuildKeyed[string](len(keys), sprofile.WithSharding(4), sprofile.WithWAL(path))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer k2.Close()
	if got, want := k2.Total(), perKey*int64(len(keys)); got != want {
		t.Fatalf("restored Total = %d, want %d", got, want)
	}
	for _, key := range keys {
		if c, err := k2.Count(key); err != nil || c != perKey {
			t.Fatalf("restored Count(%s) = %d, %v; want %d, nil", key, c, err, perKey)
		}
	}
}

// TestAsyncBackpressureErrorConcurrent verifies the fail-fast mode under
// contention: rejected events are never applied, so the flushed total
// equals successes exactly.
func TestAsyncBackpressureErrorConcurrent(t *testing.T) {
	a, err := sprofile.BuildKeyedAsync[int](16, sprofile.AsyncPolicy{
		MailboxDepth: 4,
		Backpressure: sprofile.BackpressureError,
	}, sprofile.WithSharding(2))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const producers = 3
	var accepted atomic.Int64
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := a.Producer()
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Close()
			for i := 0; i < 20_000; i++ {
				switch err := h.Add(i % 16); {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, sprofile.ErrBackpressure):
					rejected.Add(1)
				default:
					t.Errorf("Add = %v, want nil or ErrBackpressure", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := a.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := a.Total(); got != accepted.Load() {
		t.Fatalf("Total = %d, want %d accepted (%d rejected)", got, accepted.Load(), rejected.Load())
	}
	if st := a.Stats(); st.Drops != uint64(rejected.Load()) {
		t.Fatalf("Stats.Drops = %d, want %d", st.Drops, rejected.Load())
	}
}
