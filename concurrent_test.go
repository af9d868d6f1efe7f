package sprofile_test

import (
	"sync"
	"testing"

	"sprofile"
	"sprofile/internal/stream"
)

// The TestConcurrent* tests run on the single-mutex profile Synchronized
// builds: a one-shard Sharded.

func TestConcurrentBasicOperations(t *testing.T) {
	c := sprofile.MustBuild(8, sprofile.Synchronized())
	c.Add(1)
	c.Add(1)
	c.Remove(2)
	if f, _ := c.Count(1); f != 2 {
		t.Fatalf("Count(1) = %d", f)
	}
	mode, _, err := c.Mode()
	if err != nil {
		t.Fatal(err)
	}
	if mode.Object != 1 || mode.Frequency != 2 {
		t.Fatalf("Mode = %+v", mode)
	}
	if _, _, err := c.Min(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Median(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Quantile(0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.KthLargest(1); err != nil {
		t.Fatal(err)
	}
	if maj, ok, _ := c.Majority(); !ok || maj.Object != 1 {
		t.Fatalf("Majority = %+v ok=%v, want object 1", maj, ok)
	}
	if len(c.TopK(3)) != 3 {
		t.Fatalf("TopK(3) length wrong")
	}
	if len(c.Distribution()) == 0 {
		t.Fatalf("Distribution empty")
	}
	if c.Cap() != 8 || c.Total() != 1 {
		t.Fatalf("Cap=%d Total=%d", c.Cap(), c.Total())
	}
	if c.Summarize().Capacity != 8 {
		t.Fatalf("Summarize capacity wrong")
	}
}

func TestConcurrentInvalidCapacity(t *testing.T) {
	if _, err := sprofile.Build(-1, sprofile.Synchronized()); err == nil {
		t.Fatalf("Build(-1, Synchronized()) succeeded")
	}
}

func TestConcurrentParallelUpdatesAndQueries(t *testing.T) {
	const m = 64
	const workers = 8
	const opsPerWorker = 5000
	c := sprofile.MustBuild(m, sprofile.Synchronized()).(*sprofile.Sharded)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stream.NewRNG(seed)
			for i := 0; i < opsPerWorker; i++ {
				x := rng.Intn(m)
				if rng.Bernoulli(0.7) {
					_ = c.Add(x)
				} else {
					_ = c.Remove(x)
				}
				if i%100 == 0 {
					c.Mode()
					c.Median()
					c.TopK(5)
				}
			}
		}(uint64(w + 1))
	}
	// A concurrent reader taking snapshots while writers are active.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			snap, err := c.Snapshot()
			if err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			if err := snap.CheckInvariants(); err != nil {
				t.Errorf("snapshot invariants: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// After all writers finish, the profile must be internally consistent and
	// its event counters must match the number of operations issued.
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	adds, removes := snap.Events()
	if adds+removes != workers*opsPerWorker {
		t.Fatalf("events %d, want %d", adds+removes, workers*opsPerWorker)
	}
}

func TestConcurrentApplyAllAndWrap(t *testing.T) {
	c := sprofile.MustBuild(4, sprofile.Synchronized())
	tuples := []sprofile.Tuple{
		{Object: 0, Action: sprofile.ActionAdd},
		{Object: 1, Action: sprofile.ActionAdd},
		{Object: 0, Action: sprofile.ActionAdd},
	}
	n, err := c.ApplyAll(tuples)
	if err != nil || n != 3 {
		t.Fatalf("ApplyAll = %d, %v", n, err)
	}
	if err := c.Apply(sprofile.Tuple{Object: 2, Action: sprofile.ActionAdd}); err != nil {
		t.Fatal(err)
	}
	if c.Total() != 4 {
		t.Fatalf("Total = %d, want 4", c.Total())
	}
}
