package sprofile_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"sprofile"
	"sprofile/internal/checkpoint"
	"sprofile/internal/wal"
)

func TestBuildKeyedBasics(t *testing.T) {
	k, err := sprofile.BuildKeyed[string](100, sprofile.WithSharding(4))
	if err != nil {
		t.Fatal(err)
	}
	if k.Cap() != 100 || k.Tracked() != 0 || k.Total() != 0 {
		t.Fatalf("fresh profile: cap=%d tracked=%d total=%d", k.Cap(), k.Tracked(), k.Total())
	}
	for i := 0; i < 3; i++ {
		if err := k.Add("alice"); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Add("bob"); err != nil {
		t.Fatal(err)
	}
	if err := k.Remove("bob"); err != nil {
		t.Fatal(err)
	}
	if c, _ := k.Count("alice"); c != 3 {
		t.Fatalf("Count(alice) = %d, want 3", c)
	}
	if c, _ := k.Count("ghost"); c != 0 {
		t.Fatalf("Count(ghost) = %d, want 0", c)
	}
	res, err := k.QueryKeys(sprofile.KeyedQuery[string]{
		Mode: true, Min: true, TopK: 1, BottomK: 1, KthLargest: []int{1}, Majority: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mode := res.Mode; mode.Key != "alice" || mode.Frequency != 3 || mode.Ties != 1 {
		t.Fatalf("Mode = %+v", mode)
	}
	if e := res.KthLargest[0]; e.Frequency != 3 {
		t.Fatalf("KthLargest(1) = %+v", e)
	}
	if top := res.TopK; len(top) != 1 || top[0].Key != "alice" {
		t.Fatalf("TopK = %+v", top)
	}
	if bottom := res.BottomK; len(bottom) != 1 || bottom[0].Frequency != 0 {
		t.Fatalf("BottomK = %+v", bottom)
	}
	if res.Min == nil || res.Majority == nil {
		t.Fatalf("Min = %+v, Majority = %+v", res.Min, res.Majority)
	}
	if k.Tracked() != 2 || k.Total() != 3 {
		t.Fatalf("tracked=%d total=%d", k.Tracked(), k.Total())
	}
	if err := k.Remove("never-added"); !errors.Is(err, sprofile.ErrUnknownKey) {
		t.Fatalf("Remove of unknown key = %v, want ErrUnknownKey", err)
	}
	if err := k.Apply("alice", sprofile.Action(99)); err == nil {
		t.Fatalf("invalid action accepted")
	}
}

func TestBuildKeyedRecycling(t *testing.T) {
	// One shard makes eviction deterministic: the single stripe holds every
	// key, so per-stripe recycling behaves exactly like Keyed's global one.
	k, err := sprofile.BuildKeyed[string](2, sprofile.WithSharding(1))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd := func(key string) {
		t.Helper()
		if err := k.Add(key); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("a")
	mustAdd("b")
	// Full, no idle key: the third key cannot enter.
	if err := k.Add("c"); !errors.Is(err, sprofile.ErrKeyedFull) {
		t.Fatalf("Add at capacity = %v, want ErrKeyedFull", err)
	}
	// Dropping b to zero makes its id recyclable; c then takes it over.
	if err := k.Remove("b"); err != nil {
		t.Fatal(err)
	}
	mustAdd("c")
	if k.Tracked() != 2 {
		t.Fatalf("Tracked after recycle = %d, want 2", k.Tracked())
	}
	if c, _ := k.Count("b"); c != 0 {
		t.Fatalf("Count(b) after eviction = %d, want 0", c)
	}
	if c, _ := k.Count("c"); c != 1 {
		t.Fatalf("Count(c) = %d, want 1", c)
	}
	// b lost its id; adding it back recycles again only if something is idle.
	if err := k.Add("b"); !errors.Is(err, sprofile.ErrKeyedFull) {
		t.Fatalf("Add(b) with no idle ids = %v, want ErrKeyedFull", err)
	}
	// A re-add of an idle key must leave the idle set, not be evicted later.
	if err := k.Remove("a"); err != nil {
		t.Fatal(err)
	}
	mustAdd("a")
	if err := k.Add("d"); !errors.Is(err, sprofile.ErrKeyedFull) {
		t.Fatalf("Add(d) after a's re-add = %v, want ErrKeyedFull (a is busy again)", err)
	}
	if err := k.CheckZeroSets(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildKeyedTrack(t *testing.T) {
	k := sprofile.MustBuildKeyed[string](4, sprofile.WithSharding(1))
	if err := k.Track("idle"); err != nil {
		t.Fatal(err)
	}
	if k.Tracked() != 1 || k.Total() != 0 {
		t.Fatalf("tracked=%d total=%d after Track", k.Tracked(), k.Total())
	}
	// A tracked key is an eviction candidate: fill the rest, then overflow.
	for _, key := range []string{"a", "b", "c"} {
		if err := k.Add(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Add("d"); err != nil {
		t.Fatalf("Add(d) should have evicted the idle tracked key: %v", err)
	}
	if k.Tracked() != 4 {
		t.Fatalf("Tracked = %d, want 4", k.Tracked())
	}
	if c, _ := k.Count("idle"); c != 0 {
		t.Fatalf("Count(idle) = %d", c)
	}
}

func TestBuildKeyedWithoutRecycling(t *testing.T) {
	k, err := sprofile.BuildKeyed[string](2, sprofile.WithSharding(1), sprofile.WithoutKeyRecycling())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Add("a"); err != nil {
		t.Fatal(err)
	}
	// Negative frequencies are allowed without recycling.
	if err := k.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := k.Remove("a"); err != nil {
		t.Fatalf("Remove below zero without recycling = %v, want nil", err)
	}
	if c, _ := k.Count("a"); c != -1 {
		t.Fatalf("Count(a) = %d, want -1", c)
	}
	// No recycling: an idle id is never reclaimed.
	if err := k.Add("b"); err != nil {
		t.Fatal(err)
	}
	if err := k.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := k.Add("c"); !errors.Is(err, sprofile.ErrKeyedFull) {
		t.Fatalf("Add over capacity without recycling = %v, want ErrKeyedFull", err)
	}
}

func TestBuildKeyedConfigErrors(t *testing.T) {
	if _, err := sprofile.BuildKeyed[string](8, sprofile.Windowed(4)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("BuildKeyed with Windowed = %v, want ErrBuildConfig", err)
	}
	if _, err := sprofile.BuildKeyed[string](8, sprofile.WithSharding(0)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("BuildKeyed with zero shards = %v, want ErrBuildConfig", err)
	}
	if _, err := sprofile.Build(8, sprofile.WithoutKeyRecycling()); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("Build with WithoutKeyRecycling = %v, want ErrBuildConfig", err)
	}
}

func TestBuildKeyedWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyed.wal")

	k1, err := sprofile.BuildKeyed[string](16, sprofile.WithSharding(4), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	if k1.Replayed() != 0 {
		t.Fatalf("fresh WAL replayed %d records", k1.Replayed())
	}
	start, _ := k1.WALStats()
	for i := 0; i < 3; i++ {
		if err := k1.Add("x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := k1.Add("y"); err != nil {
		t.Fatal(err)
	}
	if err := k1.Remove("y"); err != nil {
		t.Fatal(err)
	}
	if err := k1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Each per-event write is one single-event record: a 2-byte header plus
	// the key, never a batch record.
	if end, _ := k1.WALStats(); end.Segment != start.Segment || end.Offset-start.Offset != 5*(2+1) {
		t.Fatalf("5 per-event writes moved the log from %+v to %+v, want %d bytes in one segment", start, end, 5*(2+1))
	}
	if err := k1.Close(); err != nil {
		t.Fatal(err)
	}

	k2, err := sprofile.BuildKeyed[string](16, sprofile.WithSharding(4), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if k2.Replayed() != 5 {
		t.Fatalf("replayed %d records, want 5", k2.Replayed())
	}
	if c, _ := k2.Count("x"); c != 3 {
		t.Fatalf("Count(x) after replay = %d, want 3", c)
	}
	if c, _ := k2.Count("y"); c != 0 {
		t.Fatalf("Count(y) after replay = %d, want 0", c)
	}
}

// TestBuildKeyedWALRejectsUnjournalableKeys: with a WAL, every keyed write
// refuses a key the log cannot record before applying anything, so memory
// and the log never disagree about it and a restart shows the same state.
func TestBuildKeyedWALRejectsUnjournalableKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	k, err := sprofile.BuildKeyed[string](8, sprofile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Add("kept"); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("k", wal.MaxKeyLen+1)
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{`Add("")`, func() error { return k.Add("") }},
		{`Remove("")`, func() error { return k.Remove("") }},
		{`Apply("", ActionAdd)`, func() error { return k.Apply("", sprofile.ActionAdd) }},
		{"Add(MaxKeyLen+1)", func() error { return k.Add(long) }},
	} {
		if err := w.write(); !errors.Is(err, sprofile.ErrOutOfRange) || errors.Is(err, sprofile.ErrWALAppend) {
			t.Errorf("%s = %v, want ErrOutOfRange before anything is applied", w.name, err)
		}
	}
	check := func(k *sprofile.KeyedConcurrent[string], when string) {
		t.Helper()
		for key, want := range map[string]int64{"": 0, long: 0, "kept": 1} {
			if got, _ := k.Count(key); got != want {
				t.Errorf("%s: Count(%.8q) = %d, want %d", when, key, got, want)
			}
		}
		if k.Tracked() != 1 || k.Total() != 1 {
			t.Errorf("%s: tracked=%d total=%d, want 1 and 1", when, k.Tracked(), k.Total())
		}
	}
	check(k, "before reopen")
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k2, err := sprofile.BuildKeyed[string](8, sprofile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	check(k2, "after reopen")
}

// TestBuildKeyedWALReplayWithEviction pins down replay determinism: stripe
// assignment is seeded per process, so a log whose writing run recycled ids
// at capacity cannot rely on the same per-stripe eviction decisions when it
// is replayed. Replay must fall back to evicting an idle key from any
// stripe, so a server always restarts from a log it wrote itself. The WAL is
// written directly and the build repeated, covering many hash layouts.
func TestBuildKeyedWALReplayWithEviction(t *testing.T) {
	dir := t.TempDir()
	records := []wal.Record{
		{Key: "a", Action: sprofile.ActionAdd},
		{Key: "b", Action: sprofile.ActionAdd},
		{Key: "a", Action: sprofile.ActionRemove},
		// At capacity 2 this add must evict the idle "a", wherever "c" and
		// "a" hash.
		{Key: "c", Action: sprofile.ActionAdd},
		{Key: "c", Action: sprofile.ActionRemove},
		// And "a" must be able to come back after "c" goes idle.
		{Key: "a", Action: sprofile.ActionAdd},
	}
	for round := 0; round < 20; round++ {
		path := filepath.Join(dir, fmt.Sprintf("evict-%d.wal", round))
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		log, err := wal.OpenDir(path, wal.Options{}, nil, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range records {
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		k, err := sprofile.BuildKeyed[string](2, sprofile.WithSharding(2), sprofile.WithWAL(path))
		if err != nil {
			t.Fatalf("round %d: replay failed: %v", round, err)
		}
		if k.Replayed() != len(records) {
			t.Fatalf("round %d: replayed %d records, want %d", round, k.Replayed(), len(records))
		}
		if c, _ := k.Count("a"); c != 1 {
			t.Fatalf("round %d: Count(a) = %d, want 1", round, c)
		}
		if c, _ := k.Count("b"); c != 1 {
			t.Fatalf("round %d: Count(b) = %d, want 1", round, c)
		}
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildKeyedWALSyncEvery drives the WithWALSyncEvery path: records must
// reach stable storage without an explicit Sync once the threshold passes.
func TestBuildKeyedWALSyncEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syncevery.wal")
	k, err := sprofile.BuildKeyed[string](8, sprofile.WithSharding(2),
		sprofile.WithWAL(path), sprofile.WithWALSyncEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := k.Add(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Without Close or Sync, at least the first 4 records (two threshold
	// crossings) are already durable; replay through a second build sees
	// them even though the first handle is still open.
	replayed := 0
	if _, err := wal.ReplayDir(path, func(wal.Record) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed < 4 {
		t.Fatalf("replayed %d records before close, want >= 4", replayed)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKeyedConcurrentExactCounts has goroutines ingest disjoint key sets and
// verifies every frequency afterwards: with no contention on keys, the
// striped pipeline must lose or double-count nothing.
func TestKeyedConcurrentExactCounts(t *testing.T) {
	const workers = 8
	const keysPerWorker = 50
	k := sprofile.MustBuildKeyed[string](workers*keysPerWorker, sprofile.WithSharding(8))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPerWorker; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				// Key i gets i+1 net adds, with some add/remove churn mixed in.
				for c := 0; c <= i; c++ {
					if err := k.Add(key); err != nil {
						t.Error(err)
						return
					}
				}
				if err := k.Add(key); err != nil {
					t.Error(err)
					return
				}
				if err := k.Remove(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var wantTotal int64
	for w := 0; w < workers; w++ {
		for i := 0; i < keysPerWorker; i++ {
			key := fmt.Sprintf("w%d-k%d", w, i)
			got, err := k.Count(key)
			if err != nil {
				t.Fatal(err)
			}
			if got != int64(i+1) {
				t.Fatalf("Count(%s) = %d, want %d", key, got, i+1)
			}
			wantTotal += int64(i + 1)
		}
	}
	if k.Total() != wantTotal {
		t.Fatalf("Total = %d, want %d", k.Total(), wantTotal)
	}
	if k.Tracked() != workers*keysPerWorker {
		t.Fatalf("Tracked = %d, want %d", k.Tracked(), workers*keysPerWorker)
	}
}

// TestKeyedConcurrentChurnStress forces recycling collisions: many goroutines
// add/remove/query over a key pool far larger than the capacity, so ids are
// constantly evicted and reacquired. Run with -race this is the conformance
// test for the striped eviction protocol.
func TestKeyedConcurrentChurnStress(t *testing.T) {
	const capacity = 16
	const workers = 8
	const iters = 3000
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			k := sprofile.MustBuildKeyed[string](capacity, sprofile.WithSharding(shards))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						key := fmt.Sprintf("key-%d", (w*31+i*7)%(capacity*4))
						err := k.Add(key)
						if errors.Is(err, sprofile.ErrKeyedFull) {
							// The key's stripe had no idle id; legal under
							// per-stripe recycling.
							continue
						}
						if err != nil {
							t.Error(err)
							return
						}
						switch i % 5 {
						case 0:
							if _, err := k.Count(key); err != nil {
								t.Error(err)
								return
							}
						case 1:
							if _, err := k.QueryKeys(sprofile.KeyedQuery[string]{Mode: true}); err != nil {
								t.Error(err)
								return
							}
						case 2:
							if _, err := k.QueryKeys(sprofile.KeyedQuery[string]{TopK: 3}); err != nil {
								t.Error(err)
								return
							}
						case 3:
							if _, err := k.QueryKeys(sprofile.KeyedQuery[string]{Distribution: true}); err != nil {
								t.Error(err)
								return
							}
						case 4:
							if err := k.Track(fmt.Sprintf("tracked-%d-%d", w, i%8)); err != nil && !errors.Is(err, sprofile.ErrKeyedFull) {
								t.Error(err)
								return
							}
						}
						// Every successful add is paired with a remove, so the
						// stream nets to zero.
						if err := k.Remove(key); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if err := k.CheckZeroSets(); err != nil {
				t.Fatal(err)
			}
			if k.Total() != 0 {
				t.Fatalf("Total after paired churn = %d, want 0", k.Total())
			}
			if k.Tracked() > capacity {
				t.Fatalf("Tracked = %d > capacity %d", k.Tracked(), capacity)
			}
			sum := keyedSummary(t, k)
			if sum.Negative != 0 {
				t.Fatalf("strict profile reports %d negative frequencies", sum.Negative)
			}
			// All surviving keys are idle; capacity many fresh keys must fit
			// (each stripe recycles its own idle ids).
			freed := 0
			for i := 0; i < capacity*4 && freed < capacity; i++ {
				if err := k.Add(fmt.Sprintf("fresh-%d", i)); err == nil {
					freed++
				}
			}
			if freed < capacity/2 {
				t.Fatalf("only %d fresh keys fit after churn", freed)
			}
			if err := k.CheckZeroSets(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBuildKeyedRejectsDuplicateSnapshotKeys: a checksum-valid keyed
// snapshot that lists one key twice is not the image of any profile, so
// recovery must refuse it rather than merge the entries.
func TestBuildKeyedRejectsDuplicateSnapshotKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReplayTail(func(wal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(func() (*checkpoint.State, uint64, error) {
		sealed, err := store.Rotate()
		st := &checkpoint.State{Capacity: 8, Adds: 1}
		st.Append([]byte("a"), 1)
		st.Append([]byte("a"), 1)
		return st, sealed, err
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	k, err := sprofile.BuildKeyed[string](8, sprofile.WithSharding(2), sprofile.WithWAL(dir))
	if err == nil {
		n, _ := k.Count("a")
		k.Close()
		t.Fatalf("BuildKeyed restored a snapshot listing key a twice (Count(a) = %d)", n)
	}
	if !errors.Is(err, sprofile.ErrBadSnapshot) {
		t.Fatalf("BuildKeyed = %v, want ErrBadSnapshot", err)
	}
}

// TestKeyedRestoreRebuildsIdleKeys: keys a snapshot holds at frequency
// zero must come back as eviction candidates, so a restored profile at
// capacity can still admit a new key.
func TestKeyedRestoreRebuildsIdleKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := []sprofile.BuildOption{sprofile.WithSharding(1), sprofile.WithWAL(dir)}
	k1, err := sprofile.BuildKeyed[string](3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return k1.Add("a") },
		func() error { return k1.Add("b") },
		func() error { return k1.Remove("b") },
		func() error { return k1.Track("c") },
		k1.Checkpoint,
		k1.Close,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	k2, err := sprofile.BuildKeyed[string](3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if err := k2.CheckZeroSets(); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	if err := k2.Dense().CheckInvariants(); err != nil {
		t.Fatalf("dense profile after restore: %v", err)
	}
	if err := k2.Add("d"); err != nil {
		t.Fatalf("Add at capacity with idle keys restored: %v", err)
	}
	if n, _ := k2.Count("a"); n != 1 || k2.Tracked() != 3 {
		t.Fatalf("after recycling: Count(a) = %d, tracked %d", n, k2.Tracked())
	}
}

// TestKeyedRestoreLoadsStripesConcurrently: restore loads the stripes of a
// snapshot at once. A full 4-stripe profile whose every fourth key is at
// frequency zero must come back with each key at its count and the same
// summary, with every stripe's idle list rebuilt and every shard's
// invariants intact (a full profile's stripes borrow ids from each other's
// ranges), and must then admit new keys by evicting idle ones.
func TestKeyedRestoreLoadsStripesConcurrently(t *testing.T) {
	const capacity = 4096
	dir := filepath.Join(t.TempDir(), "wal")
	opts := []sprofile.BuildOption{sprofile.WithSharding(4), sprofile.WithWAL(dir)}
	k1, err := sprofile.BuildKeyed[string](capacity, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int64, capacity)
	var batch []sprofile.KeyedTuple[string]
	for i := range capacity {
		key := fmt.Sprintf("key-%d", i)
		want[key] = int64(i % 4)
		if i%4 == 0 {
			if err := k1.Track(key); err != nil {
				t.Fatal(err)
			}
		}
		for range i % 4 {
			batch = append(batch, sprofile.KeyedTuple[string]{Key: key, Action: sprofile.ActionAdd})
		}
	}
	if _, err := k1.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	sum := keyedSummary(t, k1)
	if err := k1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := k1.Close(); err != nil {
		t.Fatal(err)
	}

	k2, err := sprofile.BuildKeyed[string](capacity, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if got := k2.Recovery().SnapshotObjects; got != capacity || k2.Tracked() != capacity {
		t.Fatalf("restored %d snapshot keys, tracking %d, want %d", got, k2.Tracked(), capacity)
	}
	for key, n := range want {
		if got, err := k2.Count(key); err != nil || got != n {
			t.Fatalf("Count(%s) = (%d, %v), want %d", key, got, err, n)
		}
	}
	if got := keyedSummary(t, k2); got != sum {
		t.Fatalf("Summarize = %+v, want %+v", got, sum)
	}
	if err := k2.CheckZeroSets(); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	if err := k2.Dense().CheckInvariants(); err != nil {
		t.Fatalf("dense profile after restore: %v", err)
	}
	for i := range capacity / 8 {
		if err := k2.Add(fmt.Sprintf("new-%d", i)); err != nil {
			t.Fatalf("Add of new key %d at capacity: %v", i, err)
		}
	}
	if err := k2.CheckZeroSets(); err != nil {
		t.Fatalf("after evicting: %v", err)
	}
}

// TestIdleSetAllocation: a key going idle costs a slot on its stripe's
// idle list, not a copy of the key. 100k keys are added to a 1<<20-key
// profile and then each is removed through a freshly allocated copy of its
// string, as a decoded request would send it. The removes, copies included
// (16 B each), must allocate under 4 MiB in all; keeping each idle key in a
// per-stripe map and slice allocates about 17 MB here and keeps the copies.
func TestIdleSetAllocation(t *testing.T) {
	const capacity, n, limit = 1 << 20, 100_000, 4 << 20
	k := sprofile.MustBuildKeyed[string](capacity, sprofile.WithSharding(2))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := k.Add(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, key := range keys {
		if err := k.Remove(strings.Clone(key)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if allocated >= limit {
		t.Errorf("removing %d keys allocated %d bytes (%d retained after GC), want < %d", n, allocated, retained, limit)
	} else {
		t.Logf("removing %d keys allocated %d bytes, %d retained after GC", n, allocated, retained)
	}
	if k.Total() != 0 || k.Tracked() != n {
		t.Fatalf("after the removes: total %d, tracked %d, want 0 and %d", k.Total(), k.Tracked(), n)
	}
}

// TestKeyedIndexFollowsKeys pins that a restored keyed profile's id-map
// index holds the slots its keys need, not the next power of two: 100k
// keys at capacity 1<<20 on two shards, restored from a checkpoint, keep
// the stripes' summed index within 8 bytes for each of ⌈4n/3⌉ slots plus
// 16 for rounding, about 1.07 MB, where power-of-two tables take 2 MiB.
func TestKeyedIndexFollowsKeys(t *testing.T) {
	const capacity, n = 1 << 20, 100_000
	dir := filepath.Join(t.TempDir(), "wal")
	durable := sprofile.MustBuildKeyed[string](capacity, sprofile.WithSharding(2), sprofile.WithWAL(dir))
	batch := make([]sprofile.KeyedTuple[string], n)
	for i := range batch {
		batch[i] = sprofile.KeyedTuple[string]{Key: fmt.Sprintf("key-%d", i), Action: sprofile.ActionAdd}
	}
	if _, err := durable.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	restored := sprofile.MustBuildKeyed[string](capacity, sprofile.WithSharding(2), sprofile.WithWAL(dir))
	defer restored.Close()
	if got := restored.Recovery().SnapshotObjects; got != n {
		t.Fatalf("restored %d snapshot keys, want %d", got, n)
	}
	if got, limit := restored.IndexBytes(), 8*((4*n+2)/3+16); got > limit {
		t.Errorf("the stripes' indexes hold %d bytes for %d restored keys, want at most %d", got, n, limit)
	}
	res, err := restored.QueryKeys(sprofile.KeyedQuery[string]{Count: []string{"key-0", fmt.Sprintf("key-%d", n-1)}, Summary: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0].Frequency != 1 || res.Counts[1].Frequency != 1 || res.Summary.Active != n {
		t.Fatalf("counts %v, summary %+v", res.Counts, *res.Summary)
	}
}

// TestKeyedDenseFollowsKeys pins that a keyed profile's dense shards hold
// memory for the ids in use, not for the capacity: 1,000 keys at capacity
// 1<<20 on two shards, built by adds and then restored from a checkpoint,
// keep the shards' summed footprint under 1 MiB, where materialising every
// slot takes 12 MiB, and so does the single-goroutine Keyed of NewKeyed.
func TestKeyedDenseFollowsKeys(t *testing.T) {
	const capacity, n, limit = 1 << 20, 1000, 1 << 20
	dir := filepath.Join(t.TempDir(), "wal")
	built := sprofile.MustBuildKeyed[string](capacity, sprofile.WithSharding(2))
	durable := sprofile.MustBuildKeyed[string](capacity, sprofile.WithSharding(2), sprofile.WithWAL(dir))
	batch := make([]sprofile.KeyedTuple[string], 0, 2*n)
	for i := range n {
		for range 1 + i%2 {
			batch = append(batch, sprofile.KeyedTuple[string]{Key: fmt.Sprintf("key-%d", i), Action: sprofile.ActionAdd})
		}
	}
	for _, k := range []*sprofile.KeyedConcurrent[string]{built, durable} {
		if _, err := k.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	restored := sprofile.MustBuildKeyed[string](capacity, sprofile.WithSharding(2), sprofile.WithWAL(dir))
	defer restored.Close()
	if got := restored.Recovery().SnapshotObjects; got != n {
		t.Fatalf("restored %d snapshot keys, want %d", got, n)
	}
	for name, k := range map[string]*sprofile.KeyedConcurrent[string]{"built": built, "restored": restored} {
		if got := k.Dense().MemoryFootprint(); got >= limit {
			t.Errorf("%s: the shards hold %d bytes for %d keys at capacity %d, want < %d", name, got, n, capacity, limit)
		}
		if err := k.Dense().CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := k.QueryKeys(sprofile.KeyedQuery[string]{Count: []string{"key-0", "key-1"}, Summary: true})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Summary
		if res.Counts[0].Frequency != 1 || res.Counts[1].Frequency != 2 || s.Total != 3*n/2 || s.Active != n || s.Capacity != capacity {
			t.Fatalf("%s: counts %v, summary %+v", name, res.Counts, *s)
		}
	}

	single := sprofile.MustNewKeyed[string](capacity)
	for _, e := range batch {
		if err := single.Add(e.Key); err != nil {
			t.Fatal(err)
		}
	}
	if got := single.DenseFootprint(); got >= limit {
		t.Errorf("NewKeyed: the profile holds %d bytes for %d keys at capacity %d, want < %d", got, n, capacity, limit)
	}
	res, err := single.QueryKeys(sprofile.KeyedQuery[string]{Count: []string{"key-0", "key-1"}, Summary: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Summary; res.Counts[0].Frequency != 1 || res.Counts[1].Frequency != 2 || s.Total != 3*n/2 || s.Active != n || s.Capacity != capacity {
		t.Fatalf("NewKeyed: counts %v, summary %+v", res.Counts, *s)
	}
}

// TestKeyedRestoresLongKey: a 300-byte key, past the length where
// maphash.Comparable and maphash.String part ways, survives a checkpoint
// and restore. Restore hashes the snapshot's bytes and Count and Add hash
// the string, so both must find the one id: Count reads its frequency, and
// Add moves it without tracking a second key.
func TestKeyedRestoresLongKey(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	key := strings.Repeat("https://example.com/", 15)
	k := sprofile.MustBuildKeyed[string](64, sprofile.WithSharding(2), sprofile.WithWAL(dir))
	for range 3 {
		if err := k.Add(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	restored := sprofile.MustBuildKeyed[string](64, sprofile.WithSharding(2), sprofile.WithWAL(dir))
	defer restored.Close()
	if got := restored.Recovery().SnapshotObjects; got != 1 {
		t.Fatalf("restored %d snapshot keys, want 1", got)
	}
	if f, err := restored.Count(key); err != nil || f != 3 {
		t.Fatalf("Count of the %d-byte key after restore = (%d, %v), want 3", len(key), f, err)
	}
	if err := restored.Add(key); err != nil {
		t.Fatal(err)
	}
	if f, _ := restored.Count(key); f != 4 || restored.Tracked() != 1 {
		t.Fatalf("after Add: Count %d, tracked %d, want 4 and 1", f, restored.Tracked())
	}
}

// TestBuildKeyedKeysOfAnyLength: without a WAL a keyed profile takes keys
// of any length, the empty key and one of 2 MiB (past the log's record
// limit) included, and hands each back intact from its id map's pages
// through Count, QueryKeys and Entries; evicting the long key leaves its
// bytes dead, which compacts its range, and the other keys keep their
// counts.
func TestBuildKeyedKeysOfAnyLength(t *testing.T) {
	keys := []string{"", "k0000001", strings.Repeat("u", 300), strings.Repeat("m", 2<<20)}
	k := sprofile.MustBuildKeyed[string](len(keys), sprofile.WithSharding(1))
	for i, key := range keys {
		for range i + 1 {
			if err := k.Add(key); err != nil {
				t.Fatalf("Add of the %d-byte key: %v", len(key), err)
			}
		}
	}
	check := func(keys []string, counts []int64) {
		t.Helper()
		res, err := k.QueryKeys(sprofile.KeyedQuery[string]{TopK: len(keys), Count: keys})
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range keys {
			if got := res.Counts[i].Frequency; got != counts[i] {
				t.Fatalf("QueryKeys count of the %d-byte key = %d, want %d", len(key), got, counts[i])
			}
			if f, err := k.Count(key); err != nil || f != counts[i] {
				t.Fatalf("Count of the %d-byte key = (%d, %v), want %d", len(key), f, err, counts[i])
			}
		}
		byKey := make(map[string]int64)
		for _, e := range res.TopK {
			byKey[e.Key] = e.Frequency
		}
		entries, err := k.Entries()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Frequency > 0 && byKey[e.Key] != e.Frequency {
				t.Fatalf("Entries lists the %d-byte key at %d, TopK at %d", len(e.Key), e.Frequency, byKey[e.Key])
			}
		}
		if len(byKey) != len(keys) || len(entries) != len(keys) {
			t.Fatalf("TopK holds %d keys and Entries %d, want %d", len(byKey), len(entries), len(keys))
		}
	}
	check(keys, []int64{1, 2, 3, 4})
	long := keys[3]
	for range 4 {
		if err := k.Remove(long); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Add("evicts the long key"); err != nil {
		t.Fatal(err)
	}
	keys[3] = "evicts the long key"
	check(keys, []int64{1, 2, 3, 1})
	if f, _ := k.Count(long); f != 0 || k.Tracked() != len(keys) {
		t.Fatalf("the evicted key counts %d, %d keys tracked", f, k.Tracked())
	}
}

// TestKeyedRestoreAllocations pins what the id map's pages remove from a
// cold start: restoring 50,000 keys from a snapshot through BuildKeyed and
// WithWAL makes fewer than one allocation per ten keys, where a string per
// key made one each.
func TestKeyedRestoreAllocations(t *testing.T) {
	const n = 50_000
	dir := filepath.Join(t.TempDir(), "wal")
	k := sprofile.MustBuildKeyed[string](1<<17, sprofile.WithSharding(2), sprofile.WithWAL(dir))
	batch := make([]sprofile.KeyedTuple[string], n)
	for i := range batch {
		batch[i] = sprofile.KeyedTuple[string]{Key: fmt.Sprintf("object-%08d", i), Action: sprofile.ActionAdd}
	}
	if _, err := k.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	var restored *sprofile.KeyedConcurrent[string]
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if restored, err = sprofile.BuildKeyed[string](1<<17, sprofile.WithSharding(2), sprofile.WithWAL(dir)); err != nil {
			t.Fatal(err)
		}
		if err := restored.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if got := restored.Recovery().SnapshotObjects; got != n {
		t.Fatalf("restored %d snapshot keys, want %d", got, n)
	}
	if allocs >= n/10 {
		t.Fatalf("restoring %d keys made %.0f allocations, want fewer than %d", n, allocs, n/10)
	}
	t.Logf("restoring %d keys made %.0f allocations", n, allocs)
}

// TestCheckpointAllocationsFlat pins that a checkpoint's capture and encode
// make as many allocations at 50,000 keys as at 10,000: the keys are copied
// from the id map's pages into one byte run sized up front, not a string
// each. The collector is off while it counts, so a cycle that empties a
// sync.Pool cannot add allocations to one side, and each side counts its
// fewest over five checkpoints, since anything else running in the process
// can only add to a count. The sides may still differ by a few: under the
// race detector the checkpoint's file-system calls made 85 to 89 at either
// size. A string per key would add 40,000, and the three slices of the
// byte run grown by appending instead of sized up front about 20.
func TestCheckpointAllocationsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(n int) float64 {
		k := sprofile.MustBuildKeyed[string](1<<17, sprofile.WithSharding(2), sprofile.WithWAL(filepath.Join(t.TempDir(), "wal")))
		defer k.Close()
		batch := make([]sprofile.KeyedTuple[string], n)
		for i := range batch {
			batch[i] = sprofile.KeyedTuple[string]{Key: fmt.Sprintf("object-%08d", i), Action: sprofile.ActionAdd}
		}
		if _, err := k.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		fewest := math.Inf(1)
		for range 5 {
			fewest = min(fewest, testing.AllocsPerRun(1, func() {
				if err := k.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return fewest
	}
	small, large := count(10_000), count(50_000)
	if large > small+4 {
		t.Fatalf("a checkpoint made %.0f allocations at 10,000 keys and %.0f at 50,000, want at most 4 more", small, large)
	}
	t.Logf("a checkpoint made %.0f allocations at 10,000 keys and %.0f at 50,000", small, large)
}

// TestKeyedCheckpointRoundTrip is the checkpoint round trip for the keyed
// pipeline, with forced key recycling in the history: snapshot → restore must
// preserve every query and the key↔dense-id mapping even though dense ids are
// reassigned on restore. WithSharding(1) makes eviction deterministic (one
// stripe owns every key), so the recycled history is identical on every run.
func TestKeyedCheckpointRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := []sprofile.BuildOption{sprofile.WithSharding(1), sprofile.WithWAL(dir)}

	k1, err := sprofile.BuildKeyed[string](3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "a", "b", "c"} {
		if err := k1.Add(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := k1.Remove("b"); err != nil {
		t.Fatal(err)
	}
	// The profile is full and "b" is idle: this add must recycle b's id.
	if err := k1.Add("d"); err != nil {
		t.Fatal(err)
	}
	if err := k1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail events on top of the snapshot.
	for _, ev := range []struct {
		key string
		act sprofile.Action
	}{{"d", sprofile.ActionAdd}, {"a", sprofile.ActionRemove}, {"c", sprofile.ActionAdd}} {
		if err := k1.Apply(ev.key, ev.act); err != nil {
			t.Fatal(err)
		}
	}
	if err := k1.Close(); err != nil {
		t.Fatal(err)
	}

	k2, err := sprofile.BuildKeyed[string](3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if k2.Replayed() != 3 {
		t.Fatalf("Replayed = %d, want 3 (only the tail)", k2.Replayed())
	}
	rec := k2.Recovery()
	if rec.SnapshotSeq != 1 || rec.SnapshotObjects != 3 || rec.SnapshotEvents != 6 || rec.TailRecords != 3 {
		t.Fatalf("Recovery = %+v, want snapshot 1 with 3 keys / 6 events plus 3 tail records", rec)
	}
	// Final state: a=1, c=2, d=2; b recycled away.
	for _, c := range []struct {
		key  string
		want int64
	}{{"a", 1}, {"b", 0}, {"c", 2}, {"d", 2}} {
		got, err := k2.Count(c.key)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("recovered Count(%s) = %d, want %d", c.key, got, c.want)
		}
	}
	if got := k2.Tracked(); got != 3 {
		t.Errorf("Tracked = %d, want 3", got)
	}
	if got := k2.Total(); got != 5 {
		t.Errorf("Total = %d, want 5", got)
	}
	res, err := k2.QueryKeys(sprofile.KeyedQuery[string]{
		Mode: true, TopK: 2, Median: true, Quantiles: []float64{0}, Summary: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mode := res.Mode; mode.Frequency != 2 || mode.Ties != 2 {
		t.Errorf("Mode = %+v, want frequency 2 with 2 ties", mode)
	}
	if top := res.TopK; len(top) != 2 || top[0].Frequency != 2 || top[1].Frequency != 2 {
		t.Errorf("TopK(2) = %+v, want two frequency-2 entries", top)
	}
	if med := res.Median; med.Frequency != 2 {
		t.Errorf("Median = %+v, want frequency 2", med)
	}
	if q := res.Quantiles[0]; q.Frequency != 1 {
		t.Errorf("Quantile(0) = %+v, want frequency 1", q)
	}
	if sum := res.Summary; sum.Adds != 7 || sum.Removes != 2 {
		t.Errorf("Summarize adds/removes = %d/%d, want 7/2 (historical counters preserved)", sum.Adds, sum.Removes)
	}

	// The restored mapping must keep working: recycling still sound.
	if err := k2.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := k2.Add("e"); err != nil { // evicts the now-idle a
		t.Fatal(err)
	}
	if got, _ := k2.Count("e"); got != 1 {
		t.Errorf("Count(e) after post-restore recycling = %d, want 1", got)
	}

	// Second generation: checkpoint the restored profile and recover again.
	if err := k2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := k2.Close(); err != nil {
		t.Fatal(err)
	}
	k3, err := sprofile.BuildKeyed[string](3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer k3.Close()
	if k3.Replayed() != 0 {
		t.Fatalf("second-generation Replayed = %d, want 0 (checkpoint covered everything)", k3.Replayed())
	}
	if got := k3.Total(); got != 5 {
		t.Errorf("second-generation Total = %d, want 5", got)
	}
	if got, _ := k3.Count("e"); got != 1 {
		t.Errorf("second-generation Count(e) = %d, want 1", got)
	}
}

// TestKeyedCheckpointBytesTrigger drives the size-based background trigger:
// once the tail outgrows EveryBytes, a checkpoint must happen on its own and
// truncate the log.
func TestKeyedCheckpointBytesTrigger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	k, err := sprofile.BuildKeyed[string](64,
		sprofile.WithSharding(2),
		sprofile.WithWAL(dir),
		sprofile.WithCheckpoints(sprofile.CheckpointPolicy{EveryBytes: 256}))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	for i := 0; i < 64; i++ {
		if err := k.Add(fmt.Sprintf("object-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Sync(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := k.CheckpointError(); err != nil {
			t.Fatalf("background checkpoint failed: %v", err)
		}
		segs, err := wal.ListSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		// A background checkpoint happened once the original segment 1 is
		// gone (rotated past and then covered by a snapshot).
		if len(segs) > 0 && segs[0].ID > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint after 5s; segments: %+v", segs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The truncated log plus the snapshot must still recover everything.
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k2, err := sprofile.BuildKeyed[string](64, sprofile.WithSharding(2), sprofile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if got := k2.Total(); got != 64 {
		t.Fatalf("recovered Total = %d, want 64", got)
	}
	if k2.Recovery().SnapshotSeq == 0 {
		t.Fatalf("recovery loaded no snapshot: %+v", k2.Recovery())
	}
}

// TestKeyedCheckpointUnderConcurrentIngest checkpoints repeatedly while
// producers ingest and sync: the quiesce barrier, the log rotation and the
// group-commit fsync must compose without races or lost events, and the
// final recovery must account for every applied add.
func TestKeyedCheckpointUnderConcurrentIngest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	const workers = 4
	const perWorker = 200
	k, err := sprofile.BuildKeyed[string](workers*perWorker,
		sprofile.WithSharding(4), sprofile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := k.Add(fmt.Sprintf("w%d-%d", w, i)); err != nil {
					t.Error(err)
					return
				}
				if i%32 == 0 {
					if err := k.Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := k.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	k2, err := sprofile.BuildKeyed[string](workers*perWorker,
		sprofile.WithSharding(4), sprofile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if got := k2.Total(); got != workers*perWorker {
		t.Fatalf("recovered Total = %d, want %d", got, workers*perWorker)
	}
	if k2.Replayed() != 0 {
		t.Fatalf("final checkpoint left %d records to replay", k2.Replayed())
	}
}
