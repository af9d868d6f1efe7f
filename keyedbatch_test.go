package sprofile_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"sprofile"
)

// TestBuildKeyedSingleCoreDefaultsToOneStripe pins the adaptive default:
// with GOMAXPROCS=1 and Shards unset, BuildKeyed must pick a single
// shard/stripe so single-core ingest does not pay the striping overhead.
func TestBuildKeyedSingleCoreDefaultsToOneStripe(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	k := sprofile.MustBuildKeyed[string](100)
	if got := k.Dense().Shards(); got != 1 {
		t.Fatalf("GOMAXPROCS=1 host got %d shards, want 1", got)
	}
	// An explicit WithSharding always wins over the adaptive default.
	k4 := sprofile.MustBuildKeyed[string](100, sprofile.WithSharding(4))
	if got := k4.Dense().Shards(); got != 4 {
		t.Fatalf("explicit sharding got %d shards, want 4", got)
	}
}

// randKeyedEvents draws n events over pool keys. When strictSafe is set a
// key is only removed while its running count is positive, so per-event and
// batched application agree even under strict non-negativity; otherwise a
// key may go negative, but its first-ever event is still an add (the
// per-event path rejects removes of unknown keys).
func randKeyedEvents(rng *rand.Rand, pool []string, n int, strictSafe bool, seen map[string]bool) []sprofile.KeyedTuple[string] {
	counts := map[string]int{}
	out := make([]sprofile.KeyedTuple[string], 0, n)
	for len(out) < n {
		key := pool[rng.Intn(len(pool))]
		removable := seen[key]
		if strictSafe {
			removable = counts[key] > 0
		}
		if rng.Intn(2) == 0 || !removable {
			counts[key]++
			seen[key] = true
			out = append(out, sprofile.KeyedTuple[string]{Key: key, Action: sprofile.ActionAdd})
		} else {
			counts[key]--
			out = append(out, sprofile.KeyedTuple[string]{Key: key, Action: sprofile.ActionRemove})
		}
	}
	return out
}

// TestKeyedApplyBatchMatchesPerEvent drives the same random event stream
// through ApplyBatch and through per-event Apply and requires identical
// per-key counts, counters and tracked sets.
func TestKeyedApplyBatchMatchesPerEvent(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, recycle := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d,recycle=%v", shards, recycle), func(t *testing.T) {
				testKeyedBatchEquivalence(t, shards, recycle)
			})
		}
	}
}

func testKeyedBatchEquivalence(t *testing.T, shards int, recycle bool) {
	pool := make([]string, 40)
	for i := range pool {
		pool[i] = fmt.Sprintf("key-%03d", i)
	}
	opts := []sprofile.BuildOption{sprofile.WithSharding(shards)}
	if !recycle {
		// Without recycling, frequencies may go negative; the stream only
		// guarantees each key's first-ever event is an add.
		opts = append(opts, sprofile.WithoutKeyRecycling())
	}
	batched := sprofile.MustBuildKeyed[string](64, opts...)
	perEvent := sprofile.MustBuildKeyed[string](64, opts...)
	rng := rand.New(rand.NewSource(42))
	seen := map[string]bool{}
	negativeSeen := false
	for round := 0; round < 30; round++ {
		events := randKeyedEvents(rng, pool, 1+rng.Intn(300), recycle, seen)
		applied, err := batched.ApplyBatch(events)
		if err != nil {
			t.Fatalf("round %d: ApplyBatch: %v", round, err)
		}
		if applied != len(events) {
			t.Fatalf("round %d: applied %d of %d events", round, applied, len(events))
		}
		for _, e := range events {
			if err := perEvent.Apply(e.Key, e.Action); err != nil {
				t.Fatalf("round %d: Apply: %v", round, err)
			}
		}
		for _, key := range pool {
			fb, _ := batched.Count(key)
			fp, _ := perEvent.Count(key)
			if fb != fp {
				t.Fatalf("round %d: key %s at %d batched vs %d per-event", round, key, fb, fp)
			}
			if fb < 0 {
				negativeSeen = true
			}
		}
		sb, sp := keyedSummary(t, batched), keyedSummary(t, perEvent)
		if sb != sp {
			t.Fatalf("round %d: summaries diverge:\n batched  %+v\n perEvent %+v", round, sb, sp)
		}
		if batched.Tracked() != perEvent.Tracked() {
			t.Fatalf("round %d: tracked %d vs %d", round, batched.Tracked(), perEvent.Tracked())
		}
		for name, k := range map[string]*sprofile.KeyedConcurrent[string]{"batched": batched, "per-event": perEvent} {
			if err := k.CheckZeroSets(); err != nil {
				t.Fatalf("round %d, %s: %v", round, name, err)
			}
		}
	}
	if !recycle && !negativeSeen {
		t.Fatal("non-recycling workload never drove a frequency negative; weak test")
	}
}

// TestKeyedApplyBatchCancelledKeyIsEvictable: a key whose batch nets to zero
// must end tracked at frequency zero and be recyclable, exactly like the
// per-event sequence.
func TestKeyedApplyBatchCancelledKeyIsEvictable(t *testing.T) {
	k := sprofile.MustBuildKeyed[string](2, sprofile.WithSharding(1))
	if _, err := k.ApplyBatch([]sprofile.KeyedTuple[string]{
		{Key: "transient", Action: sprofile.ActionAdd},
		{Key: "transient", Action: sprofile.ActionRemove},
		{Key: "held", Action: sprofile.ActionAdd},
	}); err != nil {
		t.Fatal(err)
	}
	if k.Tracked() != 2 {
		t.Fatalf("tracked %d, want 2", k.Tracked())
	}
	// The profile is full; a new key must evict the idle "transient".
	if err := k.Add("newcomer"); err != nil {
		t.Fatalf("eviction of the cancelled key failed: %v", err)
	}
	if f, _ := k.Count("transient"); f != 0 {
		t.Fatalf("evicted key reports %d", f)
	}
	if f, _ := k.Count("held"); f != 1 {
		t.Fatalf("held key at %d", f)
	}
}

func TestKeyedApplyBatchErrors(t *testing.T) {
	k := sprofile.MustBuildKeyed[string](8, sprofile.WithSharding(2))
	// Net-negative delta for an unknown key fails like Remove.
	applied, err := k.ApplyBatch([]sprofile.KeyedTuple[string]{
		{Key: "ghost", Action: sprofile.ActionRemove},
	})
	if !errors.Is(err, sprofile.ErrUnknownKey) {
		t.Fatalf("unknown key: %v", err)
	}
	if applied != 0 {
		t.Fatalf("applied %d events of a failing batch", applied)
	}
	// An invalid action rejects the batch before anything applies.
	applied, err = k.ApplyBatch([]sprofile.KeyedTuple[string]{
		{Key: "a", Action: sprofile.ActionAdd},
		{Key: "b", Action: sprofile.Action(9)},
	})
	if err == nil || applied != 0 {
		t.Fatalf("invalid action: applied=%d err=%v", applied, err)
	}
	if f, _ := k.Count("a"); f != 0 {
		t.Fatalf("rejected batch applied key a: %d", f)
	}
	// A remove-first unknown key errors like the per-event path, even when
	// the batch nets positive...
	if _, err = k.ApplyBatch([]sprofile.KeyedTuple[string]{
		{Key: "x", Action: sprofile.ActionRemove},
		{Key: "x", Action: sprofile.ActionAdd},
		{Key: "x", Action: sprofile.ActionAdd},
	}); !errors.Is(err, sprofile.ErrUnknownKey) {
		t.Fatalf("remove-first batch: %v", err)
	}
	// ...but once the key is known, strict non-negativity applies to the net
	// delta, so a remove-first batch that nets positive succeeds.
	if err := k.Add("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ApplyBatch([]sprofile.KeyedTuple[string]{
		{Key: "x", Action: sprofile.ActionRemove},
		{Key: "x", Action: sprofile.ActionRemove},
		{Key: "x", Action: sprofile.ActionAdd},
		{Key: "x", Action: sprofile.ActionAdd},
		{Key: "x", Action: sprofile.ActionAdd},
	}); err != nil {
		t.Fatalf("net-positive batch on a known key: %v", err)
	}
	if f, _ := k.Count("x"); f != 2 {
		t.Fatalf("key x at %d, want 2", f)
	}
}

// TestKeyedApplyBatchFailingKeyAppliesTheRest pins ApplyBatch's per-key
// error semantics: a failing entry leaves only its own key unchanged, and
// every other key of the batch — after it in the same stripe, or in a later
// stripe — is applied, counted and journaled.
func TestKeyedApplyBatchFailingKeyAppliesTheRest(t *testing.T) {
	one := sprofile.MustBuildKeyed[string](8, sprofile.WithSharding(1))
	applied, err := one.ApplyBatch([]sprofile.KeyedTuple[string]{
		{Key: "ghost", Action: sprofile.ActionRemove},
		{Key: "c", Action: sprofile.ActionAdd},
	})
	if !errors.Is(err, sprofile.ErrUnknownKey) || applied != 1 {
		t.Fatalf("one stripe: applied=%d err=%v, want 1 and ErrUnknownKey", applied, err)
	}
	if f, _ := one.Count("c"); f != 1 || one.Tracked() != 1 {
		t.Fatalf("one stripe: c=%d tracked=%d, want 1 and 1", f, one.Tracked())
	}

	// Across stripes, with a WAL: the keys after the failing one are
	// applied wherever they hash, and survive a reopen.
	path := filepath.Join(t.TempDir(), "batch.wal")
	k, err := sprofile.BuildKeyed[string](64, sprofile.WithSharding(4), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	batch := []sprofile.KeyedTuple[string]{{Key: "ghost", Action: sprofile.ActionRemove}}
	for i := 0; i < 32; i++ {
		batch = append(batch, sprofile.KeyedTuple[string]{Key: fmt.Sprintf("k%d", i), Action: sprofile.ActionAdd})
	}
	applied, err = k.ApplyBatch(batch)
	if !errors.Is(err, sprofile.ErrUnknownKey) || applied != 32 {
		t.Fatalf("four stripes: applied=%d err=%v, want 32 and ErrUnknownKey", applied, err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k, err = sprofile.BuildKeyed[string](64, sprofile.WithSharding(4), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	for i := 0; i < 32; i++ {
		if f, _ := k.Count(fmt.Sprintf("k%d", i)); f != 1 {
			t.Fatalf("reopened k%d = %d, want 1", i, f)
		}
	}
	if k.Tracked() != 32 {
		t.Fatalf("reopened tracked %d, want 32", k.Tracked())
	}
}

// TestKeyedApplyBatchFirstActionDecidesAcquire pins the per-event acquire
// rule on the batch path: an unknown key is acquired exactly when its first
// event in the batch is an add — so a WithoutKeyRecycling stream that adds
// then over-removes a fresh key coalesces to a negative frequency instead of
// failing, while a remove-first unknown key still errors.
func TestKeyedApplyBatchFirstActionDecidesAcquire(t *testing.T) {
	k := sprofile.MustBuildKeyed[string](8, sprofile.WithoutKeyRecycling())
	applied, err := k.ApplyBatch([]sprofile.KeyedTuple[string]{
		{Key: "debtor", Action: sprofile.ActionAdd},
		{Key: "debtor", Action: sprofile.ActionRemove},
		{Key: "debtor", Action: sprofile.ActionRemove},
	})
	if err != nil || applied != 3 {
		t.Fatalf("add-first over-remove: applied=%d err=%v", applied, err)
	}
	if f, _ := k.Count("debtor"); f != -1 {
		t.Fatalf("debtor at %d, want -1", f)
	}
	// Remove-first on an unknown key fails like per-event Remove would,
	// even though the batch nets positive.
	if _, err := k.ApplyBatch([]sprofile.KeyedTuple[string]{
		{Key: "ghost", Action: sprofile.ActionRemove},
		{Key: "ghost", Action: sprofile.ActionAdd},
		{Key: "ghost", Action: sprofile.ActionAdd},
	}); !errors.Is(err, sprofile.ErrUnknownKey) {
		t.Fatalf("remove-first unknown key: %v", err)
	}
	if f, _ := k.Count("ghost"); f != 0 || k.Tracked() != 1 {
		t.Fatalf("failed entry left state: ghost=%d tracked=%d", f, k.Tracked())
	}
}

func TestKeyedApplyDeltaSingleKey(t *testing.T) {
	k := sprofile.MustBuildKeyed[string](8)
	if err := k.ApplyDelta("hot", 500, 2); err != nil {
		t.Fatal(err)
	}
	if f, _ := k.Count("hot"); f != 498 {
		t.Fatalf("hot at %d, want 498", f)
	}
	s := keyedSummary(t, k)
	if s.Adds != 500 || s.Removes != 2 {
		t.Fatalf("counters (%d,%d), want (500,2)", s.Adds, s.Removes)
	}
	if err := k.ApplyDelta("hot", 0, 498); err != nil {
		t.Fatal(err)
	}
	if err := k.ApplyDelta("hot", 0, 1); !errors.Is(err, sprofile.ErrNegativeFrequency) {
		t.Fatalf("net-negative under recycling: %v", err)
	}
	if err := k.ApplyDelta("nobody", 0, 0); err != nil {
		t.Fatalf("no-op delta: %v", err)
	}
	if k.Tracked() != 1 {
		t.Fatalf("no-op delta tracked a key: %d", k.Tracked())
	}
}

// TestKeyedApplyDeltaBoundsCounts: counts above MaxInt64, and a step that
// would take a count past the profile's bound of MaxInt64/2, fail with
// ErrOutOfRange and leave the key, the tracked keys and the counters as they
// were. WAL replay and the replication stream drive this path with counts
// read from bytes.
func TestKeyedApplyDeltaBoundsCounts(t *testing.T) {
	const bound = math.MaxInt64 / 2
	k := sprofile.MustBuildKeyed[string](4, sprofile.Synchronized())
	if err := k.ApplyDelta("x", math.MaxInt64, 0); !errors.Is(err, sprofile.ErrOutOfRange) {
		t.Fatalf("MaxInt64 adds = %v, want ErrOutOfRange", err)
	}
	if k.Tracked() != 0 {
		t.Fatalf("a refused first delta tracked its key: %d", k.Tracked())
	}
	if err := k.ApplyDelta("x", bound, 0); err != nil {
		t.Fatalf("adds at the bound: %v", err)
	}
	for _, d := range []struct{ adds, removes uint64 }{{10, 0}, {1 << 63, 1 << 63}, {0, math.MaxUint64}} {
		if err := k.ApplyDelta("x", d.adds, d.removes); !errors.Is(err, sprofile.ErrOutOfRange) {
			t.Fatalf("ApplyDelta(x, %d, %d) = %v, want ErrOutOfRange", d.adds, d.removes, err)
		}
	}
	if f, _ := k.Count("x"); f != bound {
		t.Fatalf("count(x) = %d, want %d", f, int64(bound))
	}
	if s := keyedSummary(t, k); s.Total != bound || s.Adds != bound || s.Removes != 0 {
		t.Fatalf("summary %+v after refused deltas, want total and adds %d", s, int64(bound))
	}
}

// TestKeyedBoundHoldsAcrossShards: the bound on counts is the whole
// profile's, not a shard's. Which shard a key lands in follows a hash seed
// drawn per process, so a bound kept per shard would accept writes that a
// restart or a follower with another layout refuses. With the adds counter
// one below the bound on two shards, one more add fits and every other
// key's add is refused; the log alone then replays on one shard, and a
// checkpoint of that state restores on two.
func TestKeyedBoundHoldsAcrossShards(t *testing.T) {
	const bound = math.MaxInt64 / 2
	dir := filepath.Join(t.TempDir(), "wal")
	build := func(shards int) *sprofile.KeyedConcurrent[string] {
		t.Helper()
		k, err := sprofile.BuildKeyed[string](8, sprofile.WithSharding(shards), sprofile.WithWAL(dir))
		if err != nil {
			t.Fatalf("building on %d shards: %v", shards, err)
		}
		return k
	}
	check := func(stage string, k *sprofile.KeyedConcurrent[string]) {
		t.Helper()
		for key, want := range map[string]int64{"a": bound - 2, "b": 1, "c0": 0} {
			if f, _ := k.Count(key); f != want {
				t.Fatalf("%s: count(%s) = %d, want %d", stage, key, f, want)
			}
		}
		if s := keyedSummary(t, k); s.Total != bound-1 || s.Adds != bound || s.Removes != 1 || k.Tracked() != 2 {
			t.Fatalf("%s: summary %+v with %d keys, want total %d, adds %d, 1 remove, 2 keys",
				stage, s, k.Tracked(), int64(bound-1), int64(bound))
		}
	}

	k := build(2)
	if err := k.ApplyDelta("a", bound-1, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Add("b"); err != nil {
		t.Fatalf("the add that reaches the bound: %v", err)
	}
	for i := range 6 {
		key := fmt.Sprintf("c%d", i)
		if err := k.Add(key); !errors.Is(err, sprofile.ErrOutOfRange) {
			t.Fatalf("Add(%s) past the profile's bound = %v, want ErrOutOfRange", key, err)
		}
	}
	if err := k.Remove("a"); err != nil {
		t.Fatal(err)
	}
	check("writer", k)
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	k = build(1)
	check("log replayed on one shard", k)
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k = build(2)
	defer k.Close()
	if k.Replayed() != 0 {
		t.Fatalf("Replayed = %d after a checkpoint of the whole log, want 0", k.Replayed())
	}
	check("checkpoint restored on two shards", k)
}

// TestKeyedApplyBatchDurable round-trips batch-journaled state through a
// restart, including keys whose events cancelled out.
func TestKeyedApplyBatchDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	k, err := sprofile.BuildKeyed[string](32, sprofile.WithSharding(4), sprofile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	events := []sprofile.KeyedTuple[string]{
		{Key: "alpha", Action: sprofile.ActionAdd},
		{Key: "beta", Action: sprofile.ActionAdd},
		{Key: "alpha", Action: sprofile.ActionAdd},
		{Key: "gone", Action: sprofile.ActionAdd},
		{Key: "gone", Action: sprofile.ActionRemove},
	}
	if _, err := k.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := k.ApplyDelta("alpha", 10, 0); err != nil {
		t.Fatal(err)
	}
	before := keyedSummary(t, k)
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	k2, err := sprofile.BuildKeyed[string](32, sprofile.WithSharding(4), sprofile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	for key, want := range map[string]int64{"alpha": 12, "beta": 1, "gone": 0} {
		if f, _ := k2.Count(key); f != want {
			t.Fatalf("key %s recovered at %d, want %d", key, f, want)
		}
	}
	if after := keyedSummary(t, k2); after != before {
		t.Fatalf("summary diverged:\n before %+v\n after  %+v", before, after)
	}
	// The cancelled key is still tracked (it was acquired), like per-event.
	if k2.Tracked() != 3 {
		t.Fatalf("tracked %d keys after recovery, want 3", k2.Tracked())
	}
}

// TestKeyedApplyBatchConcurrentChurn hammers ApplyBatch from several
// goroutines together with per-event traffic and queries under -race, with a
// capacity small enough to force recycling collisions.
func TestKeyedApplyBatchConcurrentChurn(t *testing.T) {
	k := sprofile.MustBuildKeyed[string](16, sprofile.WithSharding(4))
	pool := make([]string, 64)
	for i := range pool {
		pool[i] = fmt.Sprintf("churn-%02d", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				switch g % 3 {
				case 0: // batch writer: add then fully remove a few keys
					var events []sprofile.KeyedTuple[string]
					for j := 0; j < 8; j++ {
						key := pool[rng.Intn(len(pool))]
						events = append(events,
							sprofile.KeyedTuple[string]{Key: key, Action: sprofile.ActionAdd},
							sprofile.KeyedTuple[string]{Key: key, Action: sprofile.ActionRemove})
					}
					if _, err := k.ApplyBatch(events); err != nil && !errors.Is(err, sprofile.ErrKeyedFull) {
						t.Errorf("ApplyBatch: %v", err)
						return
					}
				case 1: // per-event writer
					key := pool[rng.Intn(len(pool))]
					if err := k.Add(key); err != nil && !errors.Is(err, sprofile.ErrKeyedFull) {
						t.Errorf("Add: %v", err)
						return
					}
					_ = k.Remove(key)
				default: // reader
					if _, err := k.QueryKeys(sprofile.KeyedQuery[string]{Mode: true, TopK: 4, Summary: true}); err != nil {
						t.Errorf("QueryKeys: %v", err)
						return
					}
					_, _ = k.Count(pool[rng.Intn(len(pool))])
				}
			}
		}(g)
	}
	wg.Wait()
	// Sanity: the dense profile's invariants survived the churn.
	snap, err := k.Dense().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckZeroSets(); err != nil {
		t.Fatal(err)
	}
}
