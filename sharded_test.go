package sprofile_test

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sprofile"
	"sprofile/internal/stream"
)

func TestShardedValidation(t *testing.T) {
	if _, err := sprofile.NewSharded(-1, 4); !errors.Is(err, sprofile.ErrCapacity) {
		t.Fatalf("NewSharded(-1, 4) error %v", err)
	}
	if _, err := sprofile.NewSharded(10, 0); err == nil {
		t.Fatalf("NewSharded(10, 0) succeeded")
	}
	if _, err := sprofile.NewSharded(10, -2); err == nil {
		t.Fatalf("NewSharded(10, -2) succeeded")
	}
	s := sprofile.MustNewSharded(10, 100)
	if s.Shards() > 10 {
		t.Fatalf("more shards (%d) than objects", s.Shards())
	}
	if s.Cap() != 10 {
		t.Fatalf("Cap() = %d", s.Cap())
	}
}

func TestShardedMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNewSharded did not panic")
		}
	}()
	sprofile.MustNewSharded(5, 0)
}

func TestShardedEmptyProfile(t *testing.T) {
	s := sprofile.MustNewSharded(0, 3)
	if _, _, err := s.Mode(); !errors.Is(err, sprofile.ErrEmptyProfile) {
		t.Fatalf("Mode on empty sharded profile: %v", err)
	}
	if _, _, err := s.Min(); !errors.Is(err, sprofile.ErrEmptyProfile) {
		t.Fatalf("Min on empty sharded profile: %v", err)
	}
	if _, err := s.Median(); !errors.Is(err, sprofile.ErrEmptyProfile) {
		t.Fatalf("Median on empty sharded profile: %v", err)
	}
	if err := s.Add(0); !errors.Is(err, sprofile.ErrObjectRange) {
		t.Fatalf("Add(0) on empty sharded profile: %v", err)
	}
}

func TestShardedOutOfRange(t *testing.T) {
	s := sprofile.MustNewSharded(10, 3)
	for _, x := range []int{-1, 10, 100} {
		if err := s.Add(x); !errors.Is(err, sprofile.ErrObjectRange) {
			t.Fatalf("Add(%d) error %v", x, err)
		}
		if err := s.Remove(x); !errors.Is(err, sprofile.ErrObjectRange) {
			t.Fatalf("Remove(%d) error %v", x, err)
		}
		if _, err := s.Count(x); !errors.Is(err, sprofile.ErrObjectRange) {
			t.Fatalf("Count(%d) error %v", x, err)
		}
	}
	if err := s.Apply(sprofile.Tuple{Object: 0, Action: 0}); err == nil {
		t.Fatalf("Apply accepted invalid action")
	}
}

// checkShardedAgainstReference compares every query of the sharded profile
// against a single (unsharded) reference profile that has seen the same
// stream.
func checkShardedAgainstReference(t *testing.T, s *sprofile.Sharded, ref *sprofile.Profile) {
	t.Helper()
	m := ref.Cap()
	if s.Total() != ref.Total() {
		t.Fatalf("Total: sharded %d, reference %d", s.Total(), ref.Total())
	}
	for x := 0; x < m; x++ {
		a, _ := s.Count(x)
		b, _ := ref.Count(x)
		if a != b {
			t.Fatalf("Count(%d): sharded %d, reference %d", x, a, b)
		}
	}

	gotMode, gotTies, err := s.Mode()
	if err != nil {
		t.Fatal(err)
	}
	wantMode, wantTies, _ := ref.Mode()
	if gotMode.Frequency != wantMode.Frequency || gotTies != wantTies {
		t.Fatalf("Mode: sharded (%d,%d), reference (%d,%d)",
			gotMode.Frequency, gotTies, wantMode.Frequency, wantTies)
	}
	if f, _ := ref.Count(gotMode.Object); f != gotMode.Frequency {
		t.Fatalf("Mode representative %d does not hold frequency %d", gotMode.Object, gotMode.Frequency)
	}

	gotMin, gotMinTies, err := s.Min()
	if err != nil {
		t.Fatal(err)
	}
	wantMin, wantMinTies, _ := ref.Min()
	if gotMin.Frequency != wantMin.Frequency || gotMinTies != wantMinTies {
		t.Fatalf("Min: sharded (%d,%d), reference (%d,%d)",
			gotMin.Frequency, gotMinTies, wantMin.Frequency, wantMinTies)
	}

	for _, k := range []int{1, m / 3, m/2 + 1, m} {
		if k < 1 {
			continue
		}
		got, err := s.KthLargest(k)
		if err != nil {
			t.Fatalf("KthLargest(%d): %v", k, err)
		}
		want, _ := ref.KthLargest(k)
		if got.Frequency != want.Frequency {
			t.Fatalf("KthLargest(%d): sharded %d, reference %d", k, got.Frequency, want.Frequency)
		}
		if f, _ := ref.Count(got.Object); f != got.Frequency {
			t.Fatalf("KthLargest(%d) representative %d does not hold frequency %d", k, got.Object, got.Frequency)
		}
	}

	gotMed, err := s.Median()
	if err != nil {
		t.Fatal(err)
	}
	wantMed, _ := ref.Median()
	if gotMed.Frequency != wantMed.Frequency {
		t.Fatalf("Median: sharded %d, reference %d", gotMed.Frequency, wantMed.Frequency)
	}

	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		got, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Quantile(q)
		if got.Frequency != want.Frequency {
			t.Fatalf("Quantile(%g): sharded %d, reference %d", q, got.Frequency, want.Frequency)
		}
	}

	gotDist := s.Distribution()
	wantDist := ref.Distribution()
	if len(gotDist) != len(wantDist) {
		t.Fatalf("Distribution length: sharded %d, reference %d", len(gotDist), len(wantDist))
	}
	for i := range wantDist {
		if gotDist[i] != wantDist[i] {
			t.Fatalf("Distribution[%d]: sharded %+v, reference %+v", i, gotDist[i], wantDist[i])
		}
	}

	gotTop := s.TopK(5)
	wantTop := ref.TopK(5)
	if len(gotTop) != len(wantTop) {
		t.Fatalf("TopK length: sharded %d, reference %d", len(gotTop), len(wantTop))
	}
	for i := range wantTop {
		if gotTop[i].Frequency != wantTop[i].Frequency {
			t.Fatalf("TopK[%d]: sharded freq %d, reference %d", i, gotTop[i].Frequency, wantTop[i].Frequency)
		}
	}
}

func TestShardedMatchesSingleProfileOnPaperStreams(t *testing.T) {
	const m = 64
	for _, numShards := range []int{1, 3, 8, 64} {
		for streamIdx := 1; streamIdx <= 3; streamIdx++ {
			s := sprofile.MustNewSharded(m, numShards)
			ref := sprofile.MustNew(m)
			g, err := stream.PaperStream(streamIdx, m, uint64(streamIdx*numShards))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3000; i++ {
				tp := g.Next()
				if err := s.Apply(sprofile.Tuple{Object: tp.Object, Action: tp.Action}); err != nil {
					t.Fatal(err)
				}
				if err := ref.Apply(tp); err != nil {
					t.Fatal(err)
				}
			}
			checkShardedAgainstReference(t, s, ref)

			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < m; x++ {
				a, _ := snap.Count(x)
				b, _ := ref.Count(x)
				if a != b {
					t.Fatalf("snapshot Count(%d) = %d, reference %d", x, a, b)
				}
			}
			if err := snap.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedQuantileNearestRank pins the quantile rank definition: both the
// plain profile and the sharded merge must round q*(m-1) to the nearest rank.
// With m=11, q=0.7 lands on 6.999999999999999 in float arithmetic; the old
// truncating implementation answered rank 6 where nearest-rank demands 7.
func TestShardedQuantileNearestRank(t *testing.T) {
	const m = 11
	s := sprofile.MustNewSharded(m, 3)
	ref := sprofile.MustNew(m)
	// Distinct frequencies 0..10 so every rank has a unique frequency and any
	// rank disagreement is visible as a frequency disagreement.
	for x := 0; x < m; x++ {
		for i := 0; i < x; i++ {
			if err := s.Add(x); err != nil {
				t.Fatal(err)
			}
			if err := ref.Add(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		got, err := s.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", q, err)
		}
		want, err := ref.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Frequency != want.Frequency {
			t.Fatalf("Quantile(%g): sharded %d, reference %d", q, got.Frequency, want.Frequency)
		}
	}
	// The regression case itself: q=0.7 must hit the nearest rank 7.
	e, err := s.Quantile(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if e.Frequency != 7 {
		t.Fatalf("Quantile(0.7) over frequencies 0..10 = %d, want 7 (nearest rank)", e.Frequency)
	}
}

func TestShardedKthLargestBounds(t *testing.T) {
	s := sprofile.MustNewSharded(8, 2)
	if _, err := s.KthLargest(0); !errors.Is(err, sprofile.ErrBadRank) {
		t.Fatalf("KthLargest(0) error %v", err)
	}
	if _, err := s.KthLargest(9); !errors.Is(err, sprofile.ErrBadRank) {
		t.Fatalf("KthLargest(9) error %v", err)
	}
	if got := s.TopK(0); got != nil {
		t.Fatalf("TopK(0) = %v", got)
	}
	if got := s.TopK(100); len(got) != 8 {
		t.Fatalf("TopK(100) returned %d entries, want 8", len(got))
	}
}

func TestShardedConcurrentProducers(t *testing.T) {
	const m = 1024
	const workers = 8
	const opsPerWorker = 20_000
	s := sprofile.MustNewSharded(m, 16)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stream.NewRNG(seed)
			for i := 0; i < opsPerWorker; i++ {
				x := rng.Intn(m)
				if rng.Bernoulli(0.7) {
					_ = s.Add(x)
				} else {
					_ = s.Remove(x)
				}
				if i%500 == 0 {
					s.Mode()
					s.TopK(3)
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The sharded total must equal the snapshot's total, and every applied
	// event is accounted for (adds - removes = total).
	if snap.Total() != s.Total() {
		t.Fatalf("snapshot total %d, sharded total %d", snap.Total(), s.Total())
	}
}

// TestShardedTotalIsOneCut pins that Total reads every shard from one cut.
// One token walks the ids 0→1→…→15→0 across 16 one-object shards, added at
// its next id before it leaves its current one, so every state the profile
// holds totals 1 or 2; summing the shards under successive locks can miss
// the token or count it twice.
func TestShardedTotalIsOneCut(t *testing.T) {
	const m = 16
	s := sprofile.MustNewSharded(m, m)
	if err := s.Add(0); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for cur := 0; !stop.Load(); cur = (cur + 1) % m {
			if err := s.Add((cur + 1) % m); err != nil {
				t.Error(err)
				return
			}
			if err := s.Remove(cur); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reads, torn := 0, 0
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); reads++ {
		if total := s.Total(); total < 1 || total > 2 {
			torn++
		}
	}
	stop.Store(true)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d of %d Total() reads fell outside [1, 2], the only totals the profile held", torn, reads)
	}
}

func TestShardedPropertyMatchesReference(t *testing.T) {
	f := func(seed uint64, rawM uint8, rawShards uint8, rawN uint16) bool {
		m := int(rawM)%40 + 1
		numShards := int(rawShards)%8 + 1
		n := int(rawN) % 500
		s := sprofile.MustNewSharded(m, numShards)
		ref := sprofile.MustNew(m)
		rng := stream.NewRNG(seed)
		for i := 0; i < n; i++ {
			x := rng.Intn(m)
			action := sprofile.ActionAdd
			if rng.Bernoulli(0.4) {
				action = sprofile.ActionRemove
			}
			if s.Apply(sprofile.Tuple{Object: x, Action: action}) != nil {
				return false
			}
			if ref.Apply(sprofile.Tuple{Object: x, Action: action}) != nil {
				return false
			}
		}
		gotMode, _, e1 := s.Mode()
		wantMode, _, e2 := ref.Mode()
		gotMed, e3 := s.Median()
		wantMed, e4 := ref.Median()
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			return false
		}
		return gotMode.Frequency == wantMode.Frequency && gotMed.Frequency == wantMed.Frequency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSnapshotPreservesBookkeeping: the merged snapshot must carry
// the true adds/removes counters and the strict flag, not just frequencies,
// so it doubles as a checkpoint image.
func TestShardedSnapshotPreservesBookkeeping(t *testing.T) {
	s := sprofile.MustNewSharded(10, 3, sprofile.WithStrictNonNegative())
	for _, x := range []int{1, 1, 4, 9, 4, 1} {
		if err := s.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove(4); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	adds, removes := snap.Events()
	if adds != 6 || removes != 1 {
		t.Fatalf("snapshot events = %d/%d, want 6/1", adds, removes)
	}
	if !snap.StrictNonNegative() {
		t.Fatal("snapshot lost the strict flag")
	}
	if got, _ := snap.Count(1); got != 3 {
		t.Fatalf("snapshot Count(1) = %d, want 3", got)
	}
	if snapSum, shardedSum := snap.Summarize(), s.Summarize(); snapSum != shardedSum {
		t.Fatalf("snapshot summary %+v != sharded summary %+v", snapSum, shardedSum)
	}
}

// TestShardedLoadFrequenciesBoundsCounts: a load whose counters, or whose
// frequencies' positive or negative sum, pass MaxInt64/2 over the whole
// profile is ErrBadSnapshot before any shard is touched. A load at the
// bound counts toward the delta path's bound.
func TestShardedLoadFrequenciesBoundsCounts(t *testing.T) {
	const bound = math.MaxInt64 / 2
	s := sprofile.MustNewSharded(4, 2) // shard 0 holds ids 0-1, shard 1 ids 2-3
	if err := s.Add(3); err != nil {
		t.Fatal(err)
	}
	before, freqs := s.Summarize(), []int64{0, 0, 0, 1}
	for _, tc := range []struct {
		name          string
		freqs         []int64
		adds, removes uint64
	}{
		{"sum wrapping int64", []int64{math.MaxInt64, math.MaxInt64, 2, 0}, 0, 0},
		{"one shard past the bound", []int64{0, 0, bound, 1}, bound + 1, 0},
		{"shards together past the bound", []int64{bound, 0, 1, 0}, bound + 1, 0},
		{"negative sums together past the bound", []int64{-bound, 0, -1, 0}, 0, bound + 1},
		{"MinInt64", []int64{0, 0, math.MinInt64, 0}, 0, 1 << 63},
		{"surplus past the bound", []int64{bound, 0, 0, 0}, bound + 1, 1},
	} {
		if err := s.LoadFrequencies(tc.freqs, tc.adds, tc.removes); !errors.Is(err, sprofile.ErrBadSnapshot) {
			t.Errorf("%s: load = %v, want ErrBadSnapshot", tc.name, err)
		}
		got := make([]int64, 4)
		for x := range got {
			got[x], _ = s.Count(x)
		}
		if after := s.Summarize(); after != before || !slices.Equal(got, freqs) {
			t.Errorf("%s: refused load changed the profile to %+v %v", tc.name, after, got)
		}
	}
	if err := s.LoadFrequencies([]int64{bound - 2, 0, 1, 0}, bound, 1); err != nil {
		t.Fatalf("load at the bound over both shards: %v", err)
	}
	if f, _ := s.Count(0); f != bound-2 {
		t.Fatalf("Count(0) = %d, want %d", f, int64(bound-2))
	}
	if err := s.AddN(3, 1); !errors.Is(err, sprofile.ErrOutOfRange) {
		t.Fatalf("AddN on the other shard after a load at the bound = %v, want ErrOutOfRange", err)
	}
	if err := s.RemoveN(2, 1); err != nil {
		t.Fatalf("RemoveN below the removes bound: %v", err)
	}
}

// TestShardedDeltaPathBoundsProfile: the delta path's bound of MaxInt64/2
// covers the whole profile, so a step on one shard is refused when the
// events of every shard together would pass it, through AddN, ApplyDelta
// and ApplyDeltas alike; a step that fails for another reason hands its
// events back, and the merged counters stay loadable.
func TestShardedDeltaPathBoundsProfile(t *testing.T) {
	const bound = math.MaxInt64 / 2
	// Shard 0 holds ids 0-1, shard 1 ids 2-3.
	s := sprofile.MustNewSharded(4, 2, sprofile.WithStrictNonNegative())
	if err := s.AddN(0, bound-3); err != nil {
		t.Fatal(err)
	}
	// Strict violations: the events they counted are handed back.
	if err := s.ApplyDelta(sprofile.Delta{Object: 1, Delta: -1, Adds: 1, Removes: 2}); !errors.Is(err, sprofile.ErrNegativeFrequency) {
		t.Fatalf("strict violation = %v, want ErrNegativeFrequency", err)
	}
	n, err := s.ApplyDeltas([]sprofile.Delta{{Object: 0, Delta: -1}, {Object: 1, Delta: -1}, {Object: 1, Delta: 1}})
	if n != 1 || !errors.Is(err, sprofile.ErrNegativeFrequency) {
		t.Fatalf("ApplyDeltas with a strict violation = (%d, %v), want (1, ErrNegativeFrequency)", n, err)
	}
	if err := s.AddN(3, 3); err != nil {
		t.Fatalf("AddN up to the bound after refused steps: %v", err)
	}
	before := s.Summarize()
	if err := s.AddN(2, 1); !errors.Is(err, sprofile.ErrOutOfRange) {
		t.Fatalf("AddN past the profile's bound = %v, want ErrOutOfRange", err)
	}
	if err := s.ApplyDelta(sprofile.Delta{Object: 1, Delta: 1}); !errors.Is(err, sprofile.ErrOutOfRange) {
		t.Fatalf("ApplyDelta past the profile's bound = %v, want ErrOutOfRange", err)
	}
	if n, err := s.ApplyDeltas([]sprofile.Delta{{Object: 2, Delta: 1}, {Object: 1, Delta: 1}}); n != 0 || !errors.Is(err, sprofile.ErrOutOfRange) {
		t.Fatalf("ApplyDeltas past the profile's bound = (%d, %v), want (0, ErrOutOfRange)", n, err)
	}
	if after := s.Summarize(); after != before {
		t.Fatalf("refused steps changed the profile to %+v, want %+v", after, before)
	}
	if err := s.RemoveN(0, 1); err != nil {
		t.Fatal(err)
	}
	if sum := s.Summarize(); sum.Total != bound-2 || sum.Adds != bound || sum.Removes != 2 {
		t.Fatalf("summary %+v, want total %d, adds %d, removes 2", sum, int64(bound-2), int64(bound))
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot at the bound: %v", err)
	}
}

// TestShardedBoundUnderConcurrentDeltas: writers on every shard race for
// the last 1000 adds under the profile's bound while others take steps that
// fail and hand their events back. No more than the bound is accepted, and
// once they are done the bound's count matches the shards' counters: the
// exact remainder still fits and one add more does not.
func TestShardedBoundUnderConcurrentDeltas(t *testing.T) {
	const bound = math.MaxInt64 / 2
	s := sprofile.MustNewSharded(64, 4, sprofile.WithStrictNonNegative())
	if err := s.AddN(0, bound-1000); err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				x := 8*g + i%8
				if g%2 == 1 {
					// A strict violation: it counts an add, then fails.
					if err := s.ApplyDelta(sprofile.Delta{Object: x, Delta: -1, Adds: 1, Removes: 2}); err == nil {
						t.Error("strict violation applied")
					}
					continue
				}
				switch err := s.AddN(x, 1); {
				case err == nil:
					accepted.Add(1)
				case !errors.Is(err, sprofile.ErrOutOfRange):
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	adds := s.Summarize().Adds
	if adds > bound || int64(adds) != bound-1000+accepted.Load() {
		t.Fatalf("adds %d after %d accepted steps, want %d", adds, accepted.Load(), bound-1000+accepted.Load())
	}
	if rest := int64(bound - adds); rest > 0 {
		if err := s.AddN(63, rest); err != nil {
			t.Fatalf("the last %d adds under the bound: %v", rest, err)
		}
	}
	if err := s.AddN(63, 1); !errors.Is(err, sprofile.ErrOutOfRange) {
		t.Fatalf("AddN past the bound = %v, want ErrOutOfRange", err)
	}
}

// TestShardedLoadFrequencies round-trips Snapshot → LoadFrequencies into a
// fresh sharded profile with a different shard count.
func TestShardedLoadFrequencies(t *testing.T) {
	src := sprofile.MustNewSharded(12, 4)
	for _, x := range []int{0, 0, 5, 11, 5, 0, 7} {
		if err := src.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range []int{7, 7} { // drive 7 negative: non-strict history
		if err := src.Remove(x); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	adds, removes := snap.Events()

	dst := sprofile.MustNewSharded(12, 5)
	if err := dst.LoadFrequencies(snap.Frequencies(nil), adds, removes); err != nil {
		t.Fatal(err)
	}
	if srcSum, dstSum := src.Summarize(), dst.Summarize(); srcSum != dstSum {
		t.Fatalf("loaded summary %+v != source summary %+v", dstSum, srcSum)
	}
	for x := 0; x < 12; x++ {
		want, _ := src.Count(x)
		got, _ := dst.Count(x)
		if got != want {
			t.Fatalf("Count(%d) = %d, want %d", x, got, want)
		}
	}

	// Inconsistent counters and wrong lengths are rejected.
	if err := dst.LoadFrequencies(snap.Frequencies(nil), adds+1, removes); err == nil {
		t.Fatal("inconsistent counters accepted")
	}
	if err := dst.LoadFrequencies([]int64{1, 2}, 3, 0); err == nil {
		t.Fatal("wrong length accepted")
	}
	// Strict targets reject negative loads before mutating any shard.
	strict := sprofile.MustNewSharded(12, 3, sprofile.WithStrictNonNegative())
	if err := strict.LoadFrequencies(snap.Frequencies(nil), adds, removes); err == nil {
		t.Fatal("negative frequencies loaded into a strict sharded profile")
	}
}
