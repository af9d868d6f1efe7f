package sprofile_test

import (
	"errors"
	"testing"

	"sprofile"
)

// keyedSummary reads k's profile-wide summary through QueryKeys.
func keyedSummary[K comparable](t testing.TB, k sprofile.KeyedProfiler[K]) sprofile.Summary {
	t.Helper()
	res, err := k.QueryKeys(sprofile.KeyedQuery[K]{Summary: true})
	if err != nil {
		t.Fatal(err)
	}
	return *res.Summary
}

func TestKeyedBasicFlow(t *testing.T) {
	k := sprofile.MustNewKeyed[string](8)
	events := []struct {
		key    string
		action sprofile.Action
	}{
		{"alice", sprofile.ActionAdd},
		{"bob", sprofile.ActionAdd},
		{"alice", sprofile.ActionAdd},
		{"carol", sprofile.ActionAdd},
		{"bob", sprofile.ActionRemove},
	}
	for _, e := range events {
		if err := k.Apply(e.key, e.action); err != nil {
			t.Fatalf("Apply(%q, %v): %v", e.key, e.action, err)
		}
	}
	mres, err := k.QueryKeys(sprofile.KeyedQuery[string]{Mode: true})
	if err != nil {
		t.Fatal(err)
	}
	if mode := mres.Mode; mode.Key != "alice" || mode.Frequency != 2 {
		t.Fatalf("Mode = %+v", mode)
	}
	if f, err := k.Count("bob"); err != nil || f != 0 {
		t.Fatalf("Count(bob) = %d, %v", f, err)
	}
	if f, err := k.Count("never-seen"); err != nil || f != 0 {
		t.Fatalf("Count(never-seen) = %d, %v", f, err)
	}
	if k.Tracked() != 3 {
		t.Fatalf("Tracked() = %d, want 3", k.Tracked())
	}
	if k.Total() != 3 {
		t.Fatalf("Total() = %d, want 3", k.Total())
	}
	// A composite query reports the tracked keys beside the summary only.
	res, err := k.QueryKeys(sprofile.KeyedQuery[string]{Summary: true})
	if err != nil || res.Tracked == nil || *res.Tracked != 3 || res.Summary.Total != 3 {
		t.Fatalf("QueryKeys(summary) = (%+v, tracked %v, %v)", res.Summary, res.Tracked, err)
	}
	if res, err := k.QueryKeys(sprofile.KeyedQuery[string]{Mode: true}); err != nil || res.Tracked != nil {
		t.Fatalf("QueryKeys(mode) = (tracked %v, %v), want no tracked count", res.Tracked, err)
	}
	if k.Cap() != 8 {
		t.Fatalf("Cap() = %d, want 8", k.Cap())
	}
}

func TestKeyedTopK(t *testing.T) {
	k := sprofile.MustNewKeyed[string](4)
	for i := 0; i < 3; i++ {
		k.Add("x")
	}
	for i := 0; i < 2; i++ {
		k.Add("y")
	}
	k.Add("z")
	res, err := k.QueryKeys(sprofile.KeyedQuery[string]{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopK
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d entries", len(top))
	}
	if top[0].Key != "x" || top[0].Frequency != 3 {
		t.Fatalf("TopK[0] = %+v", top[0])
	}
	if top[1].Key != "y" || top[1].Frequency != 2 {
		t.Fatalf("TopK[1] = %+v", top[1])
	}
	if top[2].Key != "z" || top[2].Frequency != 1 {
		t.Fatalf("TopK[2] = %+v", top[2])
	}
}

func TestKeyedRemoveUnknownKey(t *testing.T) {
	k := sprofile.MustNewKeyed[string](4)
	if err := k.Remove("ghost"); !errors.Is(err, sprofile.ErrUnknownKey) {
		t.Fatalf("Remove(ghost) error %v", err)
	}
}

func TestKeyedStrictUnderflow(t *testing.T) {
	k := sprofile.MustNewKeyed[string](4)
	k.Add("a")
	if err := k.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := k.Remove("a"); !errors.Is(err, sprofile.ErrNegativeFrequency) {
		t.Fatalf("second Remove error %v, want ErrNegativeFrequency", err)
	}
}

func TestKeyedRecyclingEvictsIdleKeys(t *testing.T) {
	k := sprofile.MustNewKeyed[string](2)
	k.Add("a")
	k.Add("b")
	// Both slots used; "a" goes idle, so adding "c" must recycle a's id.
	if err := k.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := k.Add("c"); err != nil {
		t.Fatalf("Add(c) with an idle key available: %v", err)
	}
	if k.Tracked() != 2 {
		t.Fatalf("Tracked() = %d, want 2", k.Tracked())
	}
	if f, _ := k.Count("c"); f != 1 {
		t.Fatalf("Count(c) = %d, want 1", f)
	}
	// With both keys active, a third key cannot be admitted.
	if err := k.Add("d"); !errors.Is(err, sprofile.ErrKeyedFull) {
		t.Fatalf("Add(d) error %v, want ErrKeyedFull", err)
	}
}

func TestKeyedWithoutRecyclingAllowsNegative(t *testing.T) {
	k := sprofile.MustNewKeyed[string](2, sprofile.WithoutRecycling())
	k.Add("a")
	k.Add("b")
	if err := k.Remove("a"); err != nil {
		t.Fatal(err)
	}
	// "a" is idle but recycling is off: a new key must be rejected.
	if err := k.Add("c"); !errors.Is(err, sprofile.ErrKeyedFull) {
		t.Fatalf("Add(c) error %v, want ErrKeyedFull", err)
	}
	// And frequencies may go negative.
	if err := k.Remove("a"); err != nil {
		t.Fatalf("Remove below zero without recycling: %v", err)
	}
	if f, _ := k.Count("a"); f != -1 {
		t.Fatalf("Count(a) = %d, want -1", f)
	}
}

func TestKeyedMedianMajorityDistribution(t *testing.T) {
	k := sprofile.MustNewKeyed[int](3)
	for i := 0; i < 5; i++ {
		k.Add(42)
	}
	k.Add(7)
	res, err := k.QueryKeys(sprofile.KeyedQuery[int]{Median: true, Majority: true, Distribution: true, Summary: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Median.Frequency != 1 {
		t.Fatalf("Median frequency %d, want 1", res.Median.Frequency)
	}
	if maj := res.Majority; !maj.Majority || maj.Key != 42 {
		t.Fatalf("Majority = %+v", maj)
	}
	if len(res.Distribution) != 3 {
		t.Fatalf("Distribution = %+v", res.Distribution)
	}
	if sum := res.Summary; sum.Total != 6 || sum.MaxFrequency != 5 {
		t.Fatalf("Summary = %+v", sum)
	}
}

func TestKeyedInvalidAction(t *testing.T) {
	k := sprofile.MustNewKeyed[string](2)
	if err := k.Apply("a", sprofile.Action(0)); err == nil {
		t.Fatalf("Apply with invalid action succeeded")
	}
}

func TestKeyedInvalidCapacity(t *testing.T) {
	if _, err := sprofile.NewKeyed[string](-1); err == nil {
		t.Fatalf("NewKeyed(-1) succeeded")
	}
}
