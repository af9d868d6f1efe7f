package core

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// mustEqualState fails unless a and b hold identical frequencies, counters
// and invariants.
func mustEqualState(t *testing.T, a, b *Profile, label string) {
	t.Helper()
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("%s: first profile invariants: %v", label, err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("%s: second profile invariants: %v", label, err)
	}
	fa, fb := a.Frequencies(nil), b.Frequencies(nil)
	for x := range fa {
		if fa[x] != fb[x] {
			t.Fatalf("%s: object %d frequency %d vs %d", label, x, fa[x], fb[x])
		}
	}
	aAdds, aRemoves := a.Events()
	bAdds, bRemoves := b.Events()
	if aAdds != bAdds || aRemoves != bRemoves {
		t.Fatalf("%s: counters (%d,%d) vs (%d,%d)", label, aAdds, aRemoves, bAdds, bRemoves)
	}
	if a.Total() != b.Total() || a.Active() != b.Active() || a.NegativeCount() != b.NegativeCount() {
		t.Fatalf("%s: total/active/negative (%d,%d,%d) vs (%d,%d,%d)", label,
			a.Total(), a.Active(), a.NegativeCount(), b.Total(), b.Active(), b.NegativeCount())
	}
}

// splitmix64 is a tiny deterministic RNG for the property tests.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

func TestAddNMatchesRepeatedAdd(t *testing.T) {
	// BlockHint 1 forces slab growth during the walk-heavy phase.
	batched := MustNew(64, WithBlockHint(1))
	single := MustNew(64, WithBlockHint(1))
	rng := splitmix64(1)
	for step := 0; step < 500; step++ {
		x := rng.intn(64)
		k := int64(rng.intn(20))
		if err := batched.AddN(x, k); err != nil {
			t.Fatalf("AddN(%d, %d): %v", x, k, err)
		}
		for i := int64(0); i < k; i++ {
			if err := single.Add(x); err != nil {
				t.Fatalf("Add(%d): %v", x, err)
			}
		}
	}
	mustEqualState(t, batched, single, "AddN")
}

func TestRemoveNMatchesRepeatedRemove(t *testing.T) {
	batched := MustNew(64, WithBlockHint(1))
	single := MustNew(64, WithBlockHint(1))
	rng := splitmix64(2)
	for step := 0; step < 500; step++ {
		x := rng.intn(64)
		k := int64(rng.intn(20))
		if rng.intn(3) == 0 {
			// Interleave adds so frequencies cross zero in both directions.
			if err := batched.AddN(x, k); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < k; i++ {
				if err := single.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if err := batched.RemoveN(x, k); err != nil {
			t.Fatalf("RemoveN(%d, %d): %v", x, k, err)
		}
		for i := int64(0); i < k; i++ {
			if err := single.Remove(x); err != nil {
				t.Fatalf("Remove(%d): %v", x, err)
			}
		}
	}
	if batched.NegativeCount() == 0 {
		t.Fatal("workload never drove a frequency negative; weak test")
	}
	mustEqualState(t, batched, single, "RemoveN")
}

func TestAddNRemoveNArguments(t *testing.T) {
	p := MustNew(4)
	if err := p.AddN(-1, 1); !errors.Is(err, ErrObjectRange) {
		t.Fatalf("AddN(-1): %v", err)
	}
	if err := p.RemoveN(4, 1); !errors.Is(err, ErrObjectRange) {
		t.Fatalf("RemoveN(4): %v", err)
	}
	if err := p.AddN(0, -3); err == nil {
		t.Fatal("AddN with negative count succeeded")
	}
	if err := p.RemoveN(0, -3); err == nil {
		t.Fatal("RemoveN with negative count succeeded")
	}
	if err := p.AddN(0, 0); err != nil {
		t.Fatalf("AddN zero: %v", err)
	}
	if f, _ := p.Count(0); f != 0 {
		t.Fatalf("zero AddN moved the frequency to %d", f)
	}
}

func TestRemoveNStrictChecksNetResult(t *testing.T) {
	p := MustNew(4, WithStrictNonNegative())
	if err := p.AddN(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveN(1, 4); !errors.Is(err, ErrNegativeFrequency) {
		t.Fatalf("over-remove: %v", err)
	}
	if f, _ := p.Count(1); f != 3 {
		t.Fatalf("failed RemoveN changed the frequency to %d", f)
	}
	if err := p.RemoveN(1, 3); err != nil {
		t.Fatalf("exact RemoveN: %v", err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaGrossCounters(t *testing.T) {
	p := MustNew(4)
	// 5 adds and 2 removes that net to +3.
	if err := p.ApplyDelta(Delta{Object: 2, Delta: 3, Adds: 5, Removes: 2}); err != nil {
		t.Fatal(err)
	}
	if f, _ := p.Count(2); f != 3 {
		t.Fatalf("frequency %d, want 3", f)
	}
	adds, removes := p.Events()
	if adds != 5 || removes != 2 {
		t.Fatalf("counters (%d,%d), want (5,2)", adds, removes)
	}
	// A fully cancelled delta moves nothing but still counts.
	if err := p.ApplyDelta(Delta{Object: 0, Delta: 0, Adds: 4, Removes: 4}); err != nil {
		t.Fatal(err)
	}
	if f, _ := p.Count(0); f != 0 {
		t.Fatalf("cancelled delta moved object 0 to %d", f)
	}
	adds, removes = p.Events()
	if adds != 9 || removes != 6 {
		t.Fatalf("counters (%d,%d), want (9,6)", adds, removes)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaPathBoundsCounts pins MaxMagnitude on the delta path: a step
// that would take a frequency, the total or a counter past it fails with
// ErrOutOfRange and leaves the profile as it was, however large the counts.
func TestDeltaPathBoundsCounts(t *testing.T) {
	const bound = MaxMagnitude
	for _, tc := range []struct {
		name  string
		setup func(p *Profile) error
		step  func(p *Profile) error
	}{
		{"AddN past MaxInt64", nil, func(p *Profile) error { return p.AddN(0, math.MaxInt64) }},
		{"AddN past the bound", func(p *Profile) error { return p.AddN(0, bound) },
			func(p *Profile) error { return p.AddN(0, 10) }},
		{"RemoveN past the bound", func(p *Profile) error { return p.RemoveN(0, bound) },
			func(p *Profile) error { return p.RemoveN(0, 1) }},
		{"total past the bound", func(p *Profile) error { return p.AddN(0, bound) },
			func(p *Profile) error { return p.AddN(1, 1) }},
		// A load may leave a frequency at the bound with counters below it.
		{"frequency past the bound", func(p *Profile) error { return p.LoadFrequencies([]int64{bound, -bound, 0}, 0, 0) },
			func(p *Profile) error { return p.ApplyDelta(Delta{Object: 0, Delta: 1}) }},
		{"adds above MaxInt64", nil, func(p *Profile) error {
			return p.ApplyDelta(Delta{Object: 0, Delta: 0, Adds: 1 << 63, Removes: 1 << 63})
		}},
		{"net MinInt64", nil, func(p *Profile) error { return p.ApplyDelta(Delta{Object: 0, Delta: math.MinInt64}) }},
		{"counters past the bound", func(p *Profile) error {
			return p.ApplyDelta(Delta{Object: 0, Delta: 0, Adds: bound, Removes: bound})
		}, func(p *Profile) error { return p.ApplyDelta(Delta{Object: 1, Delta: 1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := MustNew(3)
			if tc.setup != nil {
				if err := tc.setup(p); err != nil {
					t.Fatalf("setup at the bound: %v", err)
				}
			}
			before, freqs := p.Summarize(), p.Frequencies(nil)
			if err := tc.step(p); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("step = %v, want ErrOutOfRange", err)
			}
			if after := p.Summarize(); after != before || !slices.Equal(p.Frequencies(nil), freqs) {
				t.Fatalf("refused step changed the profile: %+v, want %+v", after, before)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestApplyDeltaRejectsInconsistentGross(t *testing.T) {
	p := MustNew(4)
	if err := p.ApplyDelta(Delta{Object: 0, Delta: 2, Adds: 1, Removes: 2}); err == nil {
		t.Fatal("inconsistent gross counts accepted")
	}
	if adds, removes := p.Events(); adds != 0 || removes != 0 {
		t.Fatalf("rejected delta advanced counters to (%d,%d)", adds, removes)
	}
}

func TestApplyDeltasStopsAtStrictViolation(t *testing.T) {
	p := MustNew(8, WithStrictNonNegative())
	deltas := []Delta{
		{Object: 0, Delta: 2},
		{Object: 1, Delta: -1}, // frequency 0 - 1 < 0
		{Object: 2, Delta: 5},
	}
	n, err := p.ApplyDeltas(deltas)
	if !errors.Is(err, ErrNegativeFrequency) {
		t.Fatalf("ApplyDeltas: %v", err)
	}
	if n != 1 {
		t.Fatalf("applied %d deltas, want 1", n)
	}
	if f, _ := p.Count(0); f != 2 {
		t.Fatalf("prefix delta lost: object 0 at %d", f)
	}
	if f, _ := p.Count(2); f != 0 {
		t.Fatalf("suffix delta applied: object 2 at %d", f)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceFirstTouchOrderAndReuse(t *testing.T) {
	c, err := NewCoalescer(8)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Tuple{
		{Object: 3, Action: ActionAdd},
		{Object: 1, Action: ActionRemove},
		{Object: 3, Action: ActionAdd},
		{Object: 1, Action: ActionAdd},
		{Object: 5, Action: ActionAdd},
		{Object: 5, Action: ActionRemove},
	}
	deltas, err := c.Coalesce(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := []Delta{
		{Object: 3, Delta: 2, Adds: 2},
		{Object: 1, Delta: 0, Adds: 1, Removes: 1},
		{Object: 5, Delta: 0, Adds: 1, Removes: 1},
	}
	if len(deltas) != len(want) {
		t.Fatalf("got %d deltas, want %d", len(deltas), len(want))
	}
	for i := range want {
		if deltas[i] != want[i] {
			t.Fatalf("delta[%d] = %+v, want %+v", i, deltas[i], want[i])
		}
	}
	// Reuse: a second batch must not inherit the first batch's state.
	deltas, err = c.Coalesce([]Tuple{{Object: 3, Action: ActionRemove}})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0] != (Delta{Object: 3, Delta: -1, Removes: 1}) {
		t.Fatalf("second batch: %+v", deltas)
	}
	// Errors leave the coalescer reusable.
	if _, err := c.Coalesce([]Tuple{{Object: 99, Action: ActionAdd}}); !errors.Is(err, ErrObjectRange) {
		t.Fatalf("out-of-range object: %v", err)
	}
	if _, err := c.Coalesce([]Tuple{{Object: 0, Action: Action(7)}}); err == nil {
		t.Fatal("invalid action accepted")
	}
	deltas, err = c.Coalesce([]Tuple{{Object: 2, Action: ActionAdd}})
	if err != nil || len(deltas) != 1 || deltas[0] != (Delta{Object: 2, Delta: 1, Adds: 1}) {
		t.Fatalf("post-error batch: %+v, %v", deltas, err)
	}
}

// randomStream generates n tuples over m objects. When strictSafe is set,
// removes are only emitted for objects with a positive running count, so the
// stream is valid for a strict profile under any per-event replay.
func randomStream(rng *splitmix64, m, n int, strictSafe bool) []Tuple {
	counts := make([]int64, m)
	out := make([]Tuple, 0, n)
	for len(out) < n {
		x := rng.intn(m)
		if rng.intn(2) == 0 || (strictSafe && counts[x] <= 0) {
			counts[x]++
			out = append(out, Tuple{Object: x, Action: ActionAdd})
		} else {
			counts[x]--
			out = append(out, Tuple{Object: x, Action: ActionRemove})
		}
	}
	return out
}

// TestCoalescedDeltasMatchPerEvent is the central property of the batch
// path: ApplyDeltas(Coalesce(batch)) is state-identical to per-event
// ApplyAll(batch), across random streams, in both strict and default mode,
// with a tiny block hint so slab growth and block merges happen constantly.
func TestCoalescedDeltasMatchPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		strict bool
		m      int
	}{
		{"default", false, 16},
		{"default-wide", false, 300},
		{"strict", true, 16},
		{"strict-wide", true, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts []Option
			if tc.strict {
				opts = append(opts, WithStrictNonNegative())
			}
			opts = append(opts, WithBlockHint(1))
			perEvent := MustNew(tc.m, opts...)
			batched := MustNew(tc.m, opts...)
			c, err := NewCoalescer(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			rng := splitmix64(uint64(tc.m) + 17)
			for batch := 0; batch < 40; batch++ {
				size := 1 + rng.intn(400)
				tuples := randomStream(&rng, tc.m, size, tc.strict)
				if _, err := perEvent.ApplyAll(tuples); err != nil {
					t.Fatalf("batch %d: per-event: %v", batch, err)
				}
				deltas, err := c.Coalesce(tuples)
				if err != nil {
					t.Fatalf("batch %d: coalesce: %v", batch, err)
				}
				if _, err := batched.ApplyDeltas(deltas); err != nil {
					t.Fatalf("batch %d: deltas: %v", batch, err)
				}
				mustEqualState(t, batched, perEvent, "batch")
			}
		})
	}
}

// FuzzCoalescedDeltasMatchPerEvent decodes an arbitrary byte string into a
// tuple stream and checks the same equivalence the property test asserts.
func FuzzCoalescedDeltasMatchPerEvent(f *testing.F) {
	f.Add([]byte{0x01, 0x82, 0x01, 0x82})
	f.Add([]byte{0xFF, 0x00, 0x7F, 0x80, 0x03, 0x83})
	f.Fuzz(func(t *testing.T, data []byte) {
		const m = 32
		tuples := make([]Tuple, 0, len(data))
		for _, b := range data {
			action := ActionAdd
			if b&0x80 != 0 {
				action = ActionRemove
			}
			tuples = append(tuples, Tuple{Object: int(b&0x7f) % m, Action: action})
		}
		perEvent := MustNew(m, WithBlockHint(1))
		batched := MustNew(m, WithBlockHint(1))
		if _, err := perEvent.ApplyAll(tuples); err != nil {
			t.Fatalf("per-event: %v", err)
		}
		c, err := NewCoalescer(m)
		if err != nil {
			t.Fatal(err)
		}
		deltas, err := c.Coalesce(tuples)
		if err != nil {
			t.Fatalf("coalesce: %v", err)
		}
		if _, err := batched.ApplyDeltas(deltas); err != nil {
			t.Fatalf("deltas: %v", err)
		}
		mustEqualState(t, batched, perEvent, "fuzz")
	})
}

// TestAddNLandingCases pins the three landing shapes of the block walk:
// joining an existing block, opening a singleton between blocks, and walking
// to the very top of the rank array.
func TestAddNLandingCases(t *testing.T) {
	p := MustNew(6, WithBlockHint(1))
	// Frequencies: {0:0, 1:2, 2:2, 3:5, 4:9, 5:9}
	for x, f := range map[int]int64{1: 2, 2: 2, 3: 5, 4: 9, 5: 9} {
		if err := p.AddN(x, f); err != nil {
			t.Fatal(err)
		}
	}
	// Join: 0 -> 2 joins the {1,2} block.
	if err := p.AddN(0, 2); err != nil {
		t.Fatal(err)
	}
	// Between: 1: 2 -> 7 lands strictly between 5 and 9.
	if err := p.AddN(1, 5); err != nil {
		t.Fatal(err)
	}
	// Top: 2: 2 -> 12 walks past everything.
	if err := p.AddN(2, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for x, want := range map[int]int64{0: 2, 1: 7, 2: 12, 3: 5, 4: 9, 5: 9} {
		if f, _ := p.Count(x); f != want {
			t.Fatalf("object %d at %d, want %d", x, f, want)
		}
	}
	if e, _, err := p.Mode(); err != nil || e.Object != 2 || e.Frequency != 12 {
		t.Fatalf("mode %+v, %v", e, err)
	}
	// And back down: 2: 12 -> 0 walks to the bottom.
	if err := p.RemoveN(2, 12); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e, _, err := p.Min(); err != nil || e.Frequency != 0 {
		t.Fatalf("min %+v, %v", e, err)
	}
}
