package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// matOp is one byte-coded step of FuzzMaterialisedMatchesEager: op selects
// the call, x the object, k its count.
type matOp struct {
	op, k byte
	x     uint16
}

// encodeMatOps encodes a fuzz input: the capacity byte (m = 1+2*b), the
// strict flag, then four bytes per op, the entries of a load appended to it.
func encodeMatOps(mByte byte, strict bool, ops ...matOp) []byte {
	data := []byte{mByte, 0}
	if strict {
		data[1] = 1
	}
	for _, o := range ops {
		data = append(data, o.op, byte(o.x), byte(o.x>>8), o.k)
	}
	return data
}

// FuzzMaterialisedMatchesEager drives the same byte-coded ops on ids
// anywhere in [0, m) against a profile that materialises ids as updates
// reach them (NewLoaded(m, nil, 0, 0)) and one holding every id from the
// start (New(m)), strict or not. After every op the two must answer every
// read alike; the order of tied objects inside a block may differ, so ties
// are compared as sets or by frequency. A refused op must leave both
// unchanged.
func FuzzMaterialisedMatchesEager(f *testing.F) {
	// Negative, zero and positive blocks before the first growth past
	// minGrow ids, which then shifts the positives up.
	f.Add(encodeMatOps(100, false,
		matOp{op: 1, x: 3}, matOp{op: 0, x: 5}, matOp{op: 0, x: 5}, matOp{op: 2, x: 7, k: 3},
		matOp{op: 0, x: 150}, matOp{op: 3, x: 9, k: 2}, matOp{op: 2, x: 190, k: 1}))
	// The same shape strictly, with a refused remove of an implicit zero
	// and a delta that grows to the capacity.
	f.Add(encodeMatOps(120, true,
		matOp{op: 0, x: 1}, matOp{op: 2, x: 2, k: 4}, matOp{op: 1, x: 200}, matOp{op: 0, x: 70},
		matOp{op: 4, x: 240, k: 0x13}, matOp{op: 1, x: 70}, matOp{op: 3, x: 2, k: 9}))
	// A load of mixed signs, growth over it, a reset and growth again.
	f.Add(append(encodeMatOps(90, false,
		matOp{op: 0, x: 170}, matOp{op: 6}, matOp{op: 0, x: 20}, matOp{op: 7, x: 4}, matOp{op: 0, x: 4},
		matOp{op: 5, k: 3}), 10, 0, 0xfe, 60, 0, 2, 30, 0, 5))
	f.Add(append(encodeMatOps(200, false, matOp{op: 5, k: 4}), 3, 0, 0xfd, 0, 0, 1, 40, 0, 6, 9, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := 1 + 2*int(data[0])
		var opts []Option
		if data[1]&1 != 0 {
			opts = append(opts, WithStrictNonNegative())
		}
		lazy, err := NewLoaded(m, nil, 0, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		eager := MustNew(m, opts...)
		mustMatchEager(t, lazy, eager, "start")
		data = data[2:]
		for step := 0; len(data) >= 4 && step < 64; step++ {
			op, x, k := data[0]%8, (int(data[1])|int(data[2])<<8)%m, data[3]
			data = data[4:]
			var es []Entry
			if op == 5 {
				es, data = matEntries(data, int(k%6), m, lazy.StrictNonNegative())
			}
			before := snapshotBytes(t, eager)
			errLazy, errEager := matApply(lazy, op, x, k, es), matApply(eager, op, x, k, es)
			label := fmt.Sprintf("step %d (op %d, object %d, k %d)", step, op, x, k)
			if (errLazy == nil) != (errEager == nil) || errLazy != nil && errLazy.Error() != errEager.Error() {
				t.Fatalf("%s: lazy %v, eager %v", label, errLazy, errEager)
			}
			if errLazy != nil {
				if !bytes.Equal(snapshotBytes(t, lazy), before) || !bytes.Equal(snapshotBytes(t, eager), before) {
					t.Fatalf("%s: refused (%v) but changed a profile", label, errLazy)
				}
			}
			mustMatchEager(t, lazy, eager, label)
		}
	})
}

// matApply applies op to p: Add, Remove, AddN, RemoveN, ApplyDelta (k's
// low and high nibbles are the gross adds and removes), LoadEntries of es,
// Reset, or AddN of MaxMagnitude.
func matApply(p *Profile, op byte, x int, k byte, es []Entry) error {
	switch op {
	case 0:
		return p.Add(x)
	case 1:
		return p.Remove(x)
	case 2:
		return p.AddN(x, int64(k))
	case 3:
		return p.RemoveN(x, int64(k))
	case 4:
		adds, removes := uint64(k&0xf), uint64(k>>4)
		return p.ApplyDelta(Delta{Object: x, Delta: int64(adds) - int64(removes), Adds: adds, Removes: removes})
	case 5:
		adds, removes, err := EntrySums(es, p.StrictNonNegative(), 0)
		if err != nil {
			return err
		}
		p.LoadEntries(slices.Clone(es), adds, removes)
		return nil
	case 6:
		p.Reset()
		return nil
	default:
		return p.AddN(x, MaxMagnitude)
	}
}

// matEntries decodes up to n load entries of three bytes each (object low
// and high byte, signed frequency) from data, skipping repeated objects and
// making a strict load's frequencies positive, and returns them with the
// rest of data.
func matEntries(data []byte, n, m int, strict bool) ([]Entry, []byte) {
	var es []Entry
	for ; n > 0 && len(data) >= 3; n-- {
		x, f := (int(data[0])|int(data[1])<<8)%m, int64(int8(data[2]))
		data = data[3:]
		if f == 0 {
			f = 1
		}
		if strict && f < 0 {
			f = -f
		}
		if !slices.ContainsFunc(es, func(e Entry) bool { return e.Object == x }) {
			es = append(es, Entry{Object: x, Frequency: f})
		}
	}
	return es, data
}

// mustMatchEager fails unless lazy and eager answer every read alike and
// both pass CheckInvariants.
func mustMatchEager(t *testing.T, lazy, eager *Profile, label string) {
	t.Helper()
	for _, p := range []*Profile{lazy, eager} {
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants (n=%d of m=%d): %v", label, p.n, p.m, err)
		}
		for x := 0; x < p.Cap(); x++ {
			r, err := p.Rank(x)
			if err != nil {
				t.Fatalf("%s: Rank(%d): %v", label, x, err)
			}
			if e, err := p.AtRank(r); err != nil || e.Object != x {
				t.Fatalf("%s: AtRank(Rank(%d) = %d) = %v, %v (n=%d)", label, x, r, e, err, p.n)
			}
		}
	}
	if !slices.Equal(lazy.Frequencies(nil), eager.Frequencies(nil)) {
		t.Fatalf("%s: frequencies %v, eager %v", label, lazy.Frequencies(nil), eager.Frequencies(nil))
	}
	if l, e := lazy.Summarize(), eager.Summarize(); l != e {
		t.Fatalf("%s: summary %+v, eager %+v", label, l, e)
	}
	dist := eager.Distribution()
	if got := lazy.Distribution(); !slices.Equal(got, dist) {
		t.Fatalf("%s: distribution %v, eager %v", label, got, dist)
	}
	for _, fc := range dist {
		for f := fc.Freq - 1; f <= fc.Freq+1; f++ {
			if l, e := lazy.CountWithFrequencyAtLeast(f), eager.CountWithFrequencyAtLeast(f); l != e {
				t.Fatalf("%s: CountWithFrequencyAtLeast(%d) = %d, eager %d", label, f, l, e)
			}
			if l, e := lazy.CountWithFrequencyAtMost(f), eager.CountWithFrequencyAtMost(f); l != e {
				t.Fatalf("%s: CountWithFrequencyAtMost(%d) = %d, eager %d", label, f, l, e)
			}
		}
	}
	for r := 0; r < eager.Cap(); r++ {
		l, _ := lazy.AtRank(r)
		e, _ := eager.AtRank(r)
		if l.Frequency != e.Frequency {
			t.Fatalf("%s: AtRank(%d) frequency %d, eager %d", label, r, l.Frequency, e.Frequency)
		}
	}
	for _, all := range []func(*Profile) ([]int, int64, error){(*Profile).ModeAll, (*Profile).MinAll} {
		lo, lf, _ := all(lazy)
		eo, ef, _ := all(eager)
		slices.Sort(lo)
		slices.Sort(eo)
		if lf != ef || !slices.Equal(lo, eo) {
			t.Fatalf("%s: tied extremes %v at %d, eager %v at %d", label, lo, lf, eo, ef)
		}
	}
	lm, lt, _ := lazy.Mode()
	em, et, _ := eager.Mode()
	ln, lnt, _ := lazy.Min()
	en, ent, _ := eager.Min()
	if lm.Frequency != em.Frequency || lt != et || ln.Frequency != en.Frequency || lnt != ent {
		t.Fatalf("%s: Mode %v×%d Min %v×%d, eager %v×%d %v×%d", label, lm, lt, ln, lnt, em, et, en, ent)
	}
	freqs := func(es []Entry) []int64 {
		out := make([]int64, len(es))
		for i, e := range es {
			out[i] = e.Frequency
		}
		return out
	}
	for _, k := range []int{1, 3, eager.Cap()} {
		if !slices.Equal(freqs(lazy.TopK(k)), freqs(eager.TopK(k))) ||
			!slices.Equal(freqs(lazy.BottomK(k)), freqs(eager.BottomK(k))) {
			t.Fatalf("%s: TopK/BottomK(%d) frequencies differ", label, k)
		}
	}
	if !bytes.Equal(snapshotBytes(t, lazy), snapshotBytes(t, eager)) {
		t.Fatalf("%s: snapshots differ", label)
	}
	if c := lazy.Clone(); !bytes.Equal(snapshotBytes(t, c), snapshotBytes(t, eager)) || c.CheckInvariants() != nil {
		t.Fatalf("%s: clone differs", label)
	}
}

// snapshotBytes returns p's SPF1 snapshot.
func snapshotBytes(t *testing.T, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGrowShiftsMixedBlocks grows a profile holding negative, zero and
// positive blocks across several doublings and checks that no id's rank or
// count moves and that its memory follows the largest id in use.
func TestGrowShiftsMixedBlocks(t *testing.T) {
	const m = 1 << 12
	p, err := NewLoaded(m, []Entry{{Object: 0, Frequency: -2}, {Object: 5, Frequency: 3}, {Object: 9, Frequency: 3}, {Object: 11, Frequency: 1}}, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.n != 12 {
		t.Fatalf("loaded n = %d, want 12 (the largest object + 1)", p.n)
	}
	ranks := func() []int {
		out := make([]int, m)
		for x := range out {
			out[x], _ = p.Rank(x)
		}
		return out
	}
	want := ranks()
	for _, x := range []int{12, 100, 1000} {
		p.materialise(int32(x))
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("after growing past %d: %v", x, err)
		}
		if got := ranks(); !slices.Equal(got, want) {
			t.Fatalf("growing past %d moved ranks", x)
		}
	}
	if p.n != 1001 {
		t.Fatalf("n = %d after growing past 1000, want 1001", p.n)
	}
	if err := p.Add(2000); err != nil || p.n != 2002 {
		t.Fatalf("Add(2000): %v, n = %d, want 2002 (doubled)", err, p.n)
	}
	if err := p.Add(3000); err != nil || p.n != 4004 {
		t.Fatalf("Add(3000): %v, n = %d, want 4004 (doubled)", err, p.n)
	}
	if err := p.Add(4095); err != nil || p.n != m {
		t.Fatalf("Add(4095): %v, n = %d, want the capacity %d (doubling capped)", err, p.n, m)
	}
	if got := p.MemoryFootprint(); got > 12*m+16*int64(p.arena.capBlocks()) {
		t.Fatalf("footprint %d exceeds 12 B per slot", got)
	}
}

// BenchmarkGrow times the largest single growth of a shard of 2^19 ids: the
// materialised half, 2^18 ids, every one positive across 1000 blocks, grows
// to the capacity on an add of the first implicit id. That growth shifts
// every positive, so it is how long a writer of such a shard waits once.
func BenchmarkGrow(b *testing.B) {
	const m, n = 1 << 19, 1 << 18
	es := make([]Entry, n)
	for x := range es {
		es[x] = Entry{Object: x, Frequency: 1 + int64(x%1000)}
	}
	adds, _, err := EntrySums(es, true, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := NewLoaded(m, slices.Clone(es), adds, 0, WithStrictNonNegative())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := p.Add(n); err != nil {
			b.Fatal(err)
		}
		if p.n != m {
			b.Fatalf("n = %d, want %d", p.n, m)
		}
	}
}
