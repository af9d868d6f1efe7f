package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	p := mustProfile(t, 32)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		x := rng.Intn(32)
		if rng.Float64() < 0.7 {
			_ = p.Add(x)
		} else {
			_ = p.Remove(x)
		}
	}

	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	q, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatalf("restored profile invariants: %v", err)
	}

	if q.Cap() != p.Cap() || q.Total() != p.Total() || q.Active() != p.Active() {
		t.Errorf("restored summary mismatch: %+v vs %+v", q.Summarize(), p.Summarize())
	}
	pa, pr := p.Events()
	qa, qr := q.Events()
	if pa != qa || pr != qr {
		t.Errorf("restored event counters (%d,%d), want (%d,%d)", qa, qr, pa, pr)
	}
	for x := 0; x < 32; x++ {
		cp, _ := p.Count(x)
		cq, _ := q.Count(x)
		if cp != cq {
			t.Errorf("Count(%d): restored %d, want %d", x, cq, cp)
		}
	}
	// The restored profile must remain updatable.
	if err := q.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotPreservesStrictMode(t *testing.T) {
	p := mustProfile(t, 4, WithStrictNonNegative())
	_ = p.Add(1)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Remove(0); !errors.Is(err, ErrNegativeFrequency) {
		t.Errorf("restored profile lost strict mode: Remove error = %v", err)
	}
}

func TestSnapshotEmptyProfile(t *testing.T) {
	p := mustProfile(t, 0)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 0 {
		t.Errorf("restored capacity = %d, want 0", q.Cap())
	}
}

func TestReadSnapshotRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short magic": []byte("SP"),
		"bad magic":   []byte("XXXX\x00\x00\x00\x00"),
		"truncated":   append([]byte("SPF1\x00"), 0xFF), // uvarint cut short
	}
	for name, data := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: error = %v, want ErrBadSnapshot", name, err)
		}
	}

	// A valid header that promises more frequencies than it carries.
	p := mustProfile(t, 8)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(data[:len(data)-3])); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("truncated body: error = %v, want ErrBadSnapshot", err)
	}

	// Frequencies whose sum wraps int64, and counters that do not net to
	// them.
	for name, body := range map[string][]int64{
		"wrapping frequencies": {math.MaxInt64, math.MaxInt64, 2},
		"counters off the sum": {1, 2, 3},
	} {
		data := []byte("SPF1\x00\x03\x00\x00")
		for _, f := range body {
			data = binary.AppendVarint(data, f)
		}
		if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: error = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// FuzzReadSnapshot holds the SPF1 decoder behind sprofile.ReadSnapshot to
// the putback laws on arbitrary bytes: it never panics, a refusal wraps
// ErrBadSnapshot, and an accepted profile is consistent, ranks its objects
// by (frequency, id), and reads back from its own WriteSnapshot with the
// same frequencies and summary. Most seeds are zero-dominated, the shape
// whose zero block the load lays down in one pass.
func FuzzReadSnapshot(f *testing.F) {
	snapshot := func(flags byte, adds, removes uint64, freqs []int64) []byte {
		data := append([]byte("SPF1"), flags)
		data = binary.AppendUvarint(data, uint64(len(freqs)))
		data = binary.AppendUvarint(data, adds)
		data = binary.AppendUvarint(data, removes)
		for _, f := range freqs {
			data = binary.AppendVarint(data, f)
		}
		return data
	}
	sparse := make([]int64, 200)
	sparse[3], sparse[150], sparse[199] = 7, 2, 7
	f.Add(snapshot(1, 16, 0, sparse))
	f.Add(snapshot(0, 2, 3, []int64{0, 0, -2, 0, 0, 1, 0, 0, -1, 0, 1, 0}))
	f.Add(snapshot(1, 0, 0, make([]int64, 64)))
	f.Add(snapshot(0, 1, 0, append(make([]int64, 99), 1)))
	f.Add(snapshot(0, 9, 4, []int64{3, -1, 2, -3, 4}))
	f.Add(snapshot(0, MaxMagnitude, MaxMagnitude, []int64{MaxMagnitude, -MaxMagnitude, 0}))
	f.Add(snapshot(0, 0, 0, nil))
	f.Add([]byte("SPF1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("refusal %v does not wrap ErrBadSnapshot", err)
			}
			return
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot: %v", err)
		}
		for r := 1; r < p.Cap(); r++ {
			a, _ := p.AtRank(r - 1)
			b, _ := p.AtRank(r)
			if a.Frequency > b.Frequency || a.Frequency == b.Frequency && a.Object > b.Object {
				t.Fatalf("rank %d holds %+v after %+v, not in (frequency, id) order", r, b, a)
			}
		}
		var buf bytes.Buffer
		if err := p.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		q, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("reading back its own snapshot: %v", err)
		}
		if !slices.Equal(q.Frequencies(nil), p.Frequencies(nil)) || q.Summarize() != p.Summarize() ||
			q.StrictNonNegative() != p.StrictNonNegative() {
			t.Fatalf("read back %+v, want %+v", q.Summarize(), p.Summarize())
		}
	})
}

// TestLoadFrequenciesBoundsCounts pins MaxMagnitude on loads: counters past
// it, or frequencies whose positive or negative sum passes it, are
// ErrBadSnapshot and leave the profile as it was; loads at the bound work.
func TestLoadFrequenciesBoundsCounts(t *testing.T) {
	const bound = MaxMagnitude
	for _, tc := range []struct {
		name          string
		strict        bool
		freqs         []int64
		adds, removes uint64
	}{
		{"sum wrapping int64", true, []int64{math.MaxInt64, math.MaxInt64, 2}, 0, 0},
		{"positive sum past the bound", false, []int64{bound, 1, 0}, bound + 1, 0},
		{"negative sum past the bound", false, []int64{-bound, -1, 0}, 0, bound + 1},
		{"MinInt64", false, []int64{math.MinInt64, 0, 0}, 0, 1 << 63},
		{"counters past the bound", false, []int64{0, 0, 0}, bound + 1, bound + 1},
	} {
		var opts []Option
		if tc.strict {
			opts = append(opts, WithStrictNonNegative())
		}
		p := MustNew(3, opts...)
		if err := p.AddN(1, 5); err != nil {
			t.Fatal(err)
		}
		before := p.Summarize()
		if err := p.LoadFrequencies(tc.freqs, tc.adds, tc.removes); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: load = %v, want ErrBadSnapshot", tc.name, err)
		}
		if after := p.Summarize(); after != before {
			t.Errorf("%s: refused load changed the profile to %+v, want %+v", tc.name, after, before)
		}
	}
	p := MustNew(3)
	for _, load := range []struct {
		freqs         []int64
		adds, removes uint64
	}{{[]int64{bound, -bound, 0}, 0, 0}, {[]int64{bound, 0, 0}, bound, 0}, {[]int64{0, 0, -bound}, 0, bound}} {
		if err := p.LoadFrequencies(load.freqs, load.adds, load.removes); err != nil {
			t.Fatalf("load of %v at the bound: %v", load.freqs, err)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFromFrequenciesValidation(t *testing.T) {
	if _, err := FromFrequencies([]int64{1, -1}, WithStrictNonNegative()); !errors.Is(err, ErrNegativeFrequency) {
		t.Errorf("strict FromFrequencies with negative input error = %v, want ErrNegativeFrequency", err)
	}
	// Frequencies whose sums pass MaxMagnitude: the events they stand for
	// would be refused, and so would the profile's own snapshot.
	for _, freqs := range [][]int64{
		{math.MaxInt64, 1},
		{MaxMagnitude, 1},
		{-MaxMagnitude, 0, -1},
		{math.MinInt64},
	} {
		if _, err := FromFrequencies(freqs); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("FromFrequencies(%v) error = %v, want ErrOutOfRange", freqs, err)
		}
	}
	for _, freqs := range [][]int64{{MaxMagnitude, 0}, {MaxMagnitude, -MaxMagnitude}} {
		p, err := FromFrequencies(freqs)
		if err != nil {
			t.Fatalf("FromFrequencies(%v) at the bound: %v", freqs, err)
		}
		var buf bytes.Buffer
		if err := p.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); err != nil {
			t.Errorf("FromFrequencies(%v): reading its own snapshot: %v", freqs, err)
		}
	}
	p, err := FromFrequencies(nil)
	if err != nil {
		t.Fatalf("FromFrequencies(nil): %v", err)
	}
	if p.Cap() != 0 {
		t.Errorf("Cap = %d, want 0", p.Cap())
	}
}

func TestFromFrequenciesEventAttribution(t *testing.T) {
	p, err := FromFrequencies([]int64{3, -2, 0})
	if err != nil {
		t.Fatal(err)
	}
	adds, removes := p.Events()
	if adds != 3 || removes != 2 {
		t.Errorf("Events = (%d,%d), want (3,2)", adds, removes)
	}
	if p.Total() != 1 {
		t.Errorf("Total = %d, want 1", p.Total())
	}
}

func TestClone(t *testing.T) {
	p := mustProfile(t, 16)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		_ = p.Add(rng.Intn(16))
	}
	q := p.Clone()
	if err := q.CheckInvariants(); err != nil {
		t.Fatalf("clone invariants: %v", err)
	}
	// Mutating the clone must not affect the original.
	before, _ := p.Count(3)
	for i := 0; i < 10; i++ {
		_ = q.Add(3)
	}
	after, _ := p.Count(3)
	if before != after {
		t.Errorf("mutating clone changed original: %d -> %d", before, after)
	}
	qc, _ := q.Count(3)
	if qc != before+10 {
		t.Errorf("clone Count(3) = %d, want %d", qc, before+10)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFrequencies(t *testing.T) {
	p := MustNew(5)
	// Build a reference history: object 1 has 3 adds and 1 remove (net 2).
	freqs := []int64{0, 2, -1, 4, 0}
	// Historical counters: synthetic minimum is adds=6, removes=1; two extra
	// cancelled pairs on top must be preserved verbatim.
	if err := p.LoadFrequencies(freqs, 8, 3); err != nil {
		t.Fatal(err)
	}
	for x, want := range freqs {
		if got, _ := p.Count(x); got != want {
			t.Fatalf("Count(%d) = %d, want %d", x, got, want)
		}
	}
	adds, removes := p.Events()
	if adds != 8 || removes != 3 {
		t.Fatalf("events = %d/%d, want 8/3", adds, removes)
	}
	if got := p.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants after load: %v", err)
	}

	// Reloading replaces the state rather than accumulating.
	if err := p.LoadFrequencies([]int64{1, 1, 1, 1, 1}, 5, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.Total(); got != 5 {
		t.Fatalf("Total after reload = %d, want 5", got)
	}

	// Length mismatch.
	if err := p.LoadFrequencies([]int64{1}, 1, 0); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("short load = %v, want ErrBadSnapshot", err)
	}
	// Counters that do not net to the frequencies.
	if err := p.LoadFrequencies([]int64{1, 0, 0, 0, 0}, 2, 0); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("inconsistent counters = %v, want ErrBadSnapshot", err)
	}
	// Strict profiles reject negative loads, without mutating.
	strict := MustNew(2, WithStrictNonNegative())
	if err := strict.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := strict.LoadFrequencies([]int64{1, -1}, 1, 1); !errors.Is(err, ErrNegativeFrequency) {
		t.Fatalf("strict negative load = %v, want ErrNegativeFrequency", err)
	}
	if got, _ := strict.Count(0); got != 1 {
		t.Fatalf("failed load mutated the profile: Count(0) = %d, want 1", got)
	}
	if !strict.StrictNonNegative() {
		t.Fatal("StrictNonNegative accessor = false on a strict profile")
	}
}

// TestLoadRankOrderMatchesComparisonSort pins the radix rank order of a load
// to the order a comparison sort by (frequency, object id) gives, across
// signs, the int64 extremes, all-equal and duplicate-heavy frequencies, and
// zero-dominated ones, whose zero block the load lays down in one pass. Each
// case loads its entries in object order and shuffled, which must rank the
// same.
func TestLoadRankOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	random := func(m int, draw func() int64) []int64 {
		freqs := make([]int64, m)
		for i := range freqs {
			freqs[i] = draw()
		}
		return freqs
	}
	lastOnly := make([]int64, 1000)
	lastOnly[len(lastOnly)-1] = 3
	cases := map[string][]int64{
		"empty":          {},
		"single":         {-7},
		"all zero":       make([]int64, 40),
		"all equal":      {-3, -3, -3, -3, -3},
		"negative mix":   {3, -1, 0, -200, 5, -1, 70000, -70000, 2},
		"extremes":       {math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1, math.MinInt64, math.MaxInt64},
		"duplicates":     random(500, func() int64 { return int64(rng.Intn(4)) - 1 }),
		"small range":    random(1000, func() int64 { return int64(rng.Intn(300)) }),
		"wide range":     random(1000, func() int64 { return rng.Int63n(1<<40) - 1<<39 }),
		"full int64":     random(1000, func() int64 { return int64(rng.Uint64()) }),
		"one high digit": random(300, func() int64 { return int64(rng.Intn(3)) << 56 }),
		"1% nonzero of 2^16": random(1<<16, func() int64 {
			if rng.Intn(100) != 0 {
				return 0
			}
			return 1 + rng.Int63n(1<<20)
		}),
		"last id only": lastOnly,
		"negatives among zeros": random(2000, func() int64 {
			if rng.Intn(10) != 0 {
				return 0
			}
			return int64(rng.Intn(7)) - 3
		}),
		"no zeros": random(1000, func() int64 {
			if f := int64(rng.Intn(9)) - 4; f != 0 {
				return f
			}
			return 5
		}),
	}
	for name, freqs := range cases {
		want := make([]int32, len(freqs))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortFunc(want, func(a, b int32) int {
			if c := cmp.Compare(freqs[a], freqs[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		shuffled := Nonzero(freqs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for order, es := range map[string][]Entry{"in object order": Nonzero(freqs), "shuffled": shuffled} {
			p := newProfile(int32(len(freqs)), Options{})
			p.LoadEntries(es, 0, 0)
			got := make([]int32, len(freqs))
			for r := range got {
				e, _ := p.AtRank(r)
				got[r] = int32(e.Object)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %s: rank order %v, want %v", name, order, got, want)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("%s, %s: invariants after load: %v", name, order, err)
			}
			for x, f := range freqs {
				if got, _ := p.Count(x); got != f {
					t.Fatalf("%s, %s: Count(%d) = %d, want %d", name, order, x, got, f)
				}
			}
		}
	}
}
