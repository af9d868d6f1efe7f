package core

import (
	"fmt"
	"math"
)

// Entry pairs an object id with its frequency; query results are reported as
// entries. The JSON form is the one the composite-query wire format uses.
type Entry struct {
	Object    int   `json:"object"`
	Frequency int64 `json:"frequency"`
}

// FreqCount is one point of the frequency distribution: Count objects
// currently have frequency Freq.
type FreqCount struct {
	Freq  int64 `json:"freq"`
	Count int   `json:"count"`
}

// Mode returns one object with the maximum frequency, that frequency, and
// the number of objects sharing it. The representative is the object at the
// highest rank; ModeAll returns all of them.
func (p *Profile) Mode() (Entry, int, error) {
	if p.m == 0 {
		return Entry{}, 0, ErrEmptyProfile
	}
	if p.active == 0 && p.n < p.m {
		// The implicit zeros top the order, id m-1 highest among them, and
		// tie with every zero.
		return Entry{Object: int(p.m - 1)}, int(p.m - p.negative), nil
	}
	// Otherwise the top materialised block holds the mode. This read
	// inlines: the paper reads Mode after every tuple, and through span and
	// entry its benchmark ran measurably slower.
	b := p.arena.slab[p.ptrB[p.n-1]]
	return Entry{Object: int(p.tToF[p.n-1]), Frequency: b.f}, b.size(), nil
}

// ModeAll returns every object whose frequency equals the maximum, along
// with that frequency. The cost is proportional to the number of modes.
func (p *Profile) ModeAll() ([]int, int64, error) {
	if p.m == 0 {
		return nil, 0, ErrEmptyProfile
	}
	objs, f := p.objects(p.m - 1)
	return objs, f, nil
}

// Min returns one object with the minimum frequency, that frequency, and the
// number of objects sharing it (paper steps 29a/30a).
func (p *Profile) Min() (Entry, int, error) {
	if p.m == 0 {
		return Entry{}, 0, ErrEmptyProfile
	}
	l, h, _ := p.span(0)
	return p.entry(0), int(h-l) + 1, nil
}

// MinAll returns every object whose frequency equals the minimum, along with
// that frequency.
func (p *Profile) MinAll() ([]int, int64, error) {
	if p.m == 0 {
		return nil, 0, ErrEmptyProfile
	}
	objs, f := p.objects(0)
	return objs, f, nil
}

// objects returns the objects of the block holding rank r, in rank order,
// and its frequency.
func (p *Profile) objects(r int32) ([]int, int64) {
	l, h, f := p.span(r)
	objs := make([]int, 0, h-l+1)
	for r := l; r <= h; r++ {
		objs = append(objs, p.entry(r).Object)
	}
	return objs, f
}

// Max is an alias for Mode's frequency: the largest frequency currently held
// by any object.
func (p *Profile) Max() (int64, error) {
	if p.m == 0 {
		return 0, ErrEmptyProfile
	}
	return p.entry(p.m - 1).Frequency, nil
}

// KthLargest returns the object holding the k-th largest frequency
// (1-based: k=1 is the mode representative). Ties within a block are broken
// by block position.
func (p *Profile) KthLargest(k int) (Entry, error) {
	if k < 1 || k > int(p.m) {
		return Entry{}, errBadRank(k, int(p.m))
	}
	return p.entry(p.m - int32(k)), nil
}

// KthSmallest returns the object holding the k-th smallest frequency
// (1-based: k=1 is the minimum representative).
func (p *Profile) KthSmallest(k int) (Entry, error) {
	if k < 1 || k > int(p.m) {
		return Entry{}, errBadRank(k, int(p.m))
	}
	return p.entry(int32(k) - 1), nil
}

// AtRank returns the entry at 0-based rank r of the ascending-sorted
// frequency array (rank 0 is the minimum, rank m-1 the maximum).
func (p *Profile) AtRank(r int) (Entry, error) {
	if r < 0 || r >= int(p.m) {
		return Entry{}, errBadRank(r, int(p.m))
	}
	if p.n < p.m {
		return p.entry(int32(r)), nil
	}
	// With every id materialised the rank is physical. The paper reads
	// Median after every tuple, and through entry its benchmark ran
	// measurably slower.
	return Entry{Object: int(p.tToF[r]), Frequency: p.arena.at(p.ptrB[r]).f}, nil
}

// TopK returns the k objects with the largest frequencies in non-increasing
// frequency order. If k exceeds m every object is returned. Cost O(k).
func (p *Profile) TopK(k int) []Entry {
	if k <= 0 || p.m == 0 {
		return nil
	}
	k = min(k, int(p.m))
	out := make([]Entry, 0, k)
	for i := range int32(k) {
		out = append(out, p.entry(p.m-1-i))
	}
	return out
}

// BottomK returns the k objects with the smallest frequencies in
// non-decreasing frequency order.
func (p *Profile) BottomK(k int) []Entry {
	if k <= 0 || p.m == 0 {
		return nil
	}
	k = min(k, int(p.m))
	out := make([]Entry, 0, k)
	for i := range int32(k) {
		out = append(out, p.entry(i))
	}
	return out
}

// Median returns the lower-median entry of the frequency multiset over all m
// object slots: the element at rank floor((m-1)/2) of the sorted array.
func (p *Profile) Median() (Entry, error) {
	if p.m == 0 {
		return Entry{}, ErrEmptyProfile
	}
	return p.AtRank(int((p.m - 1) / 2))
}

// QuantileRank maps quantile q (clamped to [0, 1]) to the 0-based rank of
// the nearest element of an ascending m-element frequency array: the integer
// closest to q*(m-1). Every quantile query in the module — single profile or
// sharded merge — goes through this one function so the implementations can
// never disagree on rounding (truncating q*(m-1) would, e.g., send q=0.7 over
// m=11 slots to rank 6 instead of the nearest rank 7).
func QuantileRank(q float64, m int) int {
	if m <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return int(math.Round(q * float64(m-1)))
}

// CheckQuantile rejects quantile arguments no rank can be derived from. NaN
// is the only such value: finite arguments outside [0, 1] are clamped by
// QuantileRank (q = -0.3 answers like q = 0, q = 1.7 like q = 1), a contract
// every variant shares and the conformance suite pins.
func CheckQuantile(q float64) error {
	if math.IsNaN(q) {
		return fmt.Errorf("%w: quantile is NaN", ErrBadRank)
	}
	return nil
}

// Quantile returns the entry at quantile q in [0, 1] of the frequency
// multiset (q=0 minimum, q=0.5 median, q=1 maximum), using the
// nearest-rank definition of QuantileRank. Finite q outside [0, 1] is
// clamped; NaN is an error (see CheckQuantile).
func (p *Profile) Quantile(q float64) (Entry, error) {
	if p.m == 0 {
		return Entry{}, ErrEmptyProfile
	}
	if err := CheckQuantile(q); err != nil {
		return Entry{}, err
	}
	return p.AtRank(QuantileRank(q, int(p.m)))
}

// Majority returns the object whose frequency exceeds half of the total
// count, if one exists. Following Boyer–Moore semantics the total is the sum
// of all frequencies; only meaningful when all frequencies are non-negative.
func (p *Profile) Majority() (Entry, bool, error) {
	if p.m == 0 {
		return Entry{}, false, ErrEmptyProfile
	}
	e, _, err := p.Mode()
	if err != nil {
		return Entry{}, false, err
	}
	if p.total > 0 && e.Frequency*2 > p.total {
		return e, true, nil
	}
	return Entry{}, false, nil
}

// Distribution returns the frequency histogram in ascending frequency order:
// one FreqCount per distinct frequency currently present. Cost O(#blocks):
// it walks the materialised blocks and counts the implicit zeros with the
// zero block, which they form alone when no materialised id is zero.
func (p *Profile) Distribution() []FreqCount {
	if p.m == 0 {
		return nil
	}
	out := make([]FreqCount, 0, p.Blocks())
	implicit := int(p.m - p.n) // the implicit zeros not yet counted
	for r := int32(0); r < p.n; {
		b := p.arena.at(p.ptrB[r])
		c := b.size()
		switch {
		case b.f == 0:
			c += implicit
			implicit = 0
		case b.f > 0 && implicit > 0:
			out = append(out, FreqCount{Count: implicit})
			implicit = 0
		}
		out = append(out, FreqCount{Freq: b.f, Count: c})
		r = b.r + 1
	}
	if implicit > 0 {
		out = append(out, FreqCount{Count: implicit})
	}
	return out
}

// CountWithFrequencyAtLeast returns how many objects currently have
// frequency >= f. Cost O(#blocks) via a scan of the block chain from the top.
func (p *Profile) CountWithFrequencyAtLeast(f int64) int {
	n := 0
	if f <= 0 {
		n = int(p.m - p.n) // the implicit zeros
	}
	for r := p.n - 1; r >= 0; {
		b := p.arena.at(p.ptrB[r])
		if b.f < f {
			break
		}
		n += b.size()
		r = b.l - 1
	}
	return n
}

// CountWithFrequencyAtMost returns how many objects currently have
// frequency <= f. Cost O(#blocks) via a scan of the block chain from the
// bottom.
func (p *Profile) CountWithFrequencyAtMost(f int64) int {
	n := 0
	if f >= 0 {
		n = int(p.m - p.n) // the implicit zeros
	}
	for r := int32(0); r < p.n; {
		b := p.arena.at(p.ptrB[r])
		if b.f > f {
			break
		}
		n += b.size()
		r = b.r + 1
	}
	return n
}

// CountWithFrequencyInRange returns how many objects currently have a
// frequency in the inclusive range [lo, hi]. Cost O(#blocks).
func (p *Profile) CountWithFrequencyInRange(lo, hi int64) int {
	if hi < lo {
		return 0
	}
	return p.CountWithFrequencyAtMost(hi) - p.CountWithFrequencyAtMost(lo-1)
}

// DistinctFrequencies returns the number of distinct frequency values
// currently present (equal to the number of blocks).
func (p *Profile) DistinctFrequencies() int { return p.Blocks() }

// Snapshot of summary statistics; cheap to produce and useful for logging.
// The JSON form is the one the composite-query wire format uses.
type Summary struct {
	Capacity            int    `json:"capacity"`
	Total               int64  `json:"total"`
	Active              int    `json:"active"`
	Negative            int    `json:"negative"`
	DistinctFrequencies int    `json:"distinct_frequencies"`
	MaxFrequency        int64  `json:"max_frequency"`
	MinFrequency        int64  `json:"min_frequency"`
	Adds                uint64 `json:"adds"`
	Removes             uint64 `json:"removes"`
}

// Summarize returns the current summary statistics of the profile.
func (p *Profile) Summarize() Summary {
	s := Summary{
		Capacity:            int(p.m),
		Total:               p.total,
		Active:              int(p.active),
		Negative:            int(p.negative),
		DistinctFrequencies: p.Blocks(),
		Adds:                p.adds,
		Removes:             p.removes,
	}
	if p.m > 0 {
		s.MaxFrequency = p.entry(p.m - 1).Frequency
		s.MinFrequency = p.entry(0).Frequency
	}
	return s
}

// Frequencies copies every object's current frequency into dst (which must
// have length >= m) and returns the slice of length m. Passing nil allocates.
// Cost O(m); intended for debugging, testing and snapshots, not hot paths.
func (p *Profile) Frequencies(dst []int64) []int64 {
	if dst == nil || len(dst) < int(p.m) {
		dst = make([]int64, p.m)
	}
	dst = dst[:p.m]
	for r := int32(0); r < p.n; {
		b := p.arena.at(p.ptrB[r])
		for i := b.l; i <= b.r; i++ {
			dst[p.tToF[i]] = b.f
		}
		r = b.r + 1
	}
	clear(dst[p.n:])
	return dst
}

// AppendNonzero appends to dst an entry for every object of nonzero
// frequency, in rank order, with base added to its object, and returns the
// extended slice. Cost O(nonzero objects + blocks), whatever m is.
func (p *Profile) AppendNonzero(dst []Entry, base int) []Entry {
	for r := int32(0); r < p.n; {
		b := p.arena.at(p.ptrB[r])
		if b.f != 0 {
			for i := b.l; i <= b.r; i++ {
				dst = append(dst, Entry{Object: base + int(p.tToF[i]), Frequency: b.f})
			}
		}
		r = b.r + 1
	}
	return dst
}
