package core

import (
	"fmt"
	"math"
)

// This file implements the delta-batched update path. The paper's structure
// pays O(1) per ±1 event; real traffic arrives in batches that are heavily
// skewed, so the same hot object often moves many times inside one batch.
// Coalescing a batch into net per-object deltas and applying each delta with
// one block-boundary walk turns k repeated ±1 steps for a hot object into a
// single O(blocks crossed) move — a hot object going +500 in one batch
// crosses a handful of distinct frequency values, not 500 ranks.

// MaxMagnitude bounds the counts a profile takes in bulk. A delta (AddN,
// RemoveN, ApplyDelta) that would take a frequency or the adds or removes
// counter past ±MaxMagnitude is refused with ErrOutOfRange, and a load
// (LoadFrequencies, ReadSnapshot) past it with ErrBadSnapshot; either leaves
// the profile unchanged. The total, which is adds minus removes, stays
// within the bound with them. At half of MaxInt64 the bound leaves the ±1
// Add and Remove path 2^62 events of headroom before anything could wrap,
// so that path is not checked.
const MaxMagnitude = math.MaxInt64 / 2

// outside reports whether v+delta lies outside ±MaxMagnitude, for any v and
// delta, without overflowing.
func outside(v, delta int64) bool {
	if delta >= 0 {
		return v > MaxMagnitude-delta
	}
	return v < -MaxMagnitude-delta
}

// checkStep refuses to move object x from frequency f by delta, recording
// adds and removes gross events, when that would take the frequency or a
// counter past MaxMagnitude.
func (p *Profile) checkStep(x int, f, delta int64, adds, removes uint64) error {
	if adds > MaxMagnitude || removes > MaxMagnitude || p.adds > MaxMagnitude-adds || p.removes > MaxMagnitude-removes {
		return fmt.Errorf("%w: %d adds and %d removes for object %d take the event counters (%d, %d) past %d",
			ErrOutOfRange, adds, removes, x, p.adds, p.removes, uint64(MaxMagnitude))
	}
	if outside(f, delta) {
		return fmt.Errorf("%w: delta %+d takes object %d from frequency %d past ±%d",
			ErrOutOfRange, delta, x, f, int64(MaxMagnitude))
	}
	return nil
}

// Delta is the net effect of a coalesced run of events on one object.
//
// Adds and Removes record the gross event counts the delta coalesces, so a
// profile applying the delta keeps its adds/removes counters identical to the
// per-event path (Adds - Removes must equal Delta). When both are zero and
// Delta is nonzero, the minimal gross counts are assumed (Delta adds or
// -Delta removes). A Delta of zero with nonzero gross counts is a valid
// record of events that cancelled out: it moves no frequency but still
// advances the counters.
type Delta struct {
	Object        int
	Delta         int64
	Adds, Removes uint64
}

// Gross returns the delta's gross event counts, synthesizing the minimal
// counts implied by the net delta when both are zero. It is the single
// normalization rule shared by everything that applies or journals a delta,
// so the write-ahead-log record of a delta always matches its in-memory
// effect.
func (d Delta) Gross() (adds, removes uint64) {
	adds, removes = d.Adds, d.Removes
	if adds == 0 && removes == 0 {
		switch {
		case d.Delta > 0:
			adds = uint64(d.Delta)
		case d.Delta < 0:
			removes = uint64(-d.Delta)
		}
	}
	return adds, removes
}

// AddN raises the frequency of object x by k in one step, exactly as k Add
// calls would but at cost O(blocks crossed) instead of O(k). k must be
// non-negative and within MaxMagnitude; k = 0 is a no-op.
func (p *Profile) AddN(x int, k int64) error {
	if x < 0 || int32(x) >= p.m {
		return errObjectRange(x, int(p.m))
	}
	if k < 0 {
		return fmt.Errorf("%w: negative add count %d for object %d", ErrOutOfRange, k, x)
	}
	if k == 0 {
		return nil
	}
	if err := p.checkStep(x, p.arena.at(p.ptrB[p.fToT[x]]).f, k, uint64(k), 0); err != nil {
		return err
	}
	p.addN(int32(x), k)
	return nil
}

// RemoveN lowers the frequency of object x by k in one step, exactly as k
// Remove calls would but at cost O(blocks crossed) instead of O(k). In strict
// mode the check applies to the net result: RemoveN fails with
// ErrNegativeFrequency if the final frequency would be negative, and leaves
// the profile unchanged. k must be non-negative and within MaxMagnitude;
// k = 0 is a no-op.
func (p *Profile) RemoveN(x int, k int64) error {
	if x < 0 || int32(x) >= p.m {
		return errObjectRange(x, int(p.m))
	}
	if k < 0 {
		return fmt.Errorf("%w: negative remove count %d for object %d", ErrOutOfRange, k, x)
	}
	if k == 0 {
		return nil
	}
	f := p.arena.at(p.ptrB[p.fToT[x]]).f
	if err := p.checkStep(x, f, -k, 0, uint64(k)); err != nil {
		return err
	}
	if p.opts.StrictNonNegative && f-k < 0 {
		return fmt.Errorf("%w: object %d has frequency %d, removing %d", ErrNegativeFrequency, x, f, k)
	}
	p.removeN(int32(x), k)
	return nil
}

// ApplyDelta applies one coalesced delta. Strict mode checks the net result:
// a delta whose final frequency is non-negative succeeds even if some
// per-event interleaving of its gross counts would have failed mid-way
// (e.g. a remove arriving before the add that covers it). A delta that
// would take the frequency or a counter past MaxMagnitude fails with
// ErrOutOfRange.
func (p *Profile) ApplyDelta(d Delta) error {
	x := d.Object
	if x < 0 || int32(x) >= p.m {
		return errObjectRange(x, int(p.m))
	}
	adds, removes := d.Gross()
	if adds == 0 && removes == 0 {
		return nil
	}
	f := p.arena.at(p.ptrB[p.fToT[x]]).f
	if err := p.checkStep(x, f, d.Delta, adds, removes); err != nil {
		return err
	}
	if int64(adds)-int64(removes) != d.Delta {
		return fmt.Errorf("core: delta for object %d nets %+d but records %d adds and %d removes",
			x, d.Delta, adds, removes)
	}
	switch {
	case d.Delta > 0:
		p.addN(int32(x), d.Delta)
	case d.Delta < 0:
		if p.opts.StrictNonNegative && f+d.Delta < 0 {
			return fmt.Errorf("%w: object %d has frequency %d, delta %+d", ErrNegativeFrequency, x, f, d.Delta)
		}
		p.removeN(int32(x), -d.Delta)
	}
	// The structural move counted only the net events; credit the cancelled
	// add/remove pairs so the counters match the per-event path.
	var cancelled uint64
	if d.Delta > 0 {
		cancelled = adds - uint64(d.Delta)
	} else {
		cancelled = adds
	}
	p.adds += cancelled
	p.removes += cancelled
	return nil
}

// ApplyDeltas applies deltas in order, stopping at the first error; it
// returns the number of deltas applied. Combined with a Coalescer it is the
// batch fast path: state-identical to applying the original events one by
// one (including the adds/removes counters), at a cost of one block-boundary
// walk per distinct object instead of one block operation per event.
func (p *Profile) ApplyDeltas(deltas []Delta) (int, error) {
	for i := range deltas {
		if err := p.ApplyDelta(deltas[i]); err != nil {
			countApplied(i, err)
			return i, err
		}
	}
	countApplied(len(deltas), nil)
	return len(deltas), nil
}

// addN is the generalised Algorithm 1 "add" branch: the frequency of object
// x rises from f to f+k in one pass. x is detached from its block and then
// walked right across whole blocks whose frequency is below the target —
// each crossing is O(1), swapping x with the crossed block's rightmost
// member and shifting the block one rank left — before landing by joining an
// existing f+k block or opening a fresh singleton.
func (p *Profile) addN(x int32, k int64) {
	r0 := p.fToT[x]
	bh := p.ptrB[r0]
	b := p.arena.at(bh)
	f := b.f
	target := f + k
	last := b.r

	if r0 != last {
		y := p.tToF[last]
		p.tToF[last] = x
		p.tToF[r0] = y
		p.fToT[x] = last
		p.fToT[y] = r0
	}
	b.r--
	if b.r < b.l {
		p.arena.release(bh)
	}

	pos := last
	for pos < p.m-1 {
		nh := p.ptrB[pos+1]
		nb := p.arena.at(nh)
		if nb.f >= target {
			break
		}
		// Move x past nb: swap with its rightmost member and shift the block
		// one rank left. The block keeps its size, so it can never empty.
		r := nb.r
		y := p.tToF[r]
		p.tToF[pos] = y
		p.tToF[r] = x
		p.fToT[y] = pos
		p.fToT[x] = r
		nb.l = pos
		nb.r = r - 1
		p.ptrB[pos] = nh
		pos = r
	}

	if pos < p.m-1 && p.arena.at(p.ptrB[pos+1]).f == target {
		nh := p.ptrB[pos+1]
		p.arena.at(nh).l = pos
		p.ptrB[pos] = nh
	} else {
		// alloc may grow the slab; no block pointer is dereferenced after it.
		nh := p.arena.alloc(pos, pos, target)
		p.ptrB[pos] = nh
	}

	p.total += k
	p.adds += uint64(k)
	if f <= 0 && target > 0 {
		p.active++
	}
	if f < 0 && target >= 0 {
		p.negative--
	}
}

// removeN is the mirror image of addN: the frequency of object x drops from
// f to f-k, walking x left across whole blocks whose frequency is above the
// target.
func (p *Profile) removeN(x int32, k int64) {
	r0 := p.fToT[x]
	bh := p.ptrB[r0]
	b := p.arena.at(bh)
	f := b.f
	target := f - k
	first := b.l

	if r0 != first {
		y := p.tToF[first]
		p.tToF[first] = x
		p.tToF[r0] = y
		p.fToT[x] = first
		p.fToT[y] = r0
	}
	b.l++
	if b.r < b.l {
		p.arena.release(bh)
	}

	pos := first
	for pos > 0 {
		ph := p.ptrB[pos-1]
		pb := p.arena.at(ph)
		if pb.f <= target {
			break
		}
		l := pb.l
		y := p.tToF[l]
		p.tToF[pos] = y
		p.tToF[l] = x
		p.fToT[y] = pos
		p.fToT[x] = l
		pb.l = l + 1
		pb.r = pos
		p.ptrB[pos] = ph
		pos = l
	}

	if pos > 0 && p.arena.at(p.ptrB[pos-1]).f == target {
		ph := p.ptrB[pos-1]
		p.arena.at(ph).r = pos
		p.ptrB[pos] = ph
	} else {
		nh := p.arena.alloc(pos, pos, target)
		p.ptrB[pos] = nh
	}

	p.total -= k
	p.removes += uint64(k)
	if f > 0 && target <= 0 {
		p.active--
	}
	if f >= 0 && target < 0 {
		p.negative++
	}
}

// Coalescer folds a tuple batch into net per-object deltas. It keeps an
// m-sized scratch index and a reusable delta buffer, so steady-state
// coalescing allocates nothing. A Coalescer is not safe for concurrent use;
// the returned slice is valid until the next Coalesce call.
type Coalescer struct {
	m      int
	pos    []int32 // object -> index into deltas for the current batch, -1 = absent
	deltas []Delta
}

// NewCoalescer returns a Coalescer for object ids in [0, m).
func NewCoalescer(m int) (*Coalescer, error) {
	if m < 0 || m > MaxCapacity {
		return nil, fmt.Errorf("%w: %d", ErrCapacity, m)
	}
	pos := make([]int32, m)
	for i := range pos {
		pos[i] = -1
	}
	return &Coalescer{m: m, pos: pos}, nil
}

// Coalesce folds tuples into one Delta per distinct object, in first-touch
// order, recording both the net frequency change and the gross add/remove
// counts. Objects whose events cancel out are kept (with Delta zero), so
// applying the result still advances the event counters exactly like the
// per-event path. An out-of-range object or invalid action fails without
// producing a partial result.
func (c *Coalescer) Coalesce(tuples []Tuple) ([]Delta, error) {
	// Reset the index entries the previous batch touched.
	for i := range c.deltas {
		c.pos[c.deltas[i].Object] = -1
	}
	c.deltas = c.deltas[:0]
	for _, t := range tuples {
		if t.Object < 0 || t.Object >= c.m {
			return nil, errObjectRange(t.Object, c.m)
		}
		j := c.pos[t.Object]
		if j < 0 {
			j = int32(len(c.deltas))
			c.deltas = append(c.deltas, Delta{Object: t.Object})
			c.pos[t.Object] = j
		}
		d := &c.deltas[j]
		switch t.Action {
		case ActionAdd:
			d.Delta++
			d.Adds++
		case ActionRemove:
			d.Delta--
			d.Removes++
		default:
			return nil, fmt.Errorf("core: invalid action %d", t.Action)
		}
	}
	mCoalesceEvents.Add(uint64(len(tuples)))
	mCoalescedDeltas.Add(uint64(len(c.deltas)))
	return c.deltas, nil
}
