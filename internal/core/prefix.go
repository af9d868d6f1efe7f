package core

// The materialised prefix. A Profile's rank arrays cover only the ids
// [0, n), n <= m; the ids [n, m) are implicit zeros, held nowhere. Among
// themselves the materialised ids form an S-Profile of n slots, whose ranks
// are called physical. The implicit zeros sit in the zero block, after the
// materialised zeros and in id order, so the m-slot rank order is the
// physical one with m-n zeros inserted where the positives begin, at
// physical rank n-active:
//
//   - a materialised id of frequency <= 0 has its physical rank;
//   - a materialised id of positive frequency has its physical rank + m-n;
//   - the implicit id x has rank x-active.
//
// Every read maps its ranks this way in O(1). An accepted update of an id
// x >= n first grows n past x (materialise); the update itself is the
// paper's, on physical ranks.

// minGrow is the fewest ids a growth materialises.
const minGrow = 64

// materialise grows the materialised prefix to hold object x in [0, m) if
// it does not yet: to at least twice its size, and at least minGrow ids,
// capped at m. Every growth shifts the positives once, so the cost is
// amortised O(1) per materialised id.
func (p *Profile) materialise(x int32) {
	if x >= p.n {
		p.grow(int32(min(max(int(x)+1, 2*int(p.n), minGrow), int(p.m))))
	}
}

// grow materialises the ids [n, to) as zeros. Their physical ranks follow
// the materialised zeros in id order, exactly where they sat as implicit
// zeros, so no rank of the m slots changes: the positives and their blocks
// move up by to-n in the rank arrays, and the new ids join the zero block,
// or open it.
func (p *Profile) grow(to int32) {
	n, d := p.n, to-p.n
	if d <= 0 {
		return
	}
	pz := n - p.active // the first physical rank of the positives
	p.fToT = resize(p.fToT, to)
	p.tToF = resize(p.tToF, to)
	p.ptrB = resize(p.ptrB, to)
	copy(p.tToF[pz+d:], p.tToF[pz:n])
	copy(p.ptrB[pz+d:], p.ptrB[pz:n])
	for r := pz + d; r < to; r++ {
		p.fToT[p.tToF[r]] = r
	}
	for r := to - 1; r >= pz+d; {
		b := p.arena.at(p.ptrB[r])
		b.l += d
		b.r += d
		r = b.l - 1
	}
	zh := p.zeroBlock()
	if zh == noBlock {
		zh = p.arena.alloc(pz, pz+d-1, 0)
	} else {
		p.arena.at(zh).r += d
	}
	for i := range d {
		p.tToF[pz+i], p.fToT[n+i], p.ptrB[pz+i] = n+i, pz+i, zh
	}
	p.n = to
}

// resize returns s with length n and its contents kept, reallocating only
// when its capacity is short.
func resize(s []int32, n int32) []int32 {
	if int(n) <= cap(s) {
		return s[:n]
	}
	t := make([]int32, n)
	copy(t, s)
	return t
}

// zeroBlock returns the handle of the block of the materialised zeros, or
// noBlock when no materialised id is zero. The block ends just below the
// positives.
func (p *Profile) zeroBlock() int32 {
	if pz := p.n - p.active; pz > 0 {
		if h := p.ptrB[pz-1]; p.arena.at(h).f == 0 {
			return h
		}
	}
	return noBlock
}

// phys returns the physical rank that rank r in [0, m) maps to, or -1 when
// an implicit zero holds r.
func (p *Profile) phys(r int32) int32 {
	g, pz := p.m-p.n, p.n-p.active
	switch {
	case r >= pz+g:
		return r - g
	case r >= pz:
		return -1
	}
	return r
}

// entry returns the object at rank r in [0, m) and its frequency.
func (p *Profile) entry(r int32) Entry {
	pr := p.phys(r)
	if pr < 0 {
		return Entry{Object: int(r + p.active)}
	}
	return Entry{Object: int(p.tToF[pr]), Frequency: p.arena.at(p.ptrB[pr]).f}
}

// span returns the ranks [l, h] and the frequency of the block holding rank
// r in [0, m). The implicit zeros widen the zero block by m-n ranks, or
// form it alone when no materialised id is zero.
func (p *Profile) span(r int32) (l, h int32, f int64) {
	g := p.m - p.n
	pr := p.phys(r)
	if pr < 0 {
		l = p.n - p.active
		if zh := p.zeroBlock(); zh != noBlock {
			l = p.arena.at(zh).l
		}
		return l, p.n - p.active + g - 1, 0
	}
	b := p.arena.at(p.ptrB[pr])
	l, h = b.l, b.r
	if b.f > 0 {
		l += g
	}
	if b.f >= 0 {
		h += g
	}
	return l, h, b.f
}
