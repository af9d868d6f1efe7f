package core

import "fmt"

// CheckInvariants validates the internal consistency of the profile from
// first principles. It is O(n), n the materialised ids, and intended for
// tests and debugging; the production hot path never calls it.
//
// The checked properties are exactly the block-set definition from the paper
// over the materialised ids, plus the bookkeeping counters; the implicit
// zeros need no check beyond n <= m, since every read derives their ranks
// from n and the active count:
//
//  1. fToT and tToF, of length n <= m, are inverse permutations of [0, n).
//  2. Every rank's block covers that rank (PtrB[i].l <= i <= PtrB[i].r).
//  3. Blocks partition [0, n) into contiguous, non-overlapping runs.
//  4. Block frequencies are strictly increasing left to right (so the
//     conceptual array T is sorted and blocks are maximal).
//  5. The number of live arena blocks equals the number of distinct blocks
//     reachable from ptrB.
//  6. total, active and negative match the frequencies implied by the blocks.
func (p *Profile) CheckInvariants() error {
	m := int(p.n)
	if p.n < 0 || p.n > p.m {
		return fmt.Errorf("core: %d ids materialised of m=%d", p.n, p.m)
	}
	if len(p.fToT) != m || len(p.tToF) != m || len(p.ptrB) != m {
		return fmt.Errorf("core: array lengths %d/%d/%d do not match n=%d",
			len(p.fToT), len(p.tToF), len(p.ptrB), m)
	}

	// 1. Inverse permutations.
	for x := 0; x < m; x++ {
		r := p.fToT[x]
		if r < 0 || int(r) >= m {
			return fmt.Errorf("core: fToT[%d]=%d out of range", x, r)
		}
		if int(p.tToF[r]) != x {
			return fmt.Errorf("core: tToF[fToT[%d]]=%d, want %d", x, p.tToF[r], x)
		}
	}
	for r := 0; r < m; r++ {
		x := p.tToF[r]
		if x < 0 || int(x) >= m {
			return fmt.Errorf("core: tToF[%d]=%d out of range", r, x)
		}
		if int(p.fToT[x]) != r {
			return fmt.Errorf("core: fToT[tToF[%d]]=%d, want %d", r, p.fToT[x], r)
		}
	}

	// 2-4. Walk the block chain.
	seen := make(map[int32]bool)
	var (
		total    int64
		active   int
		negative int
		prevF    int64
		havePrev bool
	)
	for r := int32(0); int(r) < m; {
		h := p.ptrB[r]
		b := p.arena.at(h)
		if b.l != r {
			return fmt.Errorf("core: block at rank %d starts at %d", r, b.l)
		}
		if b.r < b.l || int(b.r) >= m {
			return fmt.Errorf("core: block [%d,%d] malformed (n=%d)", b.l, b.r, m)
		}
		if havePrev && b.f <= prevF {
			return fmt.Errorf("core: block frequency %d not greater than previous %d", b.f, prevF)
		}
		for i := b.l; i <= b.r; i++ {
			if p.ptrB[i] != h {
				return fmt.Errorf("core: ptrB[%d]=%d, want %d (block [%d,%d])",
					i, p.ptrB[i], h, b.l, b.r)
			}
		}
		if seen[h] {
			return fmt.Errorf("core: block handle %d reached twice", h)
		}
		seen[h] = true
		total += b.f * int64(b.size())
		if b.f > 0 {
			active += b.size()
		}
		if b.f < 0 {
			negative += b.size()
		}
		prevF, havePrev = b.f, true
		r = b.r + 1
	}

	// 5. Live block accounting.
	if len(seen) != p.arena.liveBlocks() {
		return fmt.Errorf("core: %d blocks reachable, arena reports %d live",
			len(seen), p.arena.liveBlocks())
	}

	// 6. Counters.
	if total != p.total {
		return fmt.Errorf("core: total=%d, blocks imply %d", p.total, total)
	}
	if active != int(p.active) {
		return fmt.Errorf("core: active=%d, blocks imply %d", p.active, active)
	}
	if negative != int(p.negative) {
		return fmt.Errorf("core: negative=%d, blocks imply %d", p.negative, negative)
	}
	return nil
}
