package sprofile

import "fmt"

// Dense returns k's dense profile, for tests that inspect its shards or its
// invariants.
func (k *KeyedConcurrent[K]) Dense() *Sharded { return k.dense }

// DenseFootprint returns the MemoryFootprint of the plain Profile NewKeyed
// built under k.
func (k *Keyed[K]) DenseFootprint() int64 { return k.profile.(*Profile).MemoryFootprint() }

// MemoryFootprint sums the shards' core.Profile.MemoryFootprint, each read
// under its shard's read lock: the bytes of their rank arrays and block
// slabs.
func (s *Sharded) MemoryFootprint() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.p.MemoryFootprint()
		sh.mu.RUnlock()
	}
	return total
}

// CheckInvariants checks every shard's core invariants (core.Profile's
// CheckInvariants) under that shard's read lock.
func (s *Sharded) CheckInvariants() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		err := sh.p.CheckInvariants()
		sh.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// CheckZeroSets verifies the recycling bookkeeping of k against its dense
// profile on one quiesced cut: each stripe's idle list must hold exactly
// that stripe's mapped ids whose dense Count is zero (and stay empty
// without key recycling), and every id's state word must record its
// position on that list, or none for an id that is active or unmapped.
func (k *KeyedConcurrent[K]) CheckZeroSets() error {
	var err error
	k.ids.Quiesce(func() {
		lists, pos := k.ids.IdleLocked()
		idle := make([]int, len(lists))
		mapped := make([]bool, len(pos))
		k.ids.RangeLocked(func(key []byte, id int) bool {
			mapped[id] = true
			f, cerr := k.dense.Count(id)
			if cerr != nil {
				err = cerr
				return false
			}
			si := k.ids.StripeOfHash(k.ids.HashBytes(key))
			switch p := pos[id]; {
			case f != 0 || !k.recycle:
				if p >= 0 {
					err = fmt.Errorf("id %d of %q (count %d) is marked idle at position %d", id, key, f, p)
				}
			case p < 0 || p >= len(lists[si]) || lists[si][p] != id:
				err = fmt.Errorf("stripe %d: idle id %d of %q is not on its idle list at its recorded position %d", si, id, key, p)
			default:
				idle[si]++
			}
			return err == nil
		})
		if err != nil {
			return
		}
		for si, list := range lists {
			if len(list) != idle[si] {
				err = fmt.Errorf("stripe %d: idle list holds %d ids, want its %d idle mapped keys", si, len(list), idle[si])
				return
			}
		}
		for id, p := range pos {
			if !mapped[id] && p >= 0 {
				err = fmt.Errorf("unmapped id %d is marked idle at position %d", id, p)
				return
			}
		}
	})
	return err
}
