package sprofile

import "fmt"

// Dense returns k's dense profile, for tests that inspect its shards or its
// invariants.
func (k *KeyedConcurrent[K]) Dense() *Sharded { return k.dense }

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
		k.ids.RangeLocked(func(key K, id int) bool {
			mapped[id] = true
			f, cerr := k.dense.Count(id)
			if cerr != nil {
				err = cerr
				return false
			}
			si := k.ids.StripeOfHash(k.ids.Hash(key))
			switch p := pos[id]; {
			case f != 0 || !k.recycle:
				if p >= 0 {
					err = fmt.Errorf("id %d of %v (count %d) is marked idle at position %d", id, key, f, p)
				}
			case p < 0 || p >= len(lists[si]) || lists[si][p] != id:
				err = fmt.Errorf("stripe %d: idle id %d of %v is not on its idle list at its recorded position %d", si, id, key, p)
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
