package sprofile

import "fmt"

// CheckZeroSets verifies the recycling bookkeeping of k against its dense
// profile on one quiesced cut: each stripe's zero set must hold exactly that
// stripe's mapped keys whose dense Count is zero (and stay empty without key
// recycling), with its position index in step.
func (k *KeyedConcurrent[K]) CheckZeroSets() error {
	var err error
	k.ids.Quiesce(func() {
		idle := make([]map[K]bool, len(k.zeros))
		for si := range idle {
			idle[si] = map[K]bool{}
		}
		k.ids.RangeLocked(func(key K, id int) bool {
			f, cerr := k.dense.Count(id)
			if cerr != nil {
				err = cerr
				return false
			}
			if f == 0 && k.recycle {
				idle[k.ids.StripeOf(key)][key] = true
			}
			return true
		})
		if err != nil {
			return
		}
		for si := range k.zeros {
			z := &k.zeros[si]
			if len(z.keys) != len(idle[si]) || len(z.pos) != len(z.keys) {
				err = fmt.Errorf("stripe %d: zero set holds %d keys (%d indexed), want the %d idle mapped keys",
					si, len(z.keys), len(z.pos), len(idle[si]))
				return
			}
			for i, key := range z.keys {
				if !idle[si][key] {
					err = fmt.Errorf("stripe %d: zero set holds %v, which is not an idle mapped key of the stripe", si, key)
					return
				}
				if z.pos[key] != i {
					err = fmt.Errorf("stripe %d: zero set indexes %v at %d, stored at %d", si, key, z.pos[key], i)
					return
				}
			}
		}
	})
	return err
}
