package idmap

import (
	"errors"
	"math/rand"
	"testing"
)

// stripedOpsCoverage counts the index events a run of runStripedOps
// exercised, so a test can insist the seed corpus reaches them.
type stripedOpsCoverage struct {
	growths     int // a stripe's slot array grew
	wrapDeletes int // a deletion's probe run continued past the last slot
}

// runStripedOps interprets data as a sequence of operations on a small
// Striped[int] and checks every answer against a map[int]int model. The
// first two bytes choose the capacity (1..64) and the stripe count (1..8);
// each following pair is an operation and its key.
func runStripedOps(t *testing.T, data []byte) stripedOpsCoverage {
	var cov stripedOpsCoverage
	if len(data) < 2 {
		return cov
	}
	capacity := 1 + int(data[0])%64
	s := MustNewStriped[int](capacity, 1+int(data[1])%8)
	model := make(map[int]int)
	keySpace := 2*capacity + 1

	// stripeKeys lists the model's keys of one stripe, the eviction
	// candidates an evict callback may name.
	stripeKeys := func(si int) []int {
		var keys []int
		for k := range model {
			if s.StripeOf(k) == si {
				keys = append(keys, k)
			}
		}
		return keys
	}
	// wrapsOnDelete reports whether deleting key's slot shifts a probe run
	// that continues past the end of the slot array.
	wrapsOnDelete := func(key int) bool {
		h := s.Hash(key)
		ms := &s.stripes[s.StripeOfHash(h)]
		slot, _ := s.find(ms, key, h)
		if slot < 0 {
			return false
		}
		for j := slot + 1; j < len(ms.slots); j++ {
			if ms.slots[j] == 0 {
				return false
			}
		}
		return ms.slots[0] != 0
	}
	// expectAcquire checks a (non-evicting) acquisition of key against the
	// model and records it.
	expectAcquire := func(key, id int, isNew bool, err error) {
		t.Helper()
		if want, ok := model[key]; ok {
			if err != nil || isNew || id != want {
				t.Fatalf("re-acquire %d = (%d, %v, %v), want (%d, false, nil)", key, id, isNew, err, want)
			}
			return
		}
		if len(model) == capacity {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("acquire %d at capacity = (%d, %v, %v), want ErrFull", key, id, isNew, err)
			}
			return
		}
		if err != nil || !isNew {
			t.Fatalf("acquire %d = (%d, %v, %v), want a fresh id", key, id, isNew, err)
		}
		model[key] = id
	}

	for i := 2; i+1 < len(data); i += 2 {
		op, key := data[i]%6, int(data[i+1])%keySpace
		h := s.Hash(key)
		si := s.StripeOfHash(h)
		before := make([]int, len(s.stripes))
		for j := range s.stripes {
			before[j] = len(s.stripes[j].slots)
		}
		switch op {
		case 0: // Acquire
			id, isNew, err := s.Acquire(key)
			expectAcquire(key, id, isNew, err)
		case 1: // Get, DenseID and Contains
			want, mapped := model[key]
			_ = s.BatchFunc(si, func(txn StripeTxn[int]) error {
				if id, ok := txn.Get(key, h); ok != mapped || (ok && id != want) {
					t.Fatalf("Get(%d) = (%d, %v), want (%d, %v)", key, id, ok, want, mapped)
				}
				return nil
			})
			id, err := s.DenseID(key)
			if mapped && (err != nil || id != want) || !mapped && !errors.Is(err, ErrUnknownKey) {
				t.Fatalf("DenseID(%d) = (%d, %v), model (%d, %v)", key, id, err, want, mapped)
			}
			if s.Contains(key) != mapped {
				t.Fatalf("Contains(%d) = %v, want %v", key, !mapped, mapped)
			}
		case 2: // Release
			want, mapped := model[key]
			if mapped && wrapsOnDelete(key) {
				cov.wrapDeletes++
			}
			id, err := s.Release(key)
			if mapped && (err != nil || id != want) || !mapped && !errors.Is(err, ErrUnknownKey) {
				t.Fatalf("Release(%d) = (%d, %v), model (%d, %v)", key, id, err, want, mapped)
			}
			delete(model, key)
		case 3: // Acquire that may evict a key of the same stripe
			var victim int
			victims := stripeKeys(si)
			hasVictim := false
			for _, v := range victims {
				if v != key {
					victim, hasVictim = v, true
					break
				}
			}
			_, mapped := model[key]
			if !mapped && len(model) == capacity && hasVictim {
				if wrapsOnDelete(victim) {
					cov.wrapDeletes++
				}
				var id int
				var isNew bool
				err := s.BatchFunc(si, func(txn StripeTxn[int]) error {
					var err error
					id, isNew, err = txn.Acquire(key, h, func(stripe int) (int, bool) {
						if stripe != si {
							t.Fatalf("evict asked for stripe %d, want %d", stripe, si)
						}
						return victim, true
					})
					return err
				})
				if err != nil || !isNew || id != model[victim] {
					t.Fatalf("evicting acquire %d = (%d, %v, %v), want victim %d's id %d", key, id, isNew, err, victim, model[victim])
				}
				delete(model, victim)
				model[key] = id
				break
			}
			var id int
			var isNew bool
			err := s.BatchFunc(si, func(txn StripeTxn[int]) error {
				var err error
				id, isNew, err = txn.Acquire(key, h, func(int) (int, bool) { return 0, false })
				return err
			})
			expectAcquire(key, id, isNew, err)
		case 4: // a fresh Acquire rolled back in the same transaction
			_, mapped := model[key]
			err := s.BatchFunc(si, func(txn StripeTxn[int]) error {
				id, isNew, err := txn.Acquire(key, h, nil)
				if err != nil {
					return err
				}
				if isNew == mapped {
					t.Fatalf("acquire %d: isNew=%v with model mapped=%v", key, isNew, mapped)
				}
				if isNew {
					if wrapsOnDelete(key) {
						cov.wrapDeletes++
					}
					txn.Rollback(key, h, id)
				}
				return nil
			})
			if err != nil && (mapped || len(model) < capacity || !errors.Is(err, ErrFull)) {
				t.Fatalf("rolled-back acquire %d: %v", key, err)
			}
		case 5: // Reserve room for at most the unused capacity, as restore does
			_ = s.BatchFunc(si, func(txn StripeTxn[int]) error {
				txn.Reserve(int(data[i+1]) % (capacity - len(model) + 1))
				return nil
			})
		}
		for j := range s.stripes {
			if len(s.stripes[j].slots) > before[j] && before[j] > 0 {
				cov.growths++
			}
		}
		checkStriped(t, s, model)
	}
	return cov
}

// checkStriped asserts the mapper agrees with the model and that every
// stripe's index is well formed: used counts the nonzero slots, the load
// stays within 3/4, and each entry is reachable from its probe start.
func checkStriped(t *testing.T, s *Striped[int], model map[int]int) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", s.Len(), len(model))
	}
	seen := make(map[int]int)
	s.Range(func(key, id int) bool {
		if want, ok := model[key]; !ok || want != id {
			t.Fatalf("Range yields (%d, %d), model (%d, %v)", key, id, want, ok)
		}
		if other, dup := seen[id]; dup {
			t.Fatalf("id %d bound to %d and %d", id, other, key)
		}
		seen[id] = key
		if k, ok := s.Key(id); !ok || k != key {
			t.Fatalf("Key(%d) = (%d, %v), want %d", id, k, ok, key)
		}
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("Range visited %d pairs, model holds %d", len(seen), len(model))
	}
	for id := 0; id < s.Cap(); id++ {
		if _, mapped := seen[id]; !mapped {
			if _, ok := s.Key(id); ok {
				t.Fatalf("Key(%d) resolves but no key holds it", id)
			}
		}
	}
	for si := range s.stripes {
		ms := &s.stripes[si]
		used := 0
		mask := len(ms.slots) - 1
		for j, e := range ms.slots {
			if e == 0 {
				continue
			}
			used++
			for k := int(e>>32) & mask; k != j; k = (k + 1) & mask {
				if ms.slots[k] == 0 {
					t.Fatalf("stripe %d: slot %d unreachable, empty slot %d in its probe run", si, j, k)
				}
			}
		}
		if used != ms.used || used*4 > len(ms.slots)*3 {
			t.Fatalf("stripe %d: %d slots used, counted %d, table of %d", si, used, ms.used, len(ms.slots))
		}
	}
}

// stripedOpsSeeds are the seed corpus of FuzzStripedOps: a few hand-made
// sequences plus long pseudo-random ones that fill small mappers to
// capacity and churn them.
func stripedOpsSeeds() [][]byte {
	seeds := [][]byte{
		{0, 0},
		{7, 3, 0, 1, 0, 2, 2, 1, 1, 1, 4, 5, 3, 9},
		{63, 0, 5, 40, 0, 1, 0, 2, 0, 3, 2, 2, 1, 2},
	}
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]byte{{63, 0}, {31, 2}, {15, 7}, {40, 3}, {2, 5}}
	// Small single-stripe mappers keep their 8-slot tables near 3/4 load,
	// where deletions often shift a probe run across the end of the array.
	for c := byte(2); c <= 5; c++ {
		shapes = append(shapes, [2]byte{c, 0})
	}
	for _, shape := range shapes {
		data := []byte{shape[0], shape[1]}
		for i := 0; i < 1500; i++ {
			data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzStripedOps is a model-based test of Striped: random Acquire, Get,
// Release, evicting Acquire, Rollback and Reserve sequences over small
// capacities and 1–8 stripes must agree with a plain map at every step.
func FuzzStripedOps(f *testing.F) {
	for _, seed := range stripedOpsSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runStripedOps(t, data)
	})
}

// TestStripedOpsSeedCoverage: the seed corpus FuzzStripedOps runs under go
// test must reach index growth and deletions whose probe run wraps past the
// end of the slot array, the two paths a small random test could miss.
func TestStripedOpsSeedCoverage(t *testing.T) {
	var total stripedOpsCoverage
	for _, seed := range stripedOpsSeeds() {
		cov := runStripedOps(t, seed)
		total.growths += cov.growths
		total.wrapDeletes += cov.wrapDeletes
	}
	if total.growths == 0 || total.wrapDeletes == 0 {
		t.Fatalf("seed corpus reached %d growths and %d wrapping deletions, want both > 0", total.growths, total.wrapDeletes)
	}
	t.Logf("%d growths, %d wrapping deletions", total.growths, total.wrapDeletes)
}
