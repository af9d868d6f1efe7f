package idmap

import (
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// ik is the decimal key of n.
func ik(n int) string { return strconv.Itoa(n) }

// keyID is one key and the id it maps to.
type keyID struct {
	key string
	id  int
}

// stripeOf returns the stripe key hashes to.
func stripeOf[K ~string](s *Striped[K], key K) int {
	return s.StripeOfHash(s.Hash(key))
}

// weakHash is fixedHash with the fingerprint, the hash's high 32 bits,
// forced onto the 8 values just below 1<<32: distinct keys share
// fingerprints, and every key's home is among its index's last 8 slots, so
// probe runs wrap past the end.
func weakHash(key string) uint64 {
	h := fixedHash(key)
	return (0xfffffff8|h>>32&7)<<32 | h&0xffffffff
}

// loadStriped maps keys on the empty mapper s with one StripeTxn.Load per
// stripe, the stripes loading at once when concurrent is set, and returns
// each key's id. The keys reach Load as one byte run, as restore hands a
// snapshot's keys over.
func loadStriped[K ~string](s *Striped[K], keys []K, concurrent bool) (map[K]int, error) {
	ns := s.NumStripes()
	groups := make([][]int32, ns)
	hashes := make([]uint64, len(keys))
	var run []byte
	ends := make([]int, len(keys))
	for i, key := range keys {
		run = append(run, key...)
		ends[i] = len(run)
		hashes[i] = s.HashBytes(run[len(run)-len(key):])
		si := s.StripeOfHash(hashes[i])
		groups[si] = append(groups[si], int32(i))
	}
	key := func(i int) []byte {
		if i == 0 {
			return run[:ends[0]]
		}
		return run[ends[i-1]:ends[i]]
	}
	ids := make([][]int, ns)
	errs := make([]error, ns)
	load := func(si int) {
		ids[si] = make([]int, len(groups[si]))
		errs[si] = s.BatchFunc(si, func(txn StripeTxn[K]) error {
			return txn.Load(key, hashes, groups[si], ids[si])
		})
	}
	var wg sync.WaitGroup
	for si := range ns {
		if !concurrent {
			load(si)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			load(si)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	model := make(map[K]int, len(keys))
	for si, group := range groups {
		for j, i := range group {
			model[keys[i]] = ids[si][j]
		}
	}
	return model, nil
}

// acquireEach maps keys on s with one Acquire each, the reference a load is
// held to, and reports whether a key repeated.
func acquireEach(t *testing.T, s *Striped[string], keys []string) (repeated bool) {
	t.Helper()
	for _, key := range keys {
		_, isNew, err := s.Acquire(key)
		if err != nil {
			t.Fatalf("Acquire(%.20q): %v", key, err)
		}
		repeated = repeated || !isNew
	}
	return repeated
}

// sameKeys fails t unless the loaded mapper and the reference map the same
// keys opKey(k) for k in [0, keySpace).
func sameKeys(t *testing.T, loaded, ref *Striped[string], keySpace int) {
	t.Helper()
	if loaded.Len() != ref.Len() {
		t.Fatalf("loaded mapper holds %d keys, per-key Acquire %d", loaded.Len(), ref.Len())
	}
	for k := range keySpace {
		if key := opKey(k); loaded.Contains(key) != ref.Contains(key) {
			t.Fatalf("key %d: loaded mapper has it %v, per-key Acquire %v", k, loaded.Contains(key), ref.Contains(key))
		}
	}
}

// wrappedSlots counts the index entries that sit before their home slot:
// the ones whose probe run wrapped past the last slot.
func wrappedSlots[K ~string](s *Striped[K]) int {
	n := 0
	for si := range s.stripes {
		ms := &s.stripes[si]
		mask := uint64(len(ms.slots) - 1)
		for j, e := range ms.slots {
			if e != 0 && e>>32&mask > uint64(j) {
				n++
			}
		}
	}
	return n
}

// borrowedIDs counts the loaded keys holding an id outside their stripe's
// range.
func borrowedIDs(s *Striped[string], model map[string]int) int {
	n := 0
	for key, id := range model {
		if base, size := s.StripeRange(stripeOf(s, key)); id < base || id >= base+size {
			n++
		}
	}
	return n
}

// TestStripedLoadMatchesAcquire: a mapper loaded stripe by stripe must map
// the keys per-key Acquire maps, pass checkStriped, and keep passing it
// through a churn of Acquire, Release, SetIdle, evictions and ReleaseIdle.
// The cases fill the mapper: over 3 ranges that share key-table chunks
// (3 chunks + 5 ids); with one stripe's group half again its range, so it
// borrows; and with weakHash, whose probe runs wrap. Keys are opKey(k) from
// k = 128 on, long ones among them, so the churn's keys below it are new
// ones that evict.
func TestStripedLoadMatchesAcquire(t *testing.T) {
	const first = 128
	fill := func(s *Striped[string], keys []string) []string {
		seen := make(map[string]bool, len(keys))
		for _, key := range keys {
			seen[key] = true
		}
		for k := first; len(keys) < s.Cap(); k++ {
			if key := opKey(k); !seen[key] {
				keys = append(keys, key)
			}
		}
		return keys
	}
	for _, tc := range []struct {
		name              string
		capacity, stripes int
		hash              func(string) uint64
		keys              func(s *Striped[string]) []string
		check             func(t *testing.T, s *Striped[string], model map[string]int)
	}{
		{
			name: "shared-chunks", capacity: 3*chunkSize + 5, stripes: 3, hash: fixedHash,
			keys: func(s *Striped[string]) []string { return fill(s, nil) },
		},
		{
			name: "borrowing", capacity: 3*chunkSize + 5, stripes: 3, hash: fixedHash,
			keys: func(s *Striped[string]) []string {
				var keys []string
				for next := first; len(keys) < 6000; {
					keys = append(keys, keyOfStripe(s, &next, 0, false))
				}
				return fill(s, keys)
			},
			check: func(t *testing.T, s *Striped[string], model map[string]int) {
				_, size := s.StripeRange(0)
				if n := borrowedIDs(s, model); n < 6000-size {
					t.Fatalf("%d keys hold an id outside their stripe's range, want at least %d", n, 6000-size)
				}
			},
		},
		{
			name: "wrapping", capacity: 200, stripes: 2, hash: weakHash,
			keys: func(s *Striped[string]) []string { return fill(s, nil) },
			check: func(t *testing.T, s *Striped[string], _ map[string]int) {
				if wrappedSlots(s) == 0 {
					t.Fatal("no probe run wrapped past the last slot")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newMapper := func() *Striped[string] {
				s := MustNewStriped[string](tc.capacity, tc.stripes)
				s.hash = tc.hash
				return s
			}
			s, ref := newMapper(), newMapper()
			keys := tc.keys(s)
			if len(keys) != tc.capacity {
				t.Fatalf("%d keys for capacity %d", len(keys), tc.capacity)
			}
			if acquireEach(t, ref, keys) {
				t.Fatal("the keys repeat")
			}
			model, err := loadStriped(s, keys, false)
			if err != nil {
				t.Fatal(err)
			}
			sameKeys(t, s, ref, 2*tc.capacity+1)
			checkStriped(t, s, model, nil)
			if tc.check != nil {
				tc.check(t, s, model)
			}
			rng := rand.New(rand.NewSource(7))
			ops := []byte{0, 1, 2, 3, 3, 6, 6, 7, 8}
			churn := make([]byte, 0, 2*100)
			for range 100 {
				churn = append(churn, ops[rng.Intn(len(ops))], byte(rng.Intn(256)))
			}
			if cov := churnStriped(t, s, model, churn); cov.evictions == 0 {
				t.Fatalf("the churn reached %+v, want evictions", cov)
			}
		})
	}
}

// TestStripedLoadDuplicate: a key listed twice fails the load with
// ErrDuplicateKey, found by its stripe's Load alone, while distinct keys
// that share a fingerprint (weakHash) load.
func TestStripedLoadDuplicate(t *testing.T) {
	for _, hash := range []func(string) uint64{fixedHash, weakHash} {
		keys := make([]string, 40)
		for i := range keys {
			keys[i] = ik(i)
		}
		s := MustNewStriped[string](64, 4)
		s.hash = hash
		if _, err := loadStriped(s, keys, false); err != nil {
			t.Fatalf("distinct keys: %v", err)
		}
		s = MustNewStriped[string](64, 4)
		s.hash = hash
		_, err := loadStriped(s, append(keys, ik(17)), false)
		if !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("key 17 listed twice: Load = %v, want ErrDuplicateKey", err)
		}
	}
}

// TestStripedLoadConcurrent: the stripes of a mapper whose 7 ranges share
// key-table chunks load at once, as restore loads them, with stripe 0's
// group past the end of its range so that it borrows from ranges other
// stripes are loading. Every round must map each key once, pass
// checkStriped, and hand stripe 0's overflow ids outside its range.
func TestStripedLoadConcurrent(t *testing.T) {
	const capacity, rounds = 2*chunkSize + 3, 10
	for round := range rounds {
		s := MustNewStriped[string](capacity, 7)
		_, size := s.StripeRange(0)
		var keys []string
		next := round * capacity
		for len(keys) < size+500 {
			keys = append(keys, keyOfStripe(s, &next, 0, false))
		}
		for len(keys) < capacity {
			keys = append(keys, keyOfStripe(s, &next, 0, true))
		}
		model, err := loadStriped(s, keys, true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(model) != capacity {
			t.Fatalf("round %d: %d keys mapped, want %d", round, len(model), capacity)
		}
		checkStriped(t, s, model, nil)
		if n := borrowedIDs(s, model); n < 500 {
			t.Fatalf("round %d: %d keys hold an id outside their stripe's range, want at least 500", round, n)
		}
	}
}

// FuzzStripedLoad holds StripeTxn.Load to per-key Acquire. The first byte
// picks the capacity (1..64); the second the stripe count (1..8) and, by
// bit 3, weakHash in place of fixedHash; each further byte b is the key
// opKey(b) (the empty key and long keys among them), the list cut at the
// capacity as restore refuses a snapshot of more keys than ids. A mapper loaded stripe by stripe and one that acquired the keys
// one at a time must agree on Len, on each key's presence and on whether a
// key repeats, and a load that succeeds must pass checkStriped.
func FuzzStripedLoad(f *testing.F) {
	ascending := func(capacity, mode byte) []byte {
		data := []byte{capacity, mode}
		for k := range capacity + 1 {
			data = append(data, k)
		}
		return data
	}
	for _, seed := range [][]byte{
		{0, 0},
		{9, 2, 1, 2, 3, 4, 5},
		{7, 1, 3, 5, 3},
		{31, 9, 1, 2, 3, 2},
		ascending(63, 7),
		ascending(63, 8),
		ascending(40, 13),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(data[0])%64
		newMapper := func() *Striped[string] {
			s := MustNewStriped[string](capacity, 1+int(data[1])%8)
			s.hash = fixedHash
			if data[1]&8 != 0 {
				s.hash = weakHash
			}
			return s
		}
		keys := make([]string, 0, capacity)
		for _, b := range data[2:min(len(data), 2+capacity)] {
			keys = append(keys, opKey(int(b)))
		}
		ref, s := newMapper(), newMapper()
		repeated := acquireEach(t, ref, keys)
		model, err := loadStriped(s, keys, false)
		switch {
		case repeated != errors.Is(err, ErrDuplicateKey):
			t.Fatalf("keys %v: Load = %.40v, per-key Acquire saw a repeat: %v", data[2:], err, repeated)
		case repeated:
			return
		case err != nil:
			t.Fatalf("keys %v: %.40v", data[2:], err)
		}
		sameKeys(t, s, ref, 256)
		checkStriped(t, s, model, nil)
	})
}
