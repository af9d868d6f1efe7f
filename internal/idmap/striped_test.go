package idmap

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestStripedBasics(t *testing.T) {
	s := MustNewStriped[string](8, 4)
	if s.Cap() != 8 || s.Len() != 0 || s.NumStripes() != 4 {
		t.Fatalf("fresh mapper: cap=%d len=%d stripes=%d", s.Cap(), s.Len(), s.NumStripes())
	}

	ids := map[int]string{}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("key-%d", i)
		id, isNew, err := s.Acquire(key)
		if err != nil || !isNew {
			t.Fatalf("Acquire(%q) = (%d, %v, %v)", key, id, isNew, err)
		}
		if id < 0 || id >= 8 {
			t.Fatalf("Acquire(%q) returned out-of-range id %d", key, id)
		}
		if prev, dup := ids[id]; dup {
			t.Fatalf("id %d assigned to both %q and %q", id, prev, key)
		}
		ids[id] = key
	}
	if s.Len() != 8 {
		t.Fatalf("Len after 8 acquires = %d", s.Len())
	}

	// Re-acquiring returns the existing id.
	id, isNew, err := s.Acquire("key-3")
	if err != nil || isNew {
		t.Fatalf("re-Acquire = (%d, %v, %v)", id, isNew, err)
	}
	if got, _ := s.DenseID("key-3"); got != id {
		t.Fatalf("DenseID = %d, want %d", got, id)
	}
	if key, ok := s.Key(id); !ok || key != "key-3" {
		t.Fatalf("Key(%d) = (%q, %v)", id, key, ok)
	}

	// Full: the ninth distinct key must fail even though keys hash unevenly,
	// because allocation borrows across stripes before giving up.
	if _, _, err := s.Acquire("overflow"); !errors.Is(err, ErrFull) {
		t.Fatalf("Acquire at capacity = %v, want ErrFull", err)
	}

	// Release recycles the id for the next acquire.
	released, err := s.Release("key-5")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Key(released); ok {
		t.Fatalf("Key(%d) still resolves after release", released)
	}
	if _, _, err := s.Acquire("replacement"); err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	if s.Len() != 8 {
		t.Fatalf("Len after release+reacquire = %d", s.Len())
	}

	if _, err := s.Release("never-mapped"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("Release of unknown key = %v, want ErrUnknownKey", err)
	}
	if _, err := s.DenseID("never-mapped"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("DenseID of unknown key = %v, want ErrUnknownKey", err)
	}
	if s.Contains("never-mapped") || !s.Contains("key-3") {
		t.Fatalf("Contains answers wrong")
	}
}

func TestStripedGeometryMatchesSharding(t *testing.T) {
	// Stripe ranges must tile [0, cap) exactly like a sharded profile's
	// shards: ceil(cap/stripes)-sized contiguous blocks.
	for _, tc := range []struct{ capacity, stripes int }{
		{8, 4}, {10, 3}, {1, 4}, {7, 7}, {100, 16},
	} {
		s := MustNewStriped[int](tc.capacity, tc.stripes)
		clamped := tc.stripes
		if clamped > tc.capacity {
			clamped = tc.capacity
		}
		stripeSize := (tc.capacity + clamped - 1) / clamped
		want := (tc.capacity + stripeSize - 1) / stripeSize
		if s.NumStripes() != want {
			t.Fatalf("cap=%d stripes=%d: NumStripes=%d, want %d", tc.capacity, tc.stripes, s.NumStripes(), want)
		}
		covered := 0
		for i := 0; i < s.NumStripes(); i++ {
			base, size := s.StripeRange(i)
			if base != i*stripeSize {
				t.Fatalf("cap=%d stripes=%d: stripe %d base=%d, want %d", tc.capacity, tc.stripes, i, base, i*stripeSize)
			}
			covered += size
		}
		if covered != tc.capacity {
			t.Fatalf("cap=%d stripes=%d: ranges cover %d ids", tc.capacity, tc.stripes, covered)
		}
	}
}

func TestStripedHomeStripeAllocation(t *testing.T) {
	// With plenty of headroom, a key's id must come from its own stripe's
	// range — the property shard-aligned keyed profiles rely on.
	s := MustNewStriped[int](64, 4)
	for key := 0; key < 16; key++ {
		id, _, err := s.Acquire(key)
		if err != nil {
			t.Fatal(err)
		}
		base, size := s.StripeRange(stripeOf(s, key))
		if id < base || id >= base+size {
			t.Fatalf("key %d (stripe %d) got id %d outside [%d, %d)", key, stripeOf(s, key), id, base, base+size)
		}
	}
}

// MustAcquire is a test helper; it fails t on error.
func (s *Striped[K]) MustAcquire(t *testing.T, key K) int {
	t.Helper()
	id, _, err := s.Acquire(key)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestStripedZeroCapacity(t *testing.T) {
	s := MustNewStriped[string](0, 8)
	if _, _, err := s.Acquire("x"); !errors.Is(err, ErrFull) {
		t.Fatalf("Acquire on zero-capacity mapper = %v, want ErrFull", err)
	}
	if _, ok := s.Key(0); ok {
		t.Fatalf("Key(0) resolved on zero-capacity mapper")
	}
}

func TestStripedKeysAndRange(t *testing.T) {
	s := MustNewStriped[int](16, 4)
	want := map[int]bool{}
	for i := 0; i < 10; i++ {
		s.MustAcquire(t, i)
		want[i] = true
	}
	keys := s.Keys()
	if len(keys) != 10 {
		t.Fatalf("Keys returned %d entries", len(keys))
	}
	for _, k := range keys {
		if !want[k] {
			t.Fatalf("Keys returned unexpected key %d", k)
		}
	}
	seen := 0
	s.Range(func(key, id int) bool {
		if got, _ := s.DenseIDUnlockedForTest(key); got != id {
			t.Fatalf("Range pair (%d, %d) disagrees with DenseID %d", key, id, got)
		}
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("Range visited %d pairs after early stop, want 5", seen)
	}
}

// DenseIDUnlockedForTest reads the mapping without taking the stripe lock;
// Range holds it already, so the normal DenseID would self-deadlock.
func (s *Striped[K]) DenseIDUnlockedForTest(key K) (int, bool) {
	return s.LookupLocked(key)
}

func TestStripedConcurrentChurn(t *testing.T) {
	const capacity = 64
	const workers = 8
	const iters = 2000
	s := MustNewStriped[int](capacity, 8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := w*1000 + i%32
				id, _, err := s.Acquire(key)
				if err != nil {
					if errors.Is(err, ErrFull) {
						continue
					}
					t.Error(err)
					return
				}
				if got, err := s.DenseID(key); err != nil || got != id {
					t.Errorf("DenseID(%d) = (%d, %v), want %d", key, got, err, id)
					return
				}
				s.Key(id)
				if _, err := s.Release(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Fatalf("Len after churn = %d, want 0", s.Len())
	}
	// Every id must be free again.
	for i := 0; i < capacity; i++ {
		if _, _, err := s.Acquire(100_000 + i); err != nil {
			t.Fatalf("Acquire after churn: %v", err)
		}
	}
}

// TestQuiesceSeesConsistentMapping: RangeLocked inside Quiesce must visit
// every mapped pair exactly once, while concurrent writers are held off (the
// race detector guards the exclusion claim).
func TestQuiesceSeesConsistentMapping(t *testing.T) {
	s := MustNewStriped[int](128, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := w*32 + i%32
				if _, _, err := s.Acquire(key); err != nil {
					t.Errorf("Acquire(%d): %v", key, err)
					return
				}
				if i%3 == 0 {
					s.Release(key)
				}
			}
		}(w)
	}
	for round := 0; round < 50; round++ {
		s.Quiesce(func() {
			seen := make(map[int]bool)
			ids := make(map[int]bool)
			s.RangeLocked(func(key, id int) bool {
				if seen[key] {
					t.Errorf("key %d visited twice", key)
				}
				if ids[id] {
					t.Errorf("id %d bound to two keys", id)
				}
				seen[key] = true
				ids[id] = true
				return true
			})
			if len(seen) != s.Len() {
				t.Errorf("RangeLocked saw %d pairs, Len reports %d", len(seen), s.Len())
			}
		})
	}
	close(stop)
	wg.Wait()
}

// TestStripedFingerprintCollision: two keys whose hashes share the high 32
// bits share an index fingerprint and a probe start, so only the comparison
// against the stored key tells them apart.
func TestStripedFingerprintCollision(t *testing.T) {
	s := MustNewStriped[int](8, 1)
	byFP := make(map[uint64]int)
	a, b := -1, -1
	for k := 0; a < 0; k++ {
		fp := s.Hash(k) >> 32
		if other, ok := byFP[fp]; ok {
			a, b = other, k
		}
		byFP[fp] = k
	}
	idA := s.MustAcquire(t, a)
	idB := s.MustAcquire(t, b)
	if idA == idB {
		t.Fatalf("colliding keys %d and %d share id %d", a, b, idA)
	}
	for key, want := range map[int]int{a: idA, b: idB} {
		if got, err := s.DenseID(key); err != nil || got != want {
			t.Fatalf("DenseID(%d) = (%d, %v), want %d", key, got, err, want)
		}
	}
	if _, err := s.Release(a); err != nil {
		t.Fatal(err)
	}
	if s.Contains(a) {
		t.Fatalf("released key %d still mapped", a)
	}
	if got, err := s.DenseID(b); err != nil || got != idB {
		t.Fatalf("DenseID(%d) after releasing its collider = (%d, %v), want %d", b, got, err, idB)
	}
}
