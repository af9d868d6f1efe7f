package idmap

import (
	"errors"
	"strconv"
	"testing"
	"testing/quick"
)

func TestAcquireAssignsDistinctIDs(t *testing.T) {
	m := MustNew[string](3)
	ids := map[int]bool{}
	for _, key := range []string{"a", "b", "c"} {
		id, isNew, err := m.Acquire(key)
		if err != nil {
			t.Fatal(err)
		}
		if !isNew {
			t.Fatalf("Acquire(%q) not reported as new", key)
		}
		if id < 0 || id >= 3 || ids[id] {
			t.Fatalf("Acquire(%q) returned duplicate or out-of-range id %d", key, id)
		}
		ids[id] = true
	}
	if m.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", m.Len())
	}
}

func TestAcquireIsIdempotent(t *testing.T) {
	m := MustNew[string](2)
	id1, _, _ := m.Acquire("x")
	id2, isNew, err := m.Acquire("x")
	if err != nil {
		t.Fatal(err)
	}
	if isNew {
		t.Fatalf("second Acquire reported new")
	}
	if id1 != id2 {
		t.Fatalf("second Acquire returned %d, want %d", id2, id1)
	}
}

func TestAcquireFull(t *testing.T) {
	m := MustNew[string](2)
	m.Acquire("10")
	m.Acquire("20")
	if _, _, err := m.Acquire("30"); !errors.Is(err, ErrFull) {
		t.Fatalf("Acquire on full mapper: %v", err)
	}
	// An existing key still resolves when the mapper is full.
	if _, _, err := m.Acquire("10"); err != nil {
		t.Fatalf("Acquire of existing key on full mapper failed: %v", err)
	}
}

func TestReleaseRecyclesIDs(t *testing.T) {
	m := MustNew[string](2)
	idA, _, _ := m.Acquire("a")
	m.Acquire("b")
	released, err := m.Release("a")
	if err != nil {
		t.Fatal(err)
	}
	if released != idA {
		t.Fatalf("Release returned id %d, want %d", released, idA)
	}
	if m.Contains("a") {
		t.Fatalf("released key still contained")
	}
	idC, isNew, err := m.Acquire("c")
	if err != nil {
		t.Fatal(err)
	}
	if !isNew || idC != idA {
		t.Fatalf("Acquire after release returned id %d (new=%v), want recycled %d", idC, isNew, idA)
	}
}

func TestReleaseUnknownKey(t *testing.T) {
	m := MustNew[string](2)
	if _, err := m.Release("ghost"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("Release of unknown key: %v", err)
	}
}

func TestDenseIDAndKey(t *testing.T) {
	m := MustNew[string](3)
	id, _, _ := m.Acquire("hello")
	got, err := m.DenseID("hello")
	if err != nil || got != id {
		t.Fatalf("DenseID = %d, %v; want %d", got, err, id)
	}
	if _, err := m.DenseID("absent"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("DenseID of absent key: %v", err)
	}
	key, ok := m.Key(id)
	if !ok || key != "hello" {
		t.Fatalf("Key(%d) = %q, %v", id, key, ok)
	}
	if _, ok := m.Key(99); ok {
		t.Fatalf("Key(99) reported ok")
	}
	if _, ok := m.Key(-1); ok {
		t.Fatalf("Key(-1) reported ok")
	}
	m.Release("hello")
	if _, ok := m.Key(id); ok {
		t.Fatalf("Key of released id reported ok")
	}
}

func TestKeysAndRange(t *testing.T) {
	m := MustNew[string](4)
	for _, k := range []string{"100", "200", "300"} {
		m.Acquire(k)
	}
	keys := m.Keys()
	if len(keys) != 3 {
		t.Fatalf("Keys() returned %d keys, want 3", len(keys))
	}
	visited := 0
	m.Range(func(key string, id int) bool {
		got, err := m.DenseID(key)
		if err != nil || got != id {
			t.Fatalf("Range pair (%q,%d) inconsistent with DenseID", key, id)
		}
		visited++
		return true
	})
	if visited != 3 {
		t.Fatalf("Range visited %d pairs, want 3", visited)
	}
	// Early termination.
	visited = 0
	m.Range(func(string, int) bool { visited++; return false })
	if visited != 1 {
		t.Fatalf("Range with early stop visited %d pairs, want 1", visited)
	}
}

func TestNewRejectsNegativeCapacity(t *testing.T) {
	if _, err := New[string](-1); err == nil {
		t.Fatalf("New(-1) succeeded")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew(-1) did not panic")
		}
	}()
	MustNew[string](-1)
}

func TestZeroCapacityMapper(t *testing.T) {
	m := MustNew[string](0)
	if _, _, err := m.Acquire("a"); !errors.Is(err, ErrFull) {
		t.Fatalf("Acquire on zero-capacity mapper: %v", err)
	}
	if m.Cap() != 0 || m.Len() != 0 {
		t.Fatalf("zero-capacity mapper reports Cap=%d Len=%d", m.Cap(), m.Len())
	}
}

func TestPropertyNeverExceedsCapacityAndStaysConsistent(t *testing.T) {
	f := func(ops []uint16, rawCap uint8) bool {
		capacity := int(rawCap)%16 + 1
		m := MustNew[string](capacity)
		live := map[string]int{}
		for _, op := range ops {
			key := strconv.Itoa(int(op % 64))
			if _, ok := live[key]; ok && op%3 == 0 {
				id, err := m.Release(key)
				if err != nil || id != live[key] {
					return false
				}
				delete(live, key)
				continue
			}
			id, _, err := m.Acquire(key)
			if errors.Is(err, ErrFull) {
				if len(live) != capacity {
					return false
				}
				continue
			}
			if err != nil {
				return false
			}
			if prev, ok := live[key]; ok && prev != id {
				return false
			}
			live[key] = id
		}
		if m.Len() != len(live) {
			return false
		}
		// All live ids must be distinct and within range, and round-trip.
		seen := map[int]bool{}
		for key, id := range live {
			if id < 0 || id >= capacity || seen[id] {
				return false
			}
			seen[id] = true
			k, ok := m.Key(id)
			if !ok || k != key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
