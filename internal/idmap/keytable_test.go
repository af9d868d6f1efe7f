package idmap

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapperAllocationTracksKeys: a mapper allocates for the keys it
// tracks, not for its capacity. Building a mapper of 1<<20 ids and
// acquiring 10,000 keys must allocate under 2 MiB; a flat id→key table of
// one string header and one 4-byte state word per id alone would take 20 MiB.
func TestMapperAllocationTracksKeys(t *testing.T) {
	const capacity, n, limit = 1 << 20, 10_000, 2 << 20
	type mapper interface {
		Acquire(string) (int, bool, error)
		Key(int) (string, bool)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	for _, tc := range []struct {
		name string
		new  func() mapper
	}{
		{"Striped", func() mapper { return MustNewStriped[string](capacity, 2) }},
		{"Mapper", func() mapper { return MustNew[string](capacity) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := tc.new()
		ids := make([]int, 0, n)
		for _, key := range keys {
			id, _, err := m.Acquire(key)
			if err != nil {
				t.Fatalf("%s: Acquire(%q): %v", tc.name, key, err)
			}
			ids = append(ids, id)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: building a %d-id mapper and acquiring %d keys allocated %d bytes, want < %d", tc.name, capacity, n, got, limit)
		} else {
			t.Logf("%s: %d bytes allocated", tc.name, got)
		}
		for i, id := range ids {
			if key, ok := m.Key(id); !ok || key != keys[i] {
				t.Fatalf("%s: Key(%d) = (%q, %v), want %q", tc.name, id, key, ok, keys[i])
			}
		}
		if key, ok := m.Key(capacity - 1); ok {
			t.Fatalf("%s: Key of a never-used id resolves to %q", tc.name, key)
		}
	}
}

// allocatedChunks lists the indexes of s's key-table chunks that exist.
func allocatedChunks[K comparable](s *Striped[K]) []int {
	var out []int
	for i := range s.keys.chunks {
		if s.keys.chunks[i].Load() != nil {
			out = append(out, i)
		}
	}
	return out
}

// keyOfStripe returns the first key from *next on that hashes to stripe si
// (or, with other set, to any other stripe) and advances *next past it.
func keyOfStripe(s *Striped[int], next *int, si int, other bool) int {
	for {
		key := *next
		*next++
		if (stripeOf(s, key) == si) != other {
			return key
		}
	}
}

// TestStripedChunkEdges is a model test on a geometry whose stripe ranges
// straddle key-table chunks: 3 chunks + 5 ids over 3 stripes of 4098 ids
// make ranges [0,4098), [4098,8196) and [8196,12293) against chunks
// starting at 0, 4096, 8192 and 12288 (the last cut to 5 ids). Stripe 0's
// keys alone first take range 0 and borrow into range 1, then keys of every
// stripe fill the mapper, so ranges 1 and 2 each hand out ids in a chunk
// another range created. Then each id at a range or chunk edge is freed in
// turn and handed out again by Rollback, cross-range borrowing and
// eviction, with Key, DenseID, Range and Len checked against a map after
// every step.
func TestStripedChunkEdges(t *testing.T) {
	const capacity = 3*chunkSize + 5
	s := MustNewStriped[int](capacity, 3)
	model := make(map[int]int)
	if s.NumStripes() != 3 || len(s.keys.chunks) != 4 {
		t.Fatalf("geometry: %d stripes, %d chunks", s.NumStripes(), len(s.keys.chunks))
	}
	var edges []int
	for c := 0; c < len(s.keys.chunks); c++ {
		edges = append(edges, c*chunkSize, min((c+1)*chunkSize, capacity)-1)
	}
	for i := 0; i < s.NumStripes(); i++ {
		base, size := s.StripeRange(i)
		if base%chunkSize == 0 && i > 0 {
			t.Fatalf("range %d starts on a chunk boundary", i)
		}
		edges = append(edges, base, base+size-1)
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)

	for _, id := range edges {
		if key, ok := s.Key(id); ok {
			t.Fatalf("Key(%d) = %d on an empty mapper", id, key)
		}
	}
	if got := allocatedChunks(s); len(got) != 0 {
		t.Fatalf("empty mapper holds chunks %v", got)
	}

	// Stripe 0's keys take its whole range and then borrow 2000 ids from
	// range 1, in id order. Range 0 creates chunks 0 and 1 before range 1
	// hands out an id of its own in chunk 1.
	next := 0
	for want := 0; want < 4098+2000; want++ {
		key := keyOfStripe(s, &next, 0, false)
		if id := s.MustAcquire(t, key); id != want {
			t.Fatalf("stripe 0's key %d took id %d, want %d", key, id, want)
		}
		model[key] = want
	}
	if got := allocatedChunks(s); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("after ids [0, 6098): chunks %v allocated, want [0 1]", got)
	}
	checkStriped(t, s, model, nil)
	// Keys of every stripe fill the rest; stripe 0's overflow keeps borrowing.
	for len(model) < capacity {
		key := next
		next++
		model[key] = s.MustAcquire(t, key)
	}
	checkStriped(t, s, model, nil)

	holder := func(id int) int {
		for key, kid := range model {
			if kid == id {
				return key
			}
		}
		t.Fatalf("no key holds id %d", id)
		return 0
	}
	rangeOf := func(id int) int { return id / 4098 }
	for _, edge := range edges {
		// Release frees exactly the edge id.
		key := holder(edge)
		if id, err := s.Release(key); err != nil || id != edge {
			t.Fatalf("Release(%d) = (%d, %v), want %d", key, id, err, edge)
		}
		delete(model, key)
		if k, ok := s.Key(edge); ok {
			t.Fatalf("Key(%d) = %d after its release", edge, k)
		}
		checkStriped(t, s, model, nil)

		// A fresh acquisition rolled back in its transaction frees it again.
		key = keyOfStripe(s, &next, rangeOf(edge), false)
		h := s.Hash(key)
		_ = s.BatchFunc(s.StripeOfHash(h), func(txn StripeTxn[int]) error {
			id, isNew, err := txn.Acquire(key, h, false)
			if err != nil || !isNew || id != edge {
				t.Fatalf("acquire %d = (%d, %v, %v), want fresh id %d", key, id, isNew, err, edge)
			}
			txn.Rollback(key, h, id)
			return nil
		})
		checkStriped(t, s, model, nil)

		// A key of another stripe borrows it from the edge's range.
		key = keyOfStripe(s, &next, rangeOf(edge), true)
		if id := s.MustAcquire(t, key); id != edge {
			t.Fatalf("borrowing acquire %d took id %d, want %d", key, id, edge)
		}
		model[key] = edge
		checkStriped(t, s, model, nil)
		if _, _, err := s.Acquire(next); !errors.Is(err, ErrFull) {
			t.Fatalf("Acquire at capacity = %v, want ErrFull", err)
		}

		// At capacity, the borrower goes idle and a key of its stripe evicts
		// it and takes the edge id over.
		victim, si := key, stripeOf(s, key)
		key = keyOfStripe(s, &next, si, false)
		h = s.Hash(key)
		_ = s.BatchFunc(si, func(txn StripeTxn[int]) error {
			txn.SetIdle(edge, true)
			id, isNew, err := txn.Acquire(key, h, true)
			if err != nil || !isNew || id != edge {
				t.Fatalf("evicting acquire %d = (%d, %v, %v), want id %d", key, id, isNew, err, edge)
			}
			return nil
		})
		delete(model, victim)
		model[key] = edge
		checkStriped(t, s, model, nil)
	}
}

// TestStripedConcurrentFill: writers fill a mapper whose 7 ranges share
// key-table chunks to capacity while readers call Key and Range. Each round
// starts with one writer per stripe acquiring a key of its stripe at the
// same instant, so ranges 0-3 race to create chunk 0 and ranges 4-6 chunk
// 1; after that the writers draw keys from a shared counter, and a stripe
// whose range runs out borrows from chunks other ranges may be creating.
// Nothing is released, so every pair a reader sees must be final, and at
// the end every acquisition must still hold its id.
func TestStripedConcurrentFill(t *testing.T) {
	const capacity, rounds = 2*chunkSize + 3, 20
	for round := 0; round < rounds; round++ {
		s := MustNewStriped[int](capacity, 7)
		var homeKeys []int
		for si, key := 0, -1; si < s.NumStripes(); key-- {
			if stripeOf(s, key) == si {
				homeKeys = append(homeKeys, key)
				si++
			}
		}
		start, done := make(chan struct{}), make(chan struct{})
		var counter atomic.Int64
		var writers, readers sync.WaitGroup
		// acquired[w] holds writer w's successful acquisitions as key, id.
		acquired := make([][][2]int, len(homeKeys))
		for w, home := range homeKeys {
			writers.Add(1)
			go func(key int) {
				defer writers.Done()
				<-start
				for {
					id, _, err := s.Acquire(key)
					if err != nil {
						if !errors.Is(err, ErrFull) {
							t.Errorf("Acquire(%d): %v", key, err)
						}
						return
					}
					acquired[w] = append(acquired[w], [2]int{key, id})
					key = int(counter.Add(1))
				}
			}(home)
		}
		readers.Add(2)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(round)))
			for {
				select {
				case <-done:
					return
				default:
				}
				id := rng.Intn(capacity)
				if key, ok := s.Key(id); ok {
					if got, err := s.DenseID(key); err != nil || got != id {
						t.Errorf("Key(%d) = %d, but DenseID(%d) = (%d, %v)", id, key, key, got, err)
						return
					}
				}
			}
		}()
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var pairs [][2]int
				s.Range(func(key, id int) bool {
					pairs = append(pairs, [2]int{key, id})
					return true
				})
				for _, p := range pairs {
					if key, ok := s.Key(p[1]); !ok || key != p[0] {
						t.Errorf("Range yielded (%d, %d), but Key(%d) = (%d, %v)", p[0], p[1], p[1], key, ok)
						return
					}
				}
			}
		}()
		close(start)
		writers.Wait()
		close(done)
		readers.Wait()
		if t.Failed() {
			return
		}

		model := make(map[int]int)
		s.Range(func(key, id int) bool {
			model[key] = id
			return true
		})
		if len(model) != capacity {
			t.Fatalf("round %d: %d keys mapped after filling, want %d", round, len(model), capacity)
		}
		for _, pairs := range acquired {
			for _, p := range pairs {
				if id, ok := model[p[0]]; !ok || id != p[1] {
					t.Fatalf("round %d: key %d acquired id %d, now maps to (%d, %v)", round, p[0], p[1], id, ok)
				}
			}
		}
		checkStriped(t, s, model, nil)
	}
}
