package idmap

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// pageFootprint is the footprint hook of range i's pages: the bytes of its
// mapped keys, its dead bytes, and the bytes its pages hold.
func (s *Striped[K]) pageFootprint(i int) (live, dead, held int) {
	p := &s.allocs[i].pages
	for _, pg := range p.pages {
		held += len(pg)
	}
	return p.live, p.dead, held
}

// checkPages asserts each range's page accounting against byID, every
// mapped id's key: live is the summed length of the keys whose ids lie in
// the range; live plus dead stays within twice live plus one page (the
// range compacted when it had to); and the pages hold no more than live,
// dead and the free rest of one page.
func checkPages(t *testing.T, s *Striped[string], byID map[int]string) {
	t.Helper()
	want := make([]int, len(s.allocs))
	for id, key := range byID {
		want[id/s.stripeSize] += len(key)
	}
	for i := range s.allocs {
		live, dead, held := s.pageFootprint(i)
		if live != want[i] {
			t.Fatalf("range %d: %d live bytes counted, its keys hold %d", i, live, want[i])
		}
		if live+dead > 2*live+maxPage {
			t.Fatalf("range %d: %d live and %d dead bytes, more than twice live plus %d", i, live, dead, maxPage)
		}
		if held > live+dead+maxPage {
			t.Fatalf("range %d: pages hold %d bytes for %d live and %d dead", i, held, live, dead)
		}
	}
}

// TestHashAgreesOnBytes: Hash of a key and HashBytes of its bytes agree,
// for the empty key, 8 bytes, 300 bytes and 1 MiB, so a key restored from
// snapshot bytes, or evicted by its page bytes, is found where Acquire put
// it. Each key is loaded by Load, found by DenseID and Contains, then
// evicted by a key acquired under Hash.
func TestHashAgreesOnBytes(t *testing.T) {
	keys := []string{"", "k0000001", strings.Repeat("u", 300), strings.Repeat("m", 1<<20)}
	for _, key := range keys {
		s := MustNewStriped[string](1, 1)
		if h, hb := s.Hash(key), s.HashBytes([]byte(key)); h != hb {
			t.Fatalf("%d-byte key: Hash %#x, HashBytes %#x", len(key), h, hb)
		}
		model, err := loadStriped(s, []string{key}, false)
		if err != nil {
			t.Fatalf("%d-byte key: Load: %v", len(key), err)
		}
		if id, err := s.DenseID(key); err != nil || id != model[key] || !s.Contains(key) {
			t.Fatalf("%d-byte key: DenseID after Load = (%d, %v), want %d", len(key), id, err, model[key])
		}
		other := "evicts the " + fmt.Sprint(len(key)) + "-byte key"
		_ = s.BatchFunc(0, func(txn StripeTxn[string]) error {
			txn.SetIdle(model[key], true)
			if id, isNew, err := txn.Acquire(other, s.Hash(other), true); err != nil || !isNew || id != model[key] {
				t.Fatalf("%d-byte key: evicting acquire = (%d, %v, %v)", len(key), id, isNew, err)
			}
			return nil
		})
		if s.Contains(key) || !s.Contains(other) {
			t.Fatalf("%d-byte key: still mapped after its eviction", len(key))
		}
	}
}

// TestStripedPagesChurnFootprint churns a full mapper of 2 ranges with keys
// of 0 to 6,000 bytes and a few of 70,000, by Release, evicting Acquire
// and ReleaseIdle, and checks the page accounting after every step: the
// footprint stays within twice the live bytes plus one page per range, and
// the ranges compact.
func TestStripedPagesChurnFootprint(t *testing.T) {
	const capacity = 96
	s := MustNewStriped[string](capacity, 2)
	rng := rand.New(rand.NewSource(5))
	model := make(map[string]int)
	newKey := func(i int) string {
		n := rng.Intn(6000)
		switch rng.Intn(10) {
		case 0:
			n = 0
		case 1:
			n = 70_000
		case 2, 3, 4:
			n = rng.Intn(20)
		}
		return fmt.Sprintf("%d-%s", i, strings.Repeat("p", n))
	}
	check := func() {
		t.Helper()
		byID := make(map[int]string, len(model))
		for key, id := range model {
			byID[id] = key
		}
		checkPages(t, s, byID)
	}
	for i := 0; i < 3000; i++ {
		key := newKey(i)
		h := s.Hash(key)
		si := s.StripeOfHash(h)
		switch {
		case len(model) < capacity:
			model[key] = s.MustAcquire(t, key)
		case i%3 == 0:
			for victim := range model {
				if _, err := s.Release(victim); err != nil {
					t.Fatal(err)
				}
				delete(model, victim)
				break
			}
		case i%3 == 1:
			// Mark a key of the new key's stripe idle and evict it.
			var victim string
			for k := range model {
				if stripeOf(s, k) == si {
					victim = k
					break
				}
			}
			if _, ok := model[victim]; !ok {
				continue
			}
			err := s.BatchFunc(si, func(txn StripeTxn[string]) error {
				txn.SetIdle(model[victim], true)
				id, _, err := txn.Acquire(key, h, true)
				model[key] = id
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			delete(model, victim)
		default:
			for k, id := range model {
				_ = s.BatchFunc(stripeOf(s, k), func(txn StripeTxn[string]) error {
					txn.SetIdle(id, true)
					return nil
				})
				break
			}
			victim, ok := s.ReleaseIdle()
			if !ok {
				t.Fatal("ReleaseIdle found no idle key")
			}
			delete(model, victim)
		}
		check()
	}
	if n := compactions(s); n < 10 {
		t.Fatalf("%d compactions in the churn, want at least 10", n)
	}
	t.Logf("%d compactions", compactions(s))
	for key, id := range model {
		if got, err := s.DenseID(key); err != nil || got != id {
			t.Fatalf("DenseID(%.20q) = (%d, %v), want %d", key, got, err, id)
		}
	}
}

// TestStripedPagesConcurrent runs Acquire, DenseID, Key and Release from
// several goroutines on a small mapper whose ranges borrow from each other
// and compact: each worker cycles through keys of its own, some of 70,000
// bytes, holding a window of them at a time, while a reader calls Key and
// Range. Every answer about a worker's own keys must hold, and no reader
// may see a key change under it (the race detector checks the paging
// rules).
func TestStripedPagesConcurrent(t *testing.T) {
	const capacity, workers, window, rounds = 64, 4, 15, 300
	s := MustNewStriped[string](capacity, 4)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []keyID
			for i := range rounds {
				key := fmt.Sprintf("w%d-%d", w, i)
				if i%4 == 1 {
					key += strings.Repeat("L", 70_000)
				}
				id, isNew, err := s.Acquire(key)
				if err != nil {
					if errors.Is(err, ErrFull) {
						continue
					}
					t.Error(err)
					return
				}
				if !isNew {
					t.Errorf("Acquire(%.20q) of a new key: not new", key)
					return
				}
				held = append(held, keyID{key, id})
				for _, kh := range held {
					if got, err := s.DenseID(kh.key); err != nil || got != kh.id {
						t.Errorf("DenseID(%.20q) = (%d, %v), want %d", kh.key, got, err, kh.id)
						return
					}
					if got, ok := s.Key(kh.id); !ok || got != kh.key {
						t.Errorf("Key(%d) = (%.20q, %v), want %.20q", kh.id, got, ok, kh.key)
						return
					}
				}
				if len(held) == window {
					if id, err := s.Release(held[0].key); err != nil || id != held[0].id {
						t.Errorf("Release(%.20q) = (%d, %v), want %d", held[0].key, id, err, held[0].id)
						return
					}
					held = held[1:]
				}
			}
		}()
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if key, ok := s.Key(i % capacity); ok {
				if !strings.HasPrefix(key, "w") {
					t.Errorf("Key(%d) = %.20q", i%capacity, key)
					return
				}
			}
			s.Range(func(key string, id int) bool { return len(key) > 0 })
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	if n := compactions(s); n == 0 {
		t.Fatal("no range compacted")
	}
	borrowed := 0
	s.Range(func(key string, id int) bool {
		if base, size := s.StripeRange(stripeOf(s, key)); id < base || id >= base+size {
			borrowed++
		}
		return true
	})
	t.Logf("%d compactions, %d of %d keys on borrowed ids", compactions(s), borrowed, s.Len())
}
