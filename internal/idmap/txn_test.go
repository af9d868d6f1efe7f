package idmap

import (
	"errors"
	"fmt"
	"testing"
)

func TestBatchFuncResolvesUnderOneLock(t *testing.T) {
	s := MustNewStriped[string](8, 2)
	keys := []string{"a", "b", "c", "d"}
	// Group keys by stripe the way a batching caller would.
	groups := make(map[int][]string)
	for _, key := range keys {
		si := stripeOf(s, key)
		groups[si] = append(groups[si], key)
	}
	ids := map[string]int{}
	for si, group := range groups {
		err := s.BatchFunc(si, func(txn StripeTxn[string]) error {
			for _, key := range group {
				if _, ok := txn.Get(key, s.Hash(key)); ok {
					t.Errorf("key %s mapped before acquisition", key)
				}
				id, isNew, err := txn.Acquire(key, s.Hash(key), false)
				if err != nil || !isNew {
					return err
				}
				ids[key] = id
				// A second acquisition inside the same txn is a lookup.
				again, isNew2, err := txn.Acquire(key, s.Hash(key), false)
				if err != nil || isNew2 || again != id {
					t.Errorf("re-acquire of %s: id %d->%d isNew=%v err=%v", key, id, again, isNew2, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(keys) {
		t.Fatalf("mapped %d keys, want %d", s.Len(), len(keys))
	}
	for _, key := range keys {
		id, err := s.DenseID(key)
		if err != nil || id != ids[key] {
			t.Fatalf("key %s resolves to %d (%v), txn assigned %d", key, id, err, ids[key])
		}
	}
}

func TestBatchFuncRollback(t *testing.T) {
	s := MustNewStriped[string](4, 1)
	err := s.BatchFunc(0, func(txn StripeTxn[string]) error {
		h := s.Hash("doomed")
		id, isNew, err := txn.Acquire("doomed", h, false)
		if err != nil || !isNew {
			t.Fatalf("acquire: id=%d isNew=%v err=%v", id, isNew, err)
		}
		txn.Rollback("doomed", h, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("rollback left %d keys mapped", s.Len())
	}
	if s.Contains("doomed") {
		t.Fatal("rolled-back key still mapped")
	}
	// The freed id must be reusable.
	for i := 0; i < 4; i++ {
		if _, _, err := s.Acquire(string(rune('a' + i))); err != nil {
			t.Fatalf("acquire after rollback: %v", err)
		}
	}
}

func TestBatchFuncEviction(t *testing.T) {
	s := MustNewStriped[string](2, 1)
	for _, key := range []string{"idle", "busy"} {
		if _, _, err := s.Acquire(key); err != nil {
			t.Fatal(err)
		}
	}
	err := s.BatchFunc(0, func(txn StripeTxn[string]) error {
		idle, _ := txn.Get("idle", s.Hash("idle"))
		txn.SetIdle(idle, true)
		id, isNew, err := txn.Acquire("fresh", s.Hash("fresh"), true)
		if err != nil || !isNew || id != idle {
			t.Fatalf("evicting acquire: id=%d isNew=%v err=%v, want the idle key's id %d", id, isNew, err, idle)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains("idle") {
		t.Fatal("victim still mapped")
	}
	if !s.Contains("fresh") || !s.Contains("busy") {
		t.Fatal("survivor set wrong")
	}
	// With no idle key the stripe reports ErrFull, even when evicting.
	err = s.BatchFunc(0, func(txn StripeTxn[string]) error {
		_, _, err := txn.Acquire("overflow", s.Hash("overflow"), true)
		return err
	})
	if !errors.Is(err, ErrFull) {
		t.Fatalf("full stripe: %v", err)
	}
}

// acquireFunc acquires key in a one-key stripe transaction (evicting an idle
// key of its stripe if evict is set) and runs fn under the stripe lock,
// rolling a fresh assignment back if fn fails: the way a caller layering
// per-key state on the mapping uses StripeTxn.
func acquireFunc[K comparable](s *Striped[K], key K, evict bool, fn func(id int, isNew bool) error) (id int, isNew bool, err error) {
	h := s.Hash(key)
	err = s.BatchFunc(s.StripeOfHash(h), func(txn StripeTxn[K]) error {
		if id, isNew, err = txn.Acquire(key, h, evict); err != nil {
			return err
		}
		if fn == nil {
			return nil
		}
		if err := fn(id, isNew); err != nil {
			if isNew {
				txn.Rollback(key, h, id)
			}
			return err
		}
		return nil
	})
	return id, isNew, err
}

func TestStripedAcquireFuncRollback(t *testing.T) {
	s := MustNewStriped[string](4, 2)
	boom := errors.New("boom")
	_, _, err := acquireFunc(s, "k", false, func(id int, isNew bool) error {
		if !isNew {
			t.Fatalf("expected fresh assignment")
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("acquire = %v, want boom", err)
	}
	if s.Contains("k") || s.Len() != 0 {
		t.Fatalf("failed acquire left the mapping behind")
	}
	// The rolled-back id must be reusable.
	for i := 0; i < 4; i++ {
		if _, _, err := s.Acquire(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStripedEvictCallback: an evicting acquire hands the idle key's id to
// the new key, and one without an idle key fails.
func TestStripedEvictCallback(t *testing.T) {
	s := MustNewStriped[string](2, 1)
	idA, _, _ := s.Acquire("a")
	s.MustAcquire(t, "b")
	_ = s.BatchFunc(0, func(txn StripeTxn[string]) error {
		txn.SetIdle(idA, true)
		return nil
	})
	// Evict "a" to make room for "c"; the victim's id must transfer.
	id, isNew, err := acquireFunc(s, "c", true, nil)
	if err != nil || !isNew {
		t.Fatalf("acquire with evict = (%d, %v, %v)", id, isNew, err)
	}
	if id != idA {
		t.Fatalf("evicting acquire got id %d, want the victim's id %d", id, idA)
	}
	if s.Contains("a") {
		t.Fatalf("victim still mapped after eviction")
	}
	if key, ok := s.Key(id); !ok || key != "c" {
		t.Fatalf("Key(%d) = (%q, %v) after eviction", id, key, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len after eviction = %d, want 2", s.Len())
	}

	// The evicted key's mark went with it, and the new key is not idle, so
	// nothing is left to evict.
	if _, _, err := acquireFunc(s, "d", true, nil); !errors.Is(err, ErrFull) {
		t.Fatalf("eviction without an idle key = %v, want ErrFull", err)
	}
}
