package idmap

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Striped is a concurrent Mapper: the key space is partitioned across
// hash-selected stripes, each guarded by its own mutex, so Acquire, DenseID,
// Release and Key from different stripes proceed in parallel instead of
// serialising on one lock.
//
// Each stripe owns a contiguous dense-id range with its own free list, sized
// exactly like the shard ranges of a sharded profile with the same count
// (ceil(cap/stripes) ids per stripe). A key acquired through stripe i is
// therefore normally assigned an id from stripe i's range — pairing a Striped
// mapper with an equally-sized sharded profile makes one keyed update touch
// one stripe lock plus one shard lock. Only when a stripe's range is
// exhausted does Acquire borrow an id from another stripe's free range, so
// the full capacity is always usable regardless of how keys hash.
//
// BatchFunc runs a caller callback with one stripe's lock held and a
// transaction view of that stripe (StripeTxn). It is how a caller layering
// extra per-key state on top of the mapping (a keyed profile pairing ids with
// frequencies, say) mutates the mapping and its own state as one atomic step,
// for one key or for a whole group of keys sharing the stripe; Acquire and
// DenseID are one-key transactions over it. The callback must not call back
// into the same Striped except through the transaction, or it will
// self-deadlock.
type Striped[K comparable] struct {
	seed       maphash.Seed
	capacity   int
	stripeSize int
	stripes    []mapStripe[K]
	allocs     []allocStripe
	// toKey and inUse are indexed by dense id; entry i is guarded by the
	// alloc-stripe lock owning id i's range.
	toKey  []K
	inUse  []bool
	length atomic.Int64
}

// mapStripe holds the key→id entries of the keys hashing to one stripe.
type mapStripe[K comparable] struct {
	mu      sync.Mutex
	toDense map[K]int
}

// allocStripe hands out the dense ids of one contiguous range.
type allocStripe struct {
	mu      sync.Mutex
	base    int
	size    int
	freeIDs []int
	nextID  int // next never-used id, relative offset from base
}

// NewStriped returns a concurrent mapper over capacity dense ids split across
// up to stripes lock stripes. The stripe count is clamped to [1, capacity]
// (one stripe minimum, never more stripes than ids), mirroring how a sharded
// profile clamps its shard count, so equal requested counts yield identical
// id-range geometry.
func NewStriped[K comparable](capacity, stripes int) (*Striped[K], error) {
	if capacity < 0 {
		return nil, fmt.Errorf("idmap: negative capacity %d", capacity)
	}
	if stripes <= 0 {
		return nil, fmt.Errorf("idmap: stripe count must be positive, got %d", stripes)
	}
	if stripes > capacity {
		stripes = capacity
	}
	if stripes == 0 {
		stripes = 1
	}
	stripeSize := (capacity + stripes - 1) / stripes
	if stripeSize == 0 {
		stripeSize = 1
	}
	// A ceil-sized final range can make the last requested stripe empty (for
	// example capacity 100 over 16 stripes of 7); a sharded profile materialises
	// only the non-empty shards, so mirror that to keep the geometries equal.
	if stripes = (capacity + stripeSize - 1) / stripeSize; stripes == 0 {
		stripes = 1
	}
	s := &Striped[K]{
		seed:       maphash.MakeSeed(),
		capacity:   capacity,
		stripeSize: stripeSize,
		stripes:    make([]mapStripe[K], stripes),
		allocs:     make([]allocStripe, stripes),
		toKey:      make([]K, capacity),
		inUse:      make([]bool, capacity),
	}
	for i := range s.stripes {
		s.stripes[i].toDense = make(map[K]int)
		base := i * stripeSize
		size := stripeSize
		if base+size > capacity {
			size = capacity - base
		}
		s.allocs[i] = allocStripe{base: base, size: size}
	}
	return s, nil
}

// MustNewStriped is NewStriped for callers with known-good arguments; it
// panics on error.
func MustNewStriped[K comparable](capacity, stripes int) *Striped[K] {
	s, err := NewStriped[K](capacity, stripes)
	if err != nil {
		panic(err)
	}
	return s
}

// Cap returns the maximum number of concurrently mapped keys.
func (s *Striped[K]) Cap() int { return s.capacity }

// Len returns the number of keys currently mapped.
func (s *Striped[K]) Len() int { return int(s.length.Load()) }

// NumStripes returns the number of lock stripes.
func (s *Striped[K]) NumStripes() int { return len(s.stripes) }

// Hash returns the 64-bit hash of key under this mapper's per-process seed.
// StripeOf is Hash modulo the stripe count, so a caller that already holds
// the hash (a batch coalescer deduplicating keys, say) can derive the stripe
// without hashing twice.
func (s *Striped[K]) Hash(key K) uint64 {
	return maphash.Comparable(s.seed, key)
}

// StripeOf returns the stripe index key hashes to. All operations on key
// synchronise on this stripe's lock.
func (s *Striped[K]) StripeOf(key K) int {
	if len(s.stripes) == 1 {
		return 0
	}
	return int(maphash.Comparable(s.seed, key) % uint64(len(s.stripes)))
}

// StripeRange returns the dense-id range [base, base+size) stripe i prefers
// to allocate from — the range to align with shard i of an equally-sharded
// profile.
func (s *Striped[K]) StripeRange(i int) (base, size int) {
	a := &s.allocs[i]
	return a.base, a.size
}

// allocate hands out a free id, preferring the home stripe's range and
// falling back to the other stripes' ranges in ring order.
func (s *Striped[K]) allocate(home int, key K) (int, bool) {
	n := len(s.allocs)
	for off := 0; off < n; off++ {
		a := &s.allocs[(home+off)%n]
		a.mu.Lock()
		var id int
		switch {
		case len(a.freeIDs) > 0:
			id = a.freeIDs[len(a.freeIDs)-1]
			a.freeIDs = a.freeIDs[:len(a.freeIDs)-1]
		case a.nextID < a.size:
			id = a.base + a.nextID
			a.nextID++
		default:
			a.mu.Unlock()
			continue
		}
		s.toKey[id] = key
		s.inUse[id] = true
		a.mu.Unlock()
		return id, true
	}
	return 0, false
}

// allocOf returns the alloc stripe owning id's range.
func (s *Striped[K]) allocOf(id int) *allocStripe {
	return &s.allocs[id/s.stripeSize]
}

// free returns id to its owning range's free list.
func (s *Striped[K]) free(id int) {
	a := s.allocOf(id)
	a.mu.Lock()
	var zero K
	s.toKey[id] = zero
	s.inUse[id] = false
	a.freeIDs = append(a.freeIDs, id)
	a.mu.Unlock()
}

// reassign hands victim's id straight to key without a free-list round trip,
// so no other goroutine can claim it in between.
func (s *Striped[K]) reassign(id int, key K) {
	a := s.allocOf(id)
	a.mu.Lock()
	s.toKey[id] = key
	a.mu.Unlock()
}

// Acquire returns the dense id for key, assigning a new one if the key is
// not yet mapped. isNew reports whether the id was freshly assigned. When
// every id across all stripes is taken, Acquire returns ErrFull.
func (s *Striped[K]) Acquire(key K) (id int, isNew bool, err error) {
	err = s.BatchFunc(s.StripeOf(key), func(t StripeTxn[K]) error {
		id, isNew, err = t.Acquire(key, nil)
		return err
	})
	return id, isNew, err
}

// StripeTxn is the view of one locked stripe handed to a BatchFunc callback.
// Every method assumes the stripe's lock is held by the enclosing BatchFunc
// and must only be used on keys hashing to that stripe (StripeOf).
type StripeTxn[K comparable] struct {
	s  *Striped[K]
	si int
}

// BatchFunc locks stripe si once, runs fn with a transaction view of it, and
// unlocks, returning fn's error. Everything fn does through the transaction —
// lookups, acquisitions, evictions, rollbacks — and any caller state guarded
// by the stripe happens as one atomic step; a batch of keys grouped by
// stripe resolves them all under a single lock acquisition. fn must not call
// back into the Striped except through the transaction, or it will
// self-deadlock.
func (s *Striped[K]) BatchFunc(si int, fn func(t StripeTxn[K]) error) error {
	ms := &s.stripes[si]
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return fn(StripeTxn[K]{s: s, si: si})
}

// Get returns the dense id of key without assigning one.
func (t StripeTxn[K]) Get(key K) (int, bool) {
	id, ok := t.s.stripes[t.si].toDense[key]
	return id, ok
}

// Acquire returns the dense id for key, assigning a new one if the key is
// not yet mapped. When every id is in use, evict (if not nil) may name a
// victim key of the same stripe (callers typically track idle keys per
// stripe); the victim's mapping is removed and its id handed to key
// atomically. isNew reports a fresh assignment; use Rollback to undo it if
// the caller's own state update fails.
func (t StripeTxn[K]) Acquire(key K, evict func(stripe int) (K, bool)) (id int, isNew bool, err error) {
	s, si := t.s, t.si
	ms := &s.stripes[si]
	if id, ok := ms.toDense[key]; ok {
		return id, false, nil
	}
	id, ok := s.allocate(si, key)
	if !ok && evict != nil {
		if victim, vok := evict(si); vok {
			if vid, mapped := ms.toDense[victim]; mapped {
				delete(ms.toDense, victim)
				s.length.Add(-1)
				s.reassign(vid, key)
				id, ok = vid, true
			}
		}
	}
	if !ok {
		return 0, false, fmt.Errorf("%w: capacity %d", ErrFull, s.capacity)
	}
	ms.toDense[key] = id
	s.length.Add(1)
	return id, true, nil
}

// Rollback undoes a fresh Acquire: the mapping is removed and the id freed.
// Only valid for the (key, id) pair of an Acquire that reported isNew within
// the same transaction.
func (t StripeTxn[K]) Rollback(key K, id int) {
	delete(t.s.stripes[t.si].toDense, key)
	t.s.free(id)
	t.s.length.Add(-1)
}

// DenseID returns the dense id of key without assigning one.
func (s *Striped[K]) DenseID(key K) (id int, err error) {
	err = s.BatchFunc(s.StripeOf(key), func(t StripeTxn[K]) error {
		var ok bool
		if id, ok = t.Get(key); !ok {
			return fmt.Errorf("%w: %v", ErrUnknownKey, key)
		}
		return nil
	})
	return id, err
}

// Contains reports whether key currently has a dense id.
func (s *Striped[K]) Contains(key K) bool {
	si := s.StripeOf(key)
	ms := &s.stripes[si]
	ms.mu.Lock()
	defer ms.mu.Unlock()
	_, ok := ms.toDense[key]
	return ok
}

// Key returns the key mapped to the dense id. Under concurrent mutation the
// answer is a point-in-time snapshot: the id may be released or reassigned
// the moment the call returns.
func (s *Striped[K]) Key(id int) (K, bool) {
	var zero K
	if id < 0 || id >= s.capacity {
		return zero, false
	}
	a := s.allocOf(id)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !s.inUse[id] {
		return zero, false
	}
	return s.toKey[id], true
}

// Release frees the dense id held by key so it can be reused. Callers must
// ensure any state keyed by the id (a profile frequency, say) is back to its
// neutral value first, otherwise the recycled id inherits it.
func (s *Striped[K]) Release(key K) (int, error) {
	si := s.StripeOf(key)
	ms := &s.stripes[si]
	ms.mu.Lock()
	defer ms.mu.Unlock()
	id, ok := ms.toDense[key]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrUnknownKey, key)
	}
	delete(ms.toDense, key)
	s.length.Add(-1)
	s.free(id)
	return id, nil
}

// Keys returns every currently mapped key. Each stripe is read atomically
// but the stripes are visited one after another, so under concurrent
// mutation the result is a per-stripe-consistent sample, not a global
// snapshot.
func (s *Striped[K]) Keys() []K {
	out := make([]K, 0, s.Len())
	for i := range s.stripes {
		ms := &s.stripes[i]
		ms.mu.Lock()
		for k := range ms.toDense {
			out = append(out, k)
		}
		ms.mu.Unlock()
	}
	return out
}

// Reserve pre-sizes each stripe's key table for about n upcoming keys, so a
// bulk load (snapshot restore) does not pay repeated map growth. Stripes
// already holding keys are left alone.
func (s *Striped[K]) Reserve(n int) {
	per := n/len(s.stripes) + 1
	for i := range s.stripes {
		ms := &s.stripes[i]
		ms.mu.Lock()
		if len(ms.toDense) == 0 {
			ms.toDense = make(map[K]int, per)
		}
		ms.mu.Unlock()
	}
}

// Quiesce acquires every map-stripe lock (in index order), runs fn, and
// releases them. While fn runs, no Acquire, DenseID, Release, Contains,
// Keys, Range or BatchFunc call can make progress, so fn observes — and can
// let a caller capture — a globally consistent mapping together with any
// per-stripe state layered on top of it. fn must not call back into the
// Striped except through RangeLocked, or it will self-deadlock.
//
// This is the write-exclusion barrier checkpointing uses: queries against
// other structures proceed, while every keyed update (all of which take a
// stripe lock first) waits for fn to finish.
func (s *Striped[K]) Quiesce(fn func()) {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	defer func() {
		for i := range s.stripes {
			s.stripes[i].mu.Unlock()
		}
	}()
	fn()
}

// LookupLocked is DenseID for callers already inside Quiesce: it resolves
// key without taking any map-stripe lock. Calling it anywhere else is a data
// race.
func (s *Striped[K]) LookupLocked(key K) (int, bool) {
	id, ok := s.stripes[s.StripeOf(key)].toDense[key]
	return id, ok
}

// RangeLocked is Range for callers already inside Quiesce: it visits every
// (key, dense id) pair without taking any locks. Calling it anywhere else is
// a data race.
func (s *Striped[K]) RangeLocked(fn func(key K, id int) bool) {
	for i := range s.stripes {
		for k, id := range s.stripes[i].toDense {
			if !fn(k, id) {
				return
			}
		}
	}
}

// Range calls fn for every (key, dense id) pair until fn returns false, with
// the same per-stripe consistency as Keys. fn runs with the current stripe's
// lock held and must not call back into the Striped.
func (s *Striped[K]) Range(fn func(key K, id int) bool) {
	for i := range s.stripes {
		ms := &s.stripes[i]
		ms.mu.Lock()
		for k, id := range ms.toDense {
			if !fn(k, id) {
				ms.mu.Unlock()
				return
			}
		}
		ms.mu.Unlock()
	}
}
