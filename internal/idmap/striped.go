package idmap

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
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
// Each key's bytes are stored once, in the pages of its id's range, and its
// id's key-table entry holds their location beside the id's state word:
// free, mapped, or idle at a position of its stripe's idle list. A stripe
// finds its keys through a pointer-free open-addressing index: one []uint64
// whose slots hold the high 32 bits of the key's hash (Hash, the same hash
// that picks the stripe) above id+1, with 0 marking an empty slot. Lookups
// probe linearly from the slot the fingerprint selects and confirm a
// fingerprint match against the key's page bytes; the index doubles before
// it passes 3/4 load, and a deletion shifts the rest of its probe run back,
// so recycling ids leaves no tombstones. Restoring a snapshot fills each
// empty stripe with one StripeTxn.Load, which places the entries in
// home-slot order instead of probing for each key. Per tracked key that is
// 8 bytes of index per slot at 3/8 to 3/4 load (11 to 21 bytes per key),
// plus its key-table entry (12 bytes: an 8-byte location and the state
// word), plus the key's own bytes in a page, plus 4 bytes while it is idle.
// None of it holds a pointer per key: the garbage collector sees one
// pointer per key-table chunk and one per page.
//
// Pages. The keys of the ids in one range are written into that range's
// pages, append-only byte slices of 1 KiB doubling to 64 KiB; a key longer
// than 4 KiB gets a page of its own, and the empty key takes no bytes. Only
// the paths that hand a key to a caller (Key, Keys, Range, ReleaseIdle)
// build a string: lookups, eviction and Load hash and compare page bytes in
// place. The rules that keep a reader from ever seeing a byte move:
//
//   - A key's bytes are written, and its id's location set, under both its
//     map-stripe lock and its id's alloc lock, and read under either: find
//     under the map-stripe lock, Key under the alloc lock. A stripe that
//     borrows an id writes the key into the lending range's pages under
//     that range's alloc lock while finds of the lending range's own keys
//     read those pages under other stripe locks, so each range publishes
//     its page list atomically, and a published list never changes.
//   - A released key's bytes stay where they are; they are dead. An
//     evicting Acquire writes the new key over the victim's bytes when it
//     fits there: the transaction holds both locks the victim's readers
//     take, and has unmapped it.
//   - A range compacts once its dead bytes (released keys, the unused rest
//     of an overwritten key, page tails too short for the next key) pass
//     both its live bytes and one 64 KiB page, so its live plus dead bytes
//     stay at most twice the live bytes plus one page. The compaction
//     copies the range's live keys into fresh pages, reusing a key's own
//     page, and rewrites their locations while holding every map-stripe
//     lock (Quiesce) and the range's alloc lock. It runs after the write
//     that crossed the threshold has released its own stripe lock: at the
//     end of that BatchFunc, Acquire, Release or ReleaseIdle.
//
// Idle ids are the eviction candidates. A caller layering frequencies on the
// mapping marks an id idle while its key's frequency is zero
// (StripeTxn.SetIdle). Each stripe lists its keys' idle ids in one []int32,
// and an idle id's state word holds its position there, so marking and
// unmarking are an append and a swap-remove. When no id is free, an Acquire
// allowed to evict pops the last id of the acquiring stripe's list and hands
// it to the new key.
//
// The key table exists only for the chunks of 4096 ids that hold an id
// handed out at some point. Each range hands out its ids as a prefix
// (never-used ids first, then its free list), so the chunks follow the most
// keys each range has held at once; up front, capacity costs 8 bytes of
// chunk pointer per 4096 ids. Ranges need not align with chunks, so two
// ranges can race to create one: a chunk pointer is set once, by
// CompareAndSwap under the alloc-stripe lock of the range handing out the
// id that needs it (the loser uses the winner's chunk), and read with
// atomic loads.
//
// BatchFunc runs a caller callback with one stripe's lock held and a
// transaction view of that stripe (StripeTxn). It is how a caller layering
// extra per-key state on top of the mapping (a keyed profile pairing ids with
// frequencies, say) mutates the mapping and its own state as one atomic step,
// for one key or for a whole group of keys sharing the stripe; Acquire and
// DenseID are one-key transactions over it. The callback must not call back
// into the same Striped except through the transaction, or it will
// self-deadlock.
type Striped[K ~string] struct {
	seed maphash.Seed
	// hash, when set, replaces the seeded maphash. Only this package's
	// tests set it, so a fuzz input replays with the same stripe and slot
	// assignment on every run.
	hash       func(string) uint64
	capacity   int
	stripeSize int
	stripes    []mapStripe
	allocs     []allocStripe
	// keys maps dense ids back to key locations. A mapped id's entry is
	// written only under the stripe lock of the key that owns it, and always
	// also under the alloc-stripe lock of id's range, so either lock makes a
	// read safe: index lookups confirm fingerprints under the stripe lock,
	// Key reads under the alloc lock.
	keys   keyTable
	length atomic.Int64
	// due is set, under the alloc lock of a range whose pages crossed the
	// compaction threshold, for the next compactDue to act on.
	due atomic.Bool
}

// mapStripe indexes the keys hashing to one stripe. Each nonzero slot is
// fingerprint<<32 | id+1, where the fingerprint is the high 32 bits of the
// key's hash and also selects the slot its probe starts from; len(slots) is
// zero or a power of two, and at most 3/4 of the slots are used. idle lists
// the ids of the stripe's keys marked idle; idle[p]'s state word is
// idleBase+p.
type mapStripe struct {
	mu    sync.Mutex
	slots []uint64
	used  int
	idle  []int32
}

// slotIDMask extracts id+1 from an index slot.
const slotIDMask = 1<<32 - 1

// find returns the slot index and dense id of key (hash h) in ms, or slot
// -1 when the key is not mapped there. The caller holds ms's lock.
func (s *Striped[K]) find(ms *mapStripe, key string, h uint64) (slot, id int) {
	if len(ms.slots) == 0 {
		return -1, 0
	}
	mask := uint64(len(ms.slots) - 1)
	fp := h >> 32
	for i := fp & mask; ; i = (i + 1) & mask {
		e := ms.slots[i]
		if e == 0 {
			return -1, 0
		}
		if e>>32 == fp {
			if id := int(e&slotIDMask) - 1; string(s.keyBytes(id)) == key {
				return int(i), id
			}
		}
	}
}

// slotOf returns the slot of ms holding id, whose key has hash h. The
// caller holds ms's lock, and id is mapped there.
func (ms *mapStripe) slotOf(h uint64, id int) int {
	mask := uint64(len(ms.slots) - 1)
	e := h>>32<<32 | uint64(id+1)
	for i := e >> 32 & mask; ms.slots[i] != 0; i = (i + 1) & mask {
		if ms.slots[i] == e {
			return int(i)
		}
	}
	panic(fmt.Sprintf("idmap: id %d is not indexed under its key's hash", id))
}

// keyBytes returns the bytes of mapped id's key, in its range's pages. The
// caller holds the key's map-stripe lock or id's alloc lock.
func (s *Striped[K]) keyBytes(id int) []byte {
	return s.allocOf(id).pages.bytes(s.keys.loc(id))
}

// insert indexes id under hash h; the key must not be mapped yet.
func (ms *mapStripe) insert(h uint64, id int) {
	ms.reserve(ms.used + 1)
	ms.put(h>>32<<32 | uint64(id+1))
	ms.used++
}

// put stores slot value e in the first free slot of its probe run.
func (ms *mapStripe) put(e uint64) {
	mask := uint64(len(ms.slots) - 1)
	for i := e >> 32 & mask; ; i = (i + 1) & mask {
		if ms.slots[i] == 0 {
			ms.slots[i] = e
			return
		}
	}
}

// tableSize is the slot count of an index holding n keys: the least power
// of two, and at least 8, that keeps them within 3/4 load.
func tableSize(n int) int {
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// reserve grows the table, if needed, so n keys fit within 3/4 load.
func (ms *mapStripe) reserve(n int) {
	size := tableSize(n)
	if size <= len(ms.slots) {
		return
	}
	old := ms.slots
	ms.slots = make([]uint64, size)
	for _, e := range old {
		if e != 0 {
			ms.put(e)
		}
	}
}

// delete empties slot i, then walks the rest of its probe run and moves
// back every entry whose probe start does not lie after the hole, so each
// remaining key stays reachable from its start without tombstones.
func (ms *mapStripe) delete(i int) {
	mask := len(ms.slots) - 1
	for j := (i + 1) & mask; ms.slots[j] != 0; j = (j + 1) & mask {
		start := int(ms.slots[j]>>32) & mask
		if (j-start)&mask >= (j-i)&mask {
			ms.slots[i] = ms.slots[j]
			i = j
		}
	}
	ms.slots[i] = 0
	ms.used--
}

// allocStripe hands out the dense ids of one contiguous range and keeps
// their keys' bytes.
type allocStripe struct {
	mu      sync.Mutex
	base    int
	size    int
	freeIDs []int
	nextID  int // next never-used id, relative offset from base
	pages   keyPages
}

// NewStriped returns a concurrent mapper over capacity dense ids split across
// up to stripes lock stripes. The stripe count is clamped to [1, capacity]
// (one stripe minimum, never more stripes than ids), mirroring how a sharded
// profile clamps its shard count, so equal requested counts yield identical
// id-range geometry.
func NewStriped[K ~string](capacity, stripes int) (*Striped[K], error) {
	if capacity < 0 || capacity > math.MaxInt32-idleBase {
		return nil, fmt.Errorf("idmap: capacity %d outside [0, %d]", capacity, math.MaxInt32-idleBase)
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
		stripes:    make([]mapStripe, stripes),
		allocs:     make([]allocStripe, stripes),
		keys:       newKeyTable(capacity),
	}
	for i := range s.allocs {
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
func MustNewStriped[K ~string](capacity, stripes int) *Striped[K] {
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
// It selects the key's stripe (StripeOfHash) and its slots in that stripe's
// index, so a caller that hashes a key once (a batch coalescer
// deduplicating keys, say) passes the hash on instead of hashing again.
func (s *Striped[K]) Hash(key K) uint64 {
	if s.hash != nil {
		return s.hash(string(key))
	}
	return maphash.String(s.seed, string(key))
}

// HashBytes returns Hash of the key whose bytes are b, without making the
// string: maphash.Bytes and maphash.String agree on every input under one
// seed.
func (s *Striped[K]) HashBytes(b []byte) uint64 {
	if s.hash != nil {
		return s.hash(string(b))
	}
	return maphash.Bytes(s.seed, b)
}

// StripeOfHash returns the stripe of a key whose Hash is h.
func (s *Striped[K]) StripeOfHash(h uint64) int {
	return int(h % uint64(len(s.stripes)))
}

// StripeRange returns the dense-id range [base, base+size) stripe i prefers
// to allocate from — the range to align with shard i of an equally-sharded
// profile.
func (s *Striped[K]) StripeRange(i int) (base, size int) {
	a := &s.allocs[i]
	return a.base, a.size
}

// allocate hands out a free id to key, preferring the home stripe's range
// and falling back to the other stripes' ranges in ring order, and writes
// key into the pages of the id's range.
func allocate[K ~string, B ~string | ~[]byte](s *Striped[K], home int, key B) (int, bool) {
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
		s.keys.set(id, putKey(&a.pages, key, 0))
		s.noteDue(a)
		a.mu.Unlock()
		return id, true
	}
	return 0, false
}

// allocOf returns the alloc stripe owning id's range.
func (s *Striped[K]) allocOf(id int) *allocStripe {
	return &s.allocs[id/s.stripeSize]
}

// free returns id to its owning range's free list; its key's bytes are
// dead.
func (s *Striped[K]) free(id int) {
	a := s.allocOf(id)
	a.mu.Lock()
	a.pages.drop(s.keys.loc(id))
	s.keys.clear(id)
	a.freeIDs = append(a.freeIDs, id)
	s.noteDue(a)
	a.mu.Unlock()
}

// reassign hands victim's id straight to key without a free-list round trip,
// so no other goroutine can claim it in between. The caller has unmapped
// the victim.
func (s *Striped[K]) reassign(id int, key K) {
	a := s.allocOf(id)
	a.mu.Lock()
	s.keys.set(id, a.pages.replace(s.keys.loc(id), string(key)))
	s.noteDue(a)
	a.mu.Unlock()
}

// noteDue flags a compaction when a's pages, whose alloc lock the caller
// holds, have crossed the threshold.
func (s *Striped[K]) noteDue(a *allocStripe) {
	if a.pages.due() {
		s.due.Store(true)
	}
}

// compactDue compacts the pages of every range flagged due, holding every
// map-stripe lock and the range's alloc lock. The caller holds no lock of
// s.
func (s *Striped[K]) compactDue() {
	if !s.due.Load() {
		return
	}
	s.Quiesce(func() {
		if !s.due.Swap(false) {
			return
		}
		for i := range s.allocs {
			a := &s.allocs[i]
			a.mu.Lock()
			if a.pages.due() {
				a.pages.compact(func(move func(uint64) uint64) {
					for id := a.base; id < a.base+a.nextID; id++ {
						if s.keys.mapped(id) {
							s.keys.setLoc(id, move(s.keys.loc(id)))
						}
					}
				})
			}
			a.mu.Unlock()
		}
	})
}

// Acquire returns the dense id for key, assigning a new one if the key is
// not yet mapped. isNew reports whether the id was freshly assigned. When
// every id across all stripes is taken, Acquire returns ErrFull.
func (s *Striped[K]) Acquire(key K) (id int, isNew bool, err error) {
	h := s.Hash(key)
	err = s.BatchFunc(s.StripeOfHash(h), func(t StripeTxn[K]) error {
		id, isNew, err = t.Acquire(key, h, false)
		return err
	})
	return id, isNew, err
}

// StripeTxn is the view of one locked stripe handed to a BatchFunc callback.
// Every method assumes the stripe's lock is held by the enclosing BatchFunc
// and must only be used on keys hashing to that stripe (StripeOfHash); the
// methods taking a key also take its Hash h.
type StripeTxn[K ~string] struct {
	s  *Striped[K]
	si int
}

// BatchFunc locks stripe si once, runs fn with a transaction view of it, and
// unlocks, returning fn's error. Everything fn does through the transaction —
// lookups, acquisitions, evictions, rollbacks — and any caller state guarded
// by the stripe happens as one atomic step; a batch of keys grouped by
// stripe resolves them all under a single lock acquisition. fn must not call
// back into the Striped except through the transaction, or it will
// self-deadlock. A compaction the transaction made due runs after the
// stripe is unlocked, before BatchFunc returns.
func (s *Striped[K]) BatchFunc(si int, fn func(t StripeTxn[K]) error) error {
	defer s.compactDue()
	ms := &s.stripes[si]
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return fn(StripeTxn[K]{s: s, si: si})
}

// Get returns the dense id of key (hash h) without assigning one.
func (t StripeTxn[K]) Get(key K, h uint64) (int, bool) {
	slot, id := t.s.find(&t.s.stripes[t.si], string(key), h)
	return id, slot >= 0
}

// Acquire returns the dense id for key (hash h), assigning a new one if the
// key is not yet mapped. When every id is in use and evict is set, the last
// id on this stripe's idle list is taken instead: its key is unmapped and
// the id handed to key in the same step. Without a free id or an idle one,
// Acquire returns ErrFull. isNew reports a fresh assignment, which is never
// marked idle; use Rollback to undo it if the caller's own state update
// fails.
func (t StripeTxn[K]) Acquire(key K, h uint64, evict bool) (id int, isNew bool, err error) {
	s, si := t.s, t.si
	ms := &s.stripes[si]
	if slot, id := s.find(ms, string(key), h); slot >= 0 {
		return id, false, nil
	}
	id, ok := allocate(s, si, string(key))
	if !ok && evict && len(ms.idle) > 0 {
		id = s.unmapLastIdle(ms)
		s.reassign(id, key)
		ok = true
	}
	if !ok {
		return 0, false, fmt.Errorf("%w: capacity %d", ErrFull, s.capacity)
	}
	ms.insert(h, id)
	s.length.Add(1)
	return id, true, nil
}

// Rollback undoes a fresh Acquire: the mapping is removed and the id freed.
// Only valid for the (key, h, id) of an Acquire that reported isNew within
// the same transaction.
func (t StripeTxn[K]) Rollback(key K, h uint64, id int) {
	ms := &t.s.stripes[t.si]
	t.s.unmap(ms, ms.slotOf(h, id), id)
	t.s.free(id)
}

// SetIdle marks id, the mapped id of a key of this stripe, idle (an eviction
// candidate) or active again. It is O(1) and idempotent; releasing or
// evicting the key drops the mark.
func (t StripeTxn[K]) SetIdle(id int, idle bool) {
	s := t.s
	ms := &s.stripes[t.si]
	switch w := s.keys.word(id); {
	case idle && w == stateMapped:
		s.keys.setWord(id, idleBase+int32(len(ms.idle)))
		ms.idle = append(ms.idle, int32(id))
	case !idle && w >= idleBase:
		s.dropIdle(ms, id, w)
	}
}

// dropIdle takes id, whose state word w places it on ms's idle list, off
// the list: the list's last id moves into its position.
func (s *Striped[K]) dropIdle(ms *mapStripe, id int, w int32) {
	last := len(ms.idle) - 1
	moved := ms.idle[last]
	ms.idle[w-idleBase] = moved
	ms.idle = ms.idle[:last]
	s.keys.setWord(int(moved), w)
	s.keys.setWord(id, stateMapped)
}

// unmap removes the key at slot of ms, which holds id, from the index and
// its id from the idle list; the caller frees or reassigns the id.
func (s *Striped[K]) unmap(ms *mapStripe, slot, id int) {
	if w := s.keys.word(id); w >= idleBase {
		s.dropIdle(ms, id, w)
	}
	ms.delete(slot)
	s.length.Add(-1)
}

// unmapLastIdle unmaps the key holding the last id on ms's nonempty idle
// list and returns the id, whose key's bytes stay in place; the caller
// frees or reassigns the id.
func (s *Striped[K]) unmapLastIdle(ms *mapStripe) int {
	id := int(ms.idle[len(ms.idle)-1])
	s.unmap(ms, ms.slotOf(s.HashBytes(s.keyBytes(id)), id), id)
	return id
}

// Load maps key(i) for each i in group on this stripe, which must hold no
// key yet: the bulk form of Acquire that restoring a snapshot uses. key(i)
// returns the bytes of key i, which Load copies; hashes[i] is their
// HashBytes, and Load stores key(group[j])'s id in ids[j]. The keys take
// the never-used ids of the stripe's own range in group order, their bytes
// copied into the range's pages in the same pass, under one hold of the
// range's alloc lock; only the keys past the end of the range borrow, one
// at a time, as Acquire does. The index is then sized for all of them once
// and filled in home-slot order, so the load makes sequential passes
// instead of one random probe per key. A key listed twice returns
// ErrDuplicateKey, and more keys than free ids ErrFull; after an error the
// mapper is half loaded and must be discarded.
func (t StripeTxn[K]) Load(key func(i int) []byte, hashes []uint64, group []int32, ids []int) error {
	s, si := t.s, t.si
	ms := &s.stripes[si]
	if ms.used != 0 {
		panic("idmap: Load on a stripe that holds keys")
	}
	n := len(group)
	if n == 0 {
		return nil
	}
	a := &s.allocs[si]
	a.mu.Lock()
	own := min(n, a.size-a.nextID)
	first := a.base + a.nextID
	a.nextID += own
	for j, i := range group[:own] {
		ids[j] = first + j
		s.keys.set(first+j, putKey(&a.pages, key(int(i)), 0))
	}
	s.noteDue(a)
	a.mu.Unlock()
	for j := own; j < n; j++ {
		id, ok := allocate(s, si, key(int(group[j])))
		if !ok {
			return fmt.Errorf("%w: capacity %d", ErrFull, s.capacity)
		}
		ids[j] = id
	}

	if size := tableSize(n); size > len(ms.slots) {
		ms.slots = make([]uint64, size)
	}
	mask := uint64(len(ms.slots) - 1)
	entries := make([]uint64, n)
	for j, i := range group {
		entries[j] = hashes[i]>>32<<32 | uint64(ids[j]+1)
	}
	entries = sortByHome(entries, mask)
	// Each entry goes to its home slot or, when an earlier entry took that,
	// just past the last one placed, so every slot between an entry's home
	// and its own is full. Entries pushed past the last slot wrap around
	// through put. A key listed twice meets its copy among the entries of
	// its home slot, which the sort keeps adjacent.
	next := uint64(0)
	for j, e := range entries {
		home := e >> 32 & mask
		for p := j - 1; p >= 0 && entries[p]>>32&mask == home; p-- {
			if entries[p]>>32 == e>>32 {
				if b := s.keyBytes(int(e&slotIDMask) - 1); bytes.Equal(s.keyBytes(int(entries[p]&slotIDMask)-1), b) {
					return fmt.Errorf("%w: %q", ErrDuplicateKey, b)
				}
			}
		}
		if pos := max(home, next); pos <= mask {
			ms.slots[pos] = e
			next = pos + 1
		} else {
			ms.put(e)
		}
	}
	ms.used = n
	s.length.Add(int64(n))
	return nil
}

// sortByHome sorts index entries by their home slot, the fingerprint's low
// bits under mask, with a stable LSD radix sort of at most 11 bits a pass,
// and returns the sorted entries (in entries or in a second buffer).
func sortByHome(entries []uint64, mask uint64) []uint64 {
	homeBits := bits.Len64(mask)
	passes := (homeBits + 10) / 11
	width := (homeBits + passes - 1) / passes
	tmp := make([]uint64, len(entries))
	var counts [1 << 11]int
	for shift := 32; shift < 32+homeBits; shift += width {
		digits := uint64(1)<<min(width, 32+homeBits-shift) - 1
		clear(counts[:])
		for _, e := range entries {
			counts[e>>shift&digits]++
		}
		sum := 0
		for d, c := range counts[:digits+1] {
			counts[d] = sum
			sum += c
		}
		for _, e := range entries {
			d := e >> shift & digits
			tmp[counts[d]] = e
			counts[d]++
		}
		entries, tmp = tmp, entries
	}
	return entries
}

// DenseID returns the dense id of key without assigning one.
func (s *Striped[K]) DenseID(key K) (id int, err error) {
	h := s.Hash(key)
	err = s.BatchFunc(s.StripeOfHash(h), func(t StripeTxn[K]) error {
		var ok bool
		if id, ok = t.Get(key, h); !ok {
			return fmt.Errorf("%w: %v", ErrUnknownKey, key)
		}
		return nil
	})
	return id, err
}

// Contains reports whether key currently has a dense id.
func (s *Striped[K]) Contains(key K) (ok bool) {
	h := s.Hash(key)
	_ = s.BatchFunc(s.StripeOfHash(h), func(t StripeTxn[K]) error {
		_, ok = t.Get(key, h)
		return nil
	})
	return ok
}

// Key returns the key mapped to the dense id. Under concurrent mutation the
// answer is a point-in-time snapshot: the id may be released or reassigned
// the moment the call returns.
func (s *Striped[K]) Key(id int) (K, bool) {
	if id < 0 || id >= s.capacity {
		return "", false
	}
	a := s.allocOf(id)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !s.keys.mapped(id) {
		return "", false
	}
	return K(s.keyBytes(id)), true
}

// Release frees the dense id held by key so it can be reused. Callers must
// ensure any state keyed by the id (a profile frequency, say) is back to its
// neutral value first, otherwise the recycled id inherits it.
func (s *Striped[K]) Release(key K) (int, error) {
	defer s.compactDue()
	h := s.Hash(key)
	ms := &s.stripes[s.StripeOfHash(h)]
	ms.mu.Lock()
	defer ms.mu.Unlock()
	slot, id := s.find(ms, string(key), h)
	if slot < 0 {
		return 0, fmt.Errorf("%w: %v", ErrUnknownKey, key)
	}
	s.unmap(ms, slot, id)
	s.free(id)
	return id, nil
}

// ReleaseIdle releases one idle key, freeing its id for any stripe: the
// last one on the first nonempty idle list, taking each stripe's lock in
// turn. It returns the key, or false when no key is idle. A caller whose
// own stripe has no idle key to evict uses it to make room (WAL replay,
// whose stripe assignment differs from the run that wrote the log).
func (s *Striped[K]) ReleaseIdle() (key K, ok bool) {
	defer s.compactDue()
	for i := range s.stripes {
		ms := &s.stripes[i]
		ms.mu.Lock()
		if ok = len(ms.idle) > 0; ok {
			id := s.unmapLastIdle(ms)
			key = K(s.keyBytes(id))
			s.free(id)
		}
		ms.mu.Unlock()
		if ok {
			return key, true
		}
	}
	return key, false
}

// Keys returns every currently mapped key. Each stripe is read atomically
// but the stripes are visited one after another, so under concurrent
// mutation the result is a per-stripe-consistent sample, not a global
// snapshot.
func (s *Striped[K]) Keys() []K {
	out := make([]K, 0, s.Len())
	s.Range(func(key K, _ int) bool {
		out = append(out, key)
		return true
	})
	return out
}

// Quiesce acquires every map-stripe lock (in index order), runs fn, and
// releases them. While fn runs, no Acquire, DenseID, Release, Contains,
// Keys, Range or BatchFunc call can make progress, so fn observes — and can
// let a caller capture — a globally consistent mapping together with any
// per-stripe state layered on top of it. fn must not call back into the
// Striped except through the methods named Locked, or it will
// self-deadlock.
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
	h := s.Hash(key)
	slot, id := s.find(&s.stripes[s.StripeOfHash(h)], string(key), h)
	return id, slot >= 0
}

// IdleLocked is for callers already inside Quiesce that check the idle
// bookkeeping: it returns a copy of each stripe's idle list and, for every
// id, the idle position its state word records (-1 when it records none).
// Calling it anywhere else is a data race.
func (s *Striped[K]) IdleLocked() (lists [][]int, pos []int) {
	lists = make([][]int, len(s.stripes))
	for i := range s.stripes {
		for _, id := range s.stripes[i].idle {
			lists[i] = append(lists[i], int(id))
		}
	}
	pos = make([]int, s.capacity)
	for id := range pos {
		pos[id] = int(s.keys.word(id)) - idleBase
		if pos[id] < 0 {
			pos[id] = -1
		}
	}
	return lists, pos
}

// RangeLocked is Range for callers already inside Quiesce, without taking
// any locks and without making strings: fn gets each key's bytes in its
// page, valid until Quiesce returns and not to be modified. It visits the
// pairs in id order, so a caller reading per-id state alongside (a
// checkpoint capture) and the key bytes themselves walk memory in the
// order it was filled. Calling it anywhere else is a data race.
func (s *Striped[K]) RangeLocked(fn func(key []byte, id int) bool) {
	for i := range s.allocs {
		a := &s.allocs[i]
		for id := a.base; id < a.base+a.nextID; id++ {
			if s.keys.mapped(id) && !fn(a.pages.bytes(s.keys.loc(id)), id) {
				return
			}
		}
	}
}

// KeyBytesLocked returns the summed length of every mapped key, for callers
// already inside Quiesce that copy the keys out (RangeLocked). Calling it
// anywhere else is a data race.
func (s *Striped[K]) KeyBytesLocked() int {
	n := 0
	for i := range s.allocs {
		n += s.allocs[i].pages.live
	}
	return n
}

// Range calls fn for every (key, dense id) pair until fn returns false, with
// the same per-stripe consistency as Keys. fn runs with the current stripe's
// lock held and must not call back into the Striped.
func (s *Striped[K]) Range(fn func(key K, id int) bool) {
	for i := range s.stripes {
		ms := &s.stripes[i]
		ms.mu.Lock()
		more := s.rangeStripe(ms, func(key []byte, id int) bool { return fn(K(key), id) })
		ms.mu.Unlock()
		if !more {
			return
		}
	}
}

// rangeStripe calls fn for the pairs of one stripe, whose lock the caller
// holds, and reports whether fn asked for more.
func (s *Striped[K]) rangeStripe(ms *mapStripe, fn func(key []byte, id int) bool) bool {
	for _, e := range ms.slots {
		if e == 0 {
			continue
		}
		id := int(e&slotIDMask) - 1
		if !fn(s.keyBytes(id), id) {
			return false
		}
	}
	return true
}
