package idmap

import "sync/atomic"

// chunkBits sets the run of ids one keyTable chunk covers, 1<<chunkBits.
// A chunk of string keys then takes 80 KiB, and the chunk-pointer table 8
// bytes per 4096 ids of capacity (2 KiB at 1<<20 ids).
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
)

// State words of a key-table entry: an id is free, mapped, or mapped and
// idle at position w-idleBase of its stripe's idle list.
const (
	stateFree   = 0
	stateMapped = 1
	idleBase    = 2
)

// keyTable maps dense ids back to their keys. Its entries live in chunks,
// each covering a fixed run of chunkSize ids (the last run cut short at the
// capacity). A chunk is allocated the first time one of its ids is stored
// and never moves, so a mapper that hands out ids low-first pays for the ids
// it has used, not for its capacity.
//
// Chunk pointers are atomic so that owners of disjoint id ranges that share
// a chunk can each create it under their own lock: the first CompareAndSwap
// publishes it and the others use that chunk. Keys are plain memory; the
// mapper guards each id's entry with a lock of its own choosing. State words
// are atomic because Striped changes an id's idle mark under a different
// lock than the one Key reads it under (a mark never changes whether the id
// is mapped, which is all get reads).
type keyTable[K comparable] struct {
	capacity int
	chunks   []atomic.Pointer[keyChunk[K]]
}

// keyChunk holds the entries of one run of ids, indexed by id's offset in
// the run: the key and the id's state word (stateFree, stateMapped, or
// idleBase plus its idle-list position).
type keyChunk[K comparable] struct {
	keys  []K
	state []atomic.Int32
}

// newKeyTable returns an empty table for the ids in [0, capacity).
func newKeyTable[K comparable](capacity int) keyTable[K] {
	return keyTable[K]{
		capacity: capacity,
		chunks:   make([]atomic.Pointer[keyChunk[K]], (capacity+chunkSize-1)/chunkSize),
	}
}

// at returns the chunk holding id, or nil when no id of its run has been
// stored yet (so id is not mapped), and id's offset in it.
func (t *keyTable[K]) at(id int) (*keyChunk[K], int) {
	return t.chunks[id>>chunkBits].Load(), id & (chunkSize - 1)
}

// set maps id to key, not idle, creating id's chunk if it does not exist
// yet.
func (t *keyTable[K]) set(id int, key K) {
	c, i := t.at(id)
	if c == nil {
		n := min(chunkSize, t.capacity-(id-i))
		c = &keyChunk[K]{keys: make([]K, n), state: make([]atomic.Int32, n)}
		if p := &t.chunks[id>>chunkBits]; !p.CompareAndSwap(nil, c) {
			c = p.Load()
		}
	}
	c.keys[i] = key
	c.state[i].Store(stateMapped)
}

// clear unmaps a mapped id, dropping any idle mark with it.
func (t *keyTable[K]) clear(id int) {
	c, i := t.at(id)
	var zero K
	c.keys[i] = zero
	c.state[i].Store(stateFree)
}

// key returns the key of a mapped id.
func (t *keyTable[K]) key(id int) K {
	c, i := t.at(id)
	return c.keys[i]
}

// get returns the key mapped to id in [0, capacity), if any.
func (t *keyTable[K]) get(id int) (K, bool) {
	c, i := t.at(id)
	if c == nil || c.state[i].Load() == stateFree {
		var zero K
		return zero, false
	}
	return c.keys[i], true
}

// word returns the state word of id in [0, capacity).
func (t *keyTable[K]) word(id int) int32 {
	c, i := t.at(id)
	if c == nil {
		return stateFree
	}
	return c.state[i].Load()
}

// setWord stores the state word of a mapped id.
func (t *keyTable[K]) setWord(id int, w int32) {
	c, i := t.at(id)
	c.state[i].Store(w)
}
