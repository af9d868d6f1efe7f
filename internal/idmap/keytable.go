package idmap

import "sync/atomic"

// chunkBits sets the run of ids one keyTable chunk covers, 1<<chunkBits.
// A chunk then takes 48 KiB, and the chunk-pointer table 8 bytes per 4096
// ids of capacity (2 KiB at 1<<20 ids).
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

// keyTable maps dense ids back to their keys: each entry is the location of
// the key's bytes in the pages of the id's range (keyPages) and the id's
// state word, 12 bytes side by side with no pointer, so a write that looks
// its key up and then marks it idle reads one cache line. Its entries live
// in chunks, each covering a fixed run of chunkSize ids (the last run cut
// short at the capacity). A chunk is allocated the first time one of its
// ids is stored and never moves, so a mapper that hands out ids low-first
// pays for the ids it has used, not for its capacity.
//
// Chunk pointers are atomic so that owners of disjoint id ranges that share
// a chunk can each create it under their own lock: the first CompareAndSwap
// publishes it and the others use that chunk. Locations are plain memory;
// the mapper guards each id's entry with a lock of its own choosing. State
// words are atomic because Striped changes an id's idle mark under a
// different lock than the one Key reads it under (a mark never changes
// whether the id is mapped, which is all get reads).
type keyTable struct {
	capacity int
	chunks   []atomic.Pointer[keyChunk]
}

// keyChunk holds the entries of one run of ids, indexed by id's offset in
// the run.
type keyChunk struct {
	entries []keyEntry
}

// keyEntry is one id's entry: its key's location, split in two words so
// the entry packs into 12 bytes, and its state word (stateFree,
// stateMapped, or idleBase plus its idle-list position).
type keyEntry struct {
	locLo, locHi uint32
	state        atomic.Int32
}

// loc returns the entry's key location.
func (e *keyEntry) loc() uint64 { return uint64(e.locHi)<<32 | uint64(e.locLo) }

// setLoc stores the entry's key location.
func (e *keyEntry) setLoc(loc uint64) { e.locLo, e.locHi = uint32(loc), uint32(loc>>32) }

// newKeyTable returns an empty table for the ids in [0, capacity).
func newKeyTable(capacity int) keyTable {
	return keyTable{
		capacity: capacity,
		chunks:   make([]atomic.Pointer[keyChunk], (capacity+chunkSize-1)/chunkSize),
	}
}

// at returns the chunk holding id, or nil when no id of its run has been
// stored yet (so id is not mapped), and id's offset in it.
func (t *keyTable) at(id int) (*keyChunk, int) {
	return t.chunks[id>>chunkBits].Load(), id & (chunkSize - 1)
}

// set maps id to the key at loc, not idle, creating id's chunk if it does
// not exist yet.
func (t *keyTable) set(id int, loc uint64) {
	c, i := t.at(id)
	if c == nil {
		c = &keyChunk{entries: make([]keyEntry, min(chunkSize, t.capacity-(id-i)))}
		if p := &t.chunks[id>>chunkBits]; !p.CompareAndSwap(nil, c) {
			c = p.Load()
		}
	}
	c.entries[i].setLoc(loc)
	c.entries[i].state.Store(stateMapped)
}

// clear unmaps a mapped id, dropping any idle mark with it.
func (t *keyTable) clear(id int) {
	c, i := t.at(id)
	c.entries[i].state.Store(stateFree)
}

// loc returns the key location of a mapped id.
func (t *keyTable) loc(id int) uint64 {
	c, i := t.at(id)
	return c.entries[i].loc()
}

// setLoc moves a mapped id's key to loc, keeping its state word.
func (t *keyTable) setLoc(id int, loc uint64) {
	c, i := t.at(id)
	c.entries[i].setLoc(loc)
}

// mapped reports whether id in [0, capacity) is mapped.
func (t *keyTable) mapped(id int) bool {
	return t.word(id) != stateFree
}

// word returns the state word of id in [0, capacity).
func (t *keyTable) word(id int) int32 {
	c, i := t.at(id)
	if c == nil {
		return stateFree
	}
	return c.entries[i].state.Load()
}

// setWord stores the state word of a mapped id.
func (t *keyTable) setWord(id int, w int32) {
	c, i := t.at(id)
	c.entries[i].state.Store(w)
}
