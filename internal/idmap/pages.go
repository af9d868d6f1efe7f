package idmap

import "sync/atomic"

// Page geometry. A range writes its keys into pages that grow from minPage
// to maxPage bytes; a key longer than bigKey gets a page of its own, so the
// tail a page leaves unused when the next key does not fit stays short.
const (
	minPage = 1 << 10
	maxPage = 1 << 16
	bigKey  = maxPage / 16
)

// A key's location in its range's pages is page<<32 | offset<<16 | length.
// Regular keys are at most bigKey bytes in pages of at most maxPage bytes,
// so both fit 16 bits; a key with a page of its own has length wholePage
// and offset 0, and an empty key has location 0 and reads no page.
const (
	lenMask   = 1<<16 - 1
	wholePage = lenMask
)

// keyPages holds the bytes of the keys whose ids lie in one range, in
// append-only byte slices that hold no pointer, addressed by location.
//
// The owning range's alloc lock guards every field but list. list is the
// published page list: a reader that may run without the alloc lock (an
// index lookup under a map-stripe lock) loads it atomically. A new page is
// appended to a fresh copy of the slice header, so a published list never
// changes; a compaction publishes a new list while every reader is
// excluded.
//
// live counts the bytes of mapped keys. dead counts the bytes no key uses
// that a compaction would reclaim: released keys, the rest of an evicted
// key whose successor reused its bytes, and page tails left when the next
// key did not fit.
type keyPages struct {
	list       atomic.Pointer[[][]byte]
	pages      [][]byte // the writer's view of list
	cur        int      // index+1 of the page regular keys go into, 0 before the first
	used       int      // bytes of that page in use
	live, dead int
	// compactions counts the compactions so far, for tests.
	compactions int
}

// pageBytes returns the bytes at loc in the page list pages.
func pageBytes(pages [][]byte, loc uint64) []byte {
	n := loc & lenMask
	switch {
	case n == 0:
		return nil
	case n == wholePage:
		return pages[loc>>32]
	}
	off := loc >> 16 & lenMask
	return pages[loc>>32][off : off+n]
}

// bytes returns the bytes at loc. The caller holds a lock that keeps the key
// there mapped: its map-stripe lock or its range's alloc lock.
func (p *keyPages) bytes(loc uint64) []byte {
	if loc&lenMask == 0 {
		return nil
	}
	return pageBytes(*p.list.Load(), loc)
}

// add appends pg to the page list, publishes the list and returns pg's
// index.
func (p *keyPages) add(pg []byte) int {
	p.pages = append(p.pages, pg)
	list := p.pages
	p.list.Store(&list)
	return len(p.pages) - 1
}

// putKey copies key into p and returns its location. A new page doubles the
// last one up to maxPage, or takes sizeHint bytes when that is more: a
// compaction passes the bytes it has left to copy.
func putKey[T ~string | ~[]byte](p *keyPages, key T, sizeHint int) uint64 {
	n := len(key)
	p.live += n
	switch {
	case n == 0:
		return 0
	case n > bigKey:
		return uint64(p.add([]byte(key)))<<32 | wholePage
	}
	if p.cur == 0 || p.used+n > len(p.pages[p.cur-1]) {
		size := minPage
		if p.cur > 0 {
			p.dead += len(p.pages[p.cur-1]) - p.used
			size = 2 * len(p.pages[p.cur-1])
		}
		for size < min(max(n, sizeHint), maxPage) {
			size *= 2
		}
		p.cur, p.used = p.add(make([]byte, min(size, maxPage)))+1, 0
	}
	off := p.used
	p.used += copy(p.pages[p.cur-1][off:], key)
	return uint64(p.cur-1)<<32 | uint64(off)<<16 | uint64(n)
}

// drop accounts the key at loc released: its bytes are dead.
func (p *keyPages) drop(loc uint64) {
	n := len(p.bytes(loc))
	p.live -= n
	p.dead += n
}

// replace drops the key at loc and puts key in its place, returning key's
// location. A key no longer than a regular one at loc is written over its
// bytes: the caller has unmapped the old key and holds the locks its
// readers take, so no reader sees the bytes change.
func (p *keyPages) replace(loc uint64, key string) uint64 {
	old := p.bytes(loc)
	if len(key) > len(old) || loc&lenMask == wholePage {
		p.drop(loc)
		return putKey(p, key, 0)
	}
	copy(old, key)
	p.live += len(key) - len(old)
	p.dead += len(old) - len(key)
	if len(key) == 0 {
		return 0
	}
	return loc&^lenMask | uint64(len(key))
}

// due reports whether the pages should be compacted: their dead bytes pass
// both their live bytes and one full page. Live plus dead bytes then stay
// at most twice the live bytes plus maxPage.
func (p *keyPages) due() bool {
	return p.dead > max(p.live, maxPage)
}

// compact moves the range's live keys into fresh pages. each must call
// move once with the location of every live key of the range and store the
// location move returns in its place; a key with a page of its own keeps
// that page. The caller excludes every reader of the range's keys.
func (p *keyPages) compact(each func(move func(loc uint64) uint64)) {
	old := *p.list.Load()
	left := p.live
	p.pages, p.cur, p.used, p.live, p.dead = nil, 0, 0, 0, 0
	each(func(loc uint64) uint64 {
		b := pageBytes(old, loc)
		hint := left
		left -= len(b)
		if loc&lenMask == wholePage {
			p.live += len(b)
			return uint64(p.add(b))<<32 | wholePage
		}
		return putKey(p, b, hint)
	})
	list := p.pages
	p.list.Store(&list)
	p.compactions++
}
