package core

import (
	"fmt"
	"math"
)

// Action describes one event of a log stream: an object is either added
// (frequency +1) or removed (frequency -1).
type Action int8

const (
	// ActionAdd increments the frequency of an object.
	ActionAdd Action = 1
	// ActionRemove decrements the frequency of an object.
	ActionRemove Action = -1
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionAdd:
		return "add"
	case ActionRemove:
		return "remove"
	default:
		return fmt.Sprintf("Action(%d)", int8(a))
	}
}

// Opposite returns the inverse action, used by sliding-window adapters to
// expire tuples (paper §2.3).
func (a Action) Opposite() Action {
	switch a {
	case ActionAdd:
		return ActionRemove
	case ActionRemove:
		return ActionAdd
	default:
		return a
	}
}

// Valid reports whether a is one of the two defined actions.
func (a Action) Valid() bool { return a == ActionAdd || a == ActionRemove }

// Tuple is one log-stream event (x_i, c_i) in the paper's notation.
type Tuple struct {
	Object int
	Action Action
}

// MaxCapacity is the largest number of object slots a Profile can hold. The
// internal rank arrays use 32-bit indices so the limit is MaxInt32.
const MaxCapacity = math.MaxInt32

// Options configures a Profile. The zero value matches the paper's setting:
// frequencies may go negative (a remove may precede any add) and the block
// slab starts with a small default capacity.
type Options struct {
	// StrictNonNegative makes Remove fail with ErrNegativeFrequency instead
	// of letting a frequency drop below zero.
	StrictNonNegative bool

	// BlockHint pre-sizes the block slab. Zero selects a small default.
	// The worst case is m blocks, but real streams use far fewer.
	BlockHint int
}

// Option mutates Options; see With* helpers.
type Option func(*Options)

// WithStrictNonNegative makes removals of absent objects an error rather
// than producing negative frequencies.
func WithStrictNonNegative() Option {
	return func(o *Options) { o.StrictNonNegative = true }
}

// WithBlockHint pre-sizes the block slab to hold hint blocks.
func WithBlockHint(hint int) Option {
	return func(o *Options) { o.BlockHint = hint }
}

// Profile is the S-Profile data structure: a constant-time-per-update
// profile of the frequencies of m objects under a ±1 log stream.
//
// Objects are identified by dense ids in [0, m). Mapping sparse or string
// identifiers onto dense ids is the job of package idmap (and of the public
// sprofile.Keyed wrapper).
//
// A Profile is not safe for concurrent use; lock it or shard it (see
// sprofile.Sharded) if multiple goroutines must update it.
type Profile struct {
	m    int32
	opts Options

	// fToT[x] is the rank of object x in the conceptual ascending-sorted
	// frequency array T; tToF[r] is the object at rank r. They are inverse
	// permutations of each other.
	fToT []int32
	tToF []int32

	// ptrB[r] is the arena handle of the block covering rank r.
	ptrB  []int32
	arena *blockArena

	total    int64  // sum of all frequencies
	active   int32  // number of objects with frequency > 0
	negative int32  // number of objects with frequency < 0
	adds     uint64 // count of applied add events
	removes  uint64 // count of applied remove events
}

// New returns a Profile for m object slots, all starting at frequency zero.
func New(m int, opts ...Option) (*Profile, error) {
	if m < 0 || m > MaxCapacity {
		return nil, fmt.Errorf("%w: %d", ErrCapacity, m)
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return newProfile(int32(m), o), nil
}

// MustNew is New for callers with a known-good capacity; it panics on error.
func MustNew(m int, opts ...Option) *Profile {
	p, err := New(m, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

func newProfile(m int32, o Options) *Profile {
	hint := o.BlockHint
	if hint <= 0 {
		hint = 16
	}
	p := &Profile{
		m:     m,
		opts:  o,
		fToT:  make([]int32, m),
		tToF:  make([]int32, m),
		ptrB:  make([]int32, m),
		arena: newBlockArena(hint),
	}
	p.initZero()
	return p
}

// initZero sets every frequency to zero: identity permutations and a single
// block covering every rank.
func (p *Profile) initZero() {
	for i := int32(0); i < p.m; i++ {
		p.fToT[i] = i
		p.tToF[i] = i
	}
	p.arena.reset()
	if p.m > 0 {
		h := p.arena.alloc(0, p.m-1, 0)
		for i := int32(0); i < p.m; i++ {
			p.ptrB[i] = h
		}
	}
	p.total = 0
	p.active = 0
	p.negative = 0
	p.adds = 0
	p.removes = 0
}

// Reset restores the profile to its initial all-zero state without releasing
// its memory.
func (p *Profile) Reset() { p.initZero() }

// Cap returns m, the number of object slots.
func (p *Profile) Cap() int { return int(p.m) }

// Total returns the sum of all frequencies (adds minus removes applied).
func (p *Profile) Total() int64 { return p.total }

// Active returns the number of objects whose frequency is strictly positive.
func (p *Profile) Active() int { return int(p.active) }

// NegativeCount returns the number of objects whose frequency is negative.
// It is always zero when the profile was built with WithStrictNonNegative.
func (p *Profile) NegativeCount() int { return int(p.negative) }

// Events returns the number of add and remove events applied since the last
// reset.
func (p *Profile) Events() (adds, removes uint64) { return p.adds, p.removes }

// Blocks returns the number of live blocks, i.e. the number of distinct
// frequency values currently present.
func (p *Profile) Blocks() int { return p.arena.liveBlocks() }

// MemoryFootprint returns an estimate, in bytes, of the heap memory retained
// by the profile (the three rank arrays plus the block slab).
func (p *Profile) MemoryFootprint() int64 {
	const int32Size, blockSize = 4, 16
	return int64(len(p.fToT)+len(p.tToF)+len(p.ptrB))*int32Size +
		int64(p.arena.capBlocks())*blockSize
}

// Count returns the current frequency of object x.
func (p *Profile) Count(x int) (int64, error) {
	if x < 0 || int32(x) >= p.m {
		return 0, errObjectRange(x, int(p.m))
	}
	return p.arena.at(p.ptrB[p.fToT[x]]).f, nil
}

// Rank returns the 0-based position of object x in the ascending-sorted
// frequency array. Objects sharing a frequency occupy an arbitrary but
// consistent order inside their block.
func (p *Profile) Rank(x int) (int, error) {
	if x < 0 || int32(x) >= p.m {
		return 0, errObjectRange(x, int(p.m))
	}
	return int(p.fToT[x]), nil
}

// Add applies an "add" event for object x: its frequency increases by one.
// The amortised and worst-case cost is O(1).
func (p *Profile) Add(x int) error {
	if x < 0 || int32(x) >= p.m {
		return errObjectRange(x, int(p.m))
	}
	p.add(int32(x))
	return nil
}

// Remove applies a "remove" event for object x: its frequency decreases by
// one. In strict mode removing an object with frequency zero (or less)
// returns ErrNegativeFrequency and leaves the profile unchanged.
func (p *Profile) Remove(x int) error {
	if x < 0 || int32(x) >= p.m {
		return errObjectRange(x, int(p.m))
	}
	if p.opts.StrictNonNegative {
		if f := p.arena.at(p.ptrB[p.fToT[x]]).f; f <= 0 {
			return fmt.Errorf("%w: object %d has frequency %d", ErrNegativeFrequency, x, f)
		}
	}
	p.remove(int32(x))
	return nil
}

// Apply applies one log-stream tuple.
func (p *Profile) Apply(t Tuple) error {
	switch t.Action {
	case ActionAdd:
		return p.Add(t.Object)
	case ActionRemove:
		return p.Remove(t.Object)
	default:
		return errInvalidAction(t.Action)
	}
}

// ApplyAll applies tuples in order, stopping at the first error. It returns
// the number of tuples applied.
func (p *Profile) ApplyAll(tuples []Tuple) (int, error) {
	for i, t := range tuples {
		if err := p.Apply(t); err != nil {
			return i, err
		}
	}
	return len(tuples), nil
}

// add is Algorithm 1, "add" branch. The frequency of object x rises from f
// to f+1: x is swapped to the right end of its block, the block shrinks by
// one, and the vacated rank joins the right neighbour block (if it already
// holds f+1) or becomes a fresh single-rank block.
func (p *Profile) add(x int32) {
	r0 := p.fToT[x]
	bh := p.ptrB[r0]
	b := p.arena.at(bh)
	f := b.f
	last := b.r

	if r0 != last {
		y := p.tToF[last]
		p.tToF[last] = x
		p.tToF[r0] = y
		p.fToT[x] = last
		p.fToT[y] = r0
	}

	b.r--
	emptied := b.r < b.l

	if last < p.m-1 && p.arena.at(p.ptrB[last+1]).f == f+1 {
		nh := p.ptrB[last+1]
		p.arena.at(nh).l = last
		p.ptrB[last] = nh
	} else {
		// alloc may grow the slab; b must not be dereferenced afterwards.
		nh := p.arena.alloc(last, last, f+1)
		p.ptrB[last] = nh
	}
	if emptied {
		p.arena.release(bh)
	}

	p.total++
	p.adds++
	switch f {
	case 0:
		p.active++
	case -1:
		p.negative--
	}
}

// remove is Algorithm 1, "remove" branch, the mirror image of add: x is
// swapped to the left end of its block, the block shrinks by one, and the
// vacated rank joins the left neighbour block (if it already holds f-1) or
// becomes a fresh single-rank block.
func (p *Profile) remove(x int32) {
	r0 := p.fToT[x]
	bh := p.ptrB[r0]
	b := p.arena.at(bh)
	f := b.f
	first := b.l

	if r0 != first {
		y := p.tToF[first]
		p.tToF[first] = x
		p.tToF[r0] = y
		p.fToT[x] = first
		p.fToT[y] = r0
	}

	b.l++
	emptied := b.r < b.l

	if first > 0 && p.arena.at(p.ptrB[first-1]).f == f-1 {
		nh := p.ptrB[first-1]
		p.arena.at(nh).r = first
		p.ptrB[first] = nh
	} else {
		nh := p.arena.alloc(first, first, f-1)
		p.ptrB[first] = nh
	}
	if emptied {
		p.arena.release(bh)
	}

	p.total--
	p.removes++
	switch f {
	case 1:
		p.active--
	case 0:
		p.negative++
	}
}
