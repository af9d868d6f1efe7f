package core

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Snapshot format:
//
//	magic   [4]byte  "SPF1"
//	flags   uint8    bit0 = StrictNonNegative
//	m       uvarint
//	adds    uvarint
//	removes uvarint
//	freqs   m × svarint (zigzag), in object-id order
//
// The block structure is not serialised; WriteSnapshot stores only the
// frequencies and ReadSnapshot rebuilds the sorted profile with one bulk
// load (NewLoaded): ranking costs time linear in the nonzero frequencies,
// plus one sequential pass over the ids up to the largest nonzero one,
// rather than complicating the O(1) hot path. The ids past it stay implicit
// zeros, so a sparse snapshot reads back in memory proportional to its ids
// in use; the bytes of m slots are written and read either way.

var snapshotMagic = [4]byte{'S', 'P', 'F', '1'}

// WriteSnapshot serialises the profile to w.
func (p *Profile) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var flags byte
	if p.opts.StrictNonNegative {
		flags |= 1
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(p.m)); err != nil {
		return err
	}
	if err := writeUvarint(p.adds); err != nil {
		return err
	}
	if err := writeUvarint(p.removes); err != nil {
		return err
	}
	freqs := p.Frequencies(nil)
	for _, f := range freqs {
		if err := writeVarint(f); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a profile previously written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic[:])
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	mu, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if mu > MaxCapacity {
		return nil, fmt.Errorf("%w: capacity %d exceeds limit", ErrBadSnapshot, mu)
	}
	adds, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	removes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// The header alone may claim up to MaxCapacity slots; let the
	// frequencies actually read, not the claim, size the entries.
	var es []Entry
	for i := uint64(0); i < mu; i++ {
		f, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: frequency %d: %v", ErrBadSnapshot, i, err)
		}
		if f != 0 {
			es = append(es, Entry{Object: int(i), Frequency: f})
		}
	}
	strict := flags&1 != 0
	if err := CheckLoad(es, strict, adds, removes); err != nil {
		return nil, err
	}
	p := newProfile(int32(mu), Options{StrictNonNegative: strict})
	p.LoadEntries(es, adds, removes)
	return p, nil
}

// FromFrequencies builds a profile whose object x starts at frequency
// freqs[x]. It is equivalent to applying |freqs[x]| add/remove events per
// object, the fewest that produce freqs, but costs one load (LoadEntries)
// regardless of the magnitudes. Frequencies whose positive or negative sum
// passes MaxMagnitude are refused with ErrOutOfRange, as those events would
// be, and a negative one under WithStrictNonNegative with
// ErrNegativeFrequency.
func FromFrequencies(freqs []int64, opts ...Option) (*Profile, error) {
	es := Nonzero(freqs)
	adds, removes, err := EntrySums(es, options(opts).StrictNonNegative, 0)
	if err != nil {
		return nil, err
	}
	return NewLoaded(len(freqs), es, adds, removes, opts...)
}

// NewLoaded returns a profile of m object slots holding es, as LoadEntries
// leaves one; LoadEntries says what es and the counters must satisfy. It
// materialises only the ids up to the largest object in es, so its memory
// follows the ids loaded rather than m, and the ids past them materialise
// as updates reach them. NewLoaded(m, nil, 0, 0) is the all-zero profile
// of m slots with nothing materialised.
func NewLoaded(m int, es []Entry, adds, removes uint64, opts ...Option) (*Profile, error) {
	if m < 0 || m > MaxCapacity {
		return nil, fmt.Errorf("%w: %d", ErrCapacity, m)
	}
	p := newProfile(int32(m), options(opts))
	p.LoadEntries(es, adds, removes)
	return p, nil
}

// StrictNonNegative reports whether the profile was built with
// WithStrictNonNegative.
func (p *Profile) StrictNonNegative() bool { return p.opts.StrictNonNegative }

// LoadFrequencies replaces the profile's entire state: object x ends at
// frequency freqs[x] and the adds/removes counters are set to the given
// historical totals (they must net out to the summed frequencies). It is the
// restore half of checkpointing — unlike FromFrequencies it preserves the
// original event bookkeeping instead of synthesising a minimal one. It reads
// freqs once and then costs what LoadEntries costs for its nonzero
// frequencies. The counters and the frequencies' sums must lie within
// MaxMagnitude, as they do in any profile the checked delta path built (its
// adds counter bounds the positive sum, its removes counter the negative
// one). Validation happens before any mutation, so a failed load leaves the
// profile untouched.
func (p *Profile) LoadFrequencies(freqs []int64, adds, removes uint64) error {
	if len(freqs) != int(p.m) {
		return fmt.Errorf("%w: %d frequencies for capacity %d", ErrBadSnapshot, len(freqs), p.m)
	}
	es := Nonzero(freqs)
	if err := CheckLoad(es, p.opts.StrictNonNegative, adds, removes); err != nil {
		return err
	}
	p.LoadEntries(es, adds, removes)
	return nil
}

// CheckLoad refuses, with ErrBadSnapshot, a load of the nonzero frequencies
// es with the counters adds and removes into a profile that is strict or
// not: counters past MaxMagnitude, frequencies EntrySums refuses, or
// counters that do not net to the frequencies' sum. It is the check of
// LoadFrequencies and ReadSnapshot, for callers of NewLoaded that hold
// entries rather than frequencies.
func CheckLoad(es []Entry, strict bool, adds, removes uint64) error {
	if adds > MaxMagnitude || removes > MaxMagnitude {
		return fmt.Errorf("%w: %d adds and %d removes exceed %d", ErrBadSnapshot, adds, removes, uint64(MaxMagnitude))
	}
	pos, neg, err := EntrySums(es, strict, 0)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if net := int64(pos) - int64(neg); int64(adds)-int64(removes) != net {
		return fmt.Errorf("%w: %d adds - %d removes does not net to total %d",
			ErrBadSnapshot, adds, removes, net)
	}
	return nil
}

// Nonzero returns the nonzero frequencies of freqs as entries, object x for
// freqs[x], in object order.
func Nonzero(freqs []int64) []Entry {
	var es []Entry
	for x, f := range freqs {
		if f != 0 {
			es = append(es, Entry{Object: x, Frequency: f})
		}
	}
	return es
}

// EntrySums returns the sum of the positive frequencies in es and the
// magnitude of the sum of the negative ones: the fewest adds and removes
// that produce them. It fails with ErrOutOfRange when either sum passes
// MaxMagnitude, and with ErrNegativeFrequency when strict and a frequency is
// negative; base is added to an entry's object to name it in the error.
func EntrySums(es []Entry, strict bool, base int) (pos, neg uint64, err error) {
	for _, e := range es {
		f := e.Frequency
		if f < 0 && strict {
			return 0, 0, fmt.Errorf("%w: object %d has frequency %d", ErrNegativeFrequency, base+e.Object, f)
		}
		// Both sums are within MaxMagnitude before the step and a magnitude
		// is at most 2^63, so neither wraps. MaxMagnitude is 2^62-1, so the
		// one comparison of their OR checks both.
		if f >= 0 {
			pos += uint64(f)
		} else {
			neg += uint64(-f)
		}
		if pos|neg > MaxMagnitude {
			return 0, 0, fmt.Errorf("%w: frequency %d of object %d takes the frequencies' sums past %d",
				ErrOutOfRange, f, base+e.Object, uint64(MaxMagnitude))
		}
	}
	return pos, neg, nil
}

// LoadEntries replaces the profile's state: the object of each entry of es
// ends at its frequency, every other object at zero, and the adds and
// removes counters at the values given. It checks none of this, and may
// reorder es: the entries must have nonzero frequencies and distinct objects
// in [0, Cap()), EntrySums must accept them under the profile's strictness,
// and the counters must be what LoadFrequencies accepts for them.
//
// The ranks are those of a stable sort by (frequency, object id), and they
// cost time linear in len(es) plus one sequential pass over the
// materialised ids. The load keeps materialised the ids the profile already
// had and materialises those up to the largest object in es; the rest stay
// implicit zeros. The entries are ranked by an LSD radix sort of their
// positions in es, which must then be in object order (es is sorted first
// if it is not), so ties stay in id order. The sort runs in the rank
// arrays, which the load overwrites anyway, so it allocates nothing beyond
// their growth. The materialised objects es skips take the block of zeros
// between the negative and the positive frequencies, laid down in id order,
// and the implicit zeros follow them.
func (p *Profile) LoadEntries(es []Entry, adds, removes uint64) {
	key := func(i int32) uint64 { return uint64(es[i].Frequency) ^ 1<<63 }
	inOrder, neg, n := true, 0, p.n
	var diff uint64 // the bits in which some key differs from the first
	for i, e := range es {
		if i > 0 && e.Object < es[i-1].Object {
			inOrder = false
		}
		if e.Frequency < 0 {
			neg++
		}
		n = max(n, int32(e.Object)+1)
		diff |= key(int32(i)) ^ key(0)
	}
	p.n = n
	p.fToT = resize(p.fToT, n)
	p.tToF = resize(p.tToF, n)
	p.ptrB = resize(p.ptrB, n)
	if !inOrder {
		slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Object, b.Object) })
	}
	var shifts []uint
	for s := uint(0); s < 64; s += 8 {
		if diff>>s&0xff != 0 {
			shifts = append(shifts, s)
		}
	}
	// The passes alternate between ptrB and tToF, starting from whichever
	// makes the last pass land in ptrB: the placement below writes tToF and
	// fToT, and ptrB only once it has read every position.
	src, dst := p.ptrB[:len(es)], p.tToF[:len(es)]
	if len(shifts)%2 == 1 {
		src, dst = dst, src
	}
	for i := range src {
		src[i] = int32(i)
	}
	for _, s := range shifts {
		var offsets [256]int
		for i := range es {
			offsets[key(int32(i))>>s&0xff]++
		}
		sum := 0
		for d, c := range offsets {
			offsets[d] = sum
			sum += c
		}
		for _, i := range src {
			d := key(i) >> s & 0xff
			dst[offsets[d]] = i
			offsets[d]++
		}
		src, dst = dst, src
	}

	zeros := int(p.n) - len(es)
	p.arena.reset()
	p.total, p.active, p.negative = 0, 0, 0
	p.adds, p.removes = adds, removes
	p.place(es, src[:neg], 0)
	if zeros > 0 {
		p.arena.alloc(int32(neg), int32(neg+zeros-1), 0)
		r, x := int32(neg), int32(0)
		for i := 0; i <= len(es); i++ {
			next := p.n
			if i < len(es) {
				next = int32(es[i].Object)
			}
			for ; x < next; x++ {
				p.tToF[r], p.fToT[x] = x, r
				r++
			}
			x++
		}
	}
	p.place(es, src[neg:], int32(neg+zeros))
	// The blocks were allocated in rank order, so handle h covers the h-th
	// run of ranks.
	for h, b := range p.arena.slab {
		for r := b.l; r <= b.r; r++ {
			p.ptrB[r] = int32(h)
		}
	}
}

// place gives the entries es[i] for i in order, which lists them by
// frequency, the ranks from first on, and allocates one block per run of
// equal frequencies. It sets tToF and fToT but not ptrB, where order lives.
func (p *Profile) place(es []Entry, order []int32, first int32) {
	for i := 0; i < len(order); {
		f := es[order[i]].Frequency
		l := first + int32(i)
		for ; i < len(order) && es[order[i]].Frequency == f; i++ {
			x := int32(es[order[i]].Object)
			r := first + int32(i)
			p.tToF[r], p.fToT[x] = x, r
		}
		r := first + int32(i) - 1
		p.arena.alloc(l, r, f)
		n := r - l + 1
		p.total += f * int64(n)
		if f > 0 {
			p.active += n
		} else {
			p.negative += n
		}
	}
}

// Snapshot returns a point-in-time deep copy of the profile. It exists so
// that a plain Profile offers the same consistent-snapshot capability as the
// concurrency wrappers (see sprofile.Snapshotter); the error is always nil.
func (p *Profile) Snapshot() (*Profile, error) { return p.Clone(), nil }

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	q := &Profile{
		m:        p.m,
		n:        p.n,
		opts:     p.opts,
		fToT:     append([]int32(nil), p.fToT...),
		tToF:     append([]int32(nil), p.tToF...),
		ptrB:     append([]int32(nil), p.ptrB...),
		arena:    &blockArena{slab: append([]block(nil), p.arena.slab...), free: p.arena.free, live: p.arena.live},
		total:    p.total,
		active:   p.active,
		negative: p.negative,
		adds:     p.adds,
		removes:  p.removes,
	}
	return q
}
