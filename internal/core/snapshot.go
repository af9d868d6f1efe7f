package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
// frequencies and ReadSnapshot rebuilds the sorted profile in time linear in
// m (a radix sort, see rankOrder) rather than complicating the O(1) hot
// path.

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
	// frequencies actually read, not the claim, size the slice.
	freqs := make([]int64, 0, min(mu, 1<<12))
	for i := uint64(0); i < mu; i++ {
		f, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: frequency %d: %v", ErrBadSnapshot, i, err)
		}
		freqs = append(freqs, f)
	}
	var opts Options
	if flags&1 != 0 {
		opts.StrictNonNegative = true
	}
	p := newProfile(int32(mu), opts)
	if err := p.LoadFrequencies(freqs, adds, removes); err != nil {
		return nil, err
	}
	return p, nil
}

// FromFrequencies builds a profile whose object x starts at frequency
// freqs[x]. It is equivalent to applying |freqs[x]| add/remove events per
// object but costs O(m) regardless of the magnitudes.
func FromFrequencies(freqs []int64, opts ...Option) (*Profile, error) {
	if len(freqs) > MaxCapacity {
		return nil, fmt.Errorf("%w: %d", ErrCapacity, len(freqs))
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.StrictNonNegative {
		for x, f := range freqs {
			if f < 0 {
				return nil, fmt.Errorf("%w: object %d has frequency %d", ErrNegativeFrequency, x, f)
			}
		}
	}
	p := newProfile(int32(len(freqs)), o)
	p.loadFrequencies(freqs)
	// Attribute the initial state to synthetic events for bookkeeping.
	for _, f := range freqs {
		if f > 0 {
			p.adds += uint64(f)
		} else {
			p.removes += uint64(-f)
		}
	}
	return p, nil
}

// StrictNonNegative reports whether the profile was built with
// WithStrictNonNegative.
func (p *Profile) StrictNonNegative() bool { return p.opts.StrictNonNegative }

// LoadFrequencies replaces the profile's entire state: object x ends at
// frequency freqs[x] and the adds/removes counters are set to the given
// historical totals (they must net out to the summed frequencies). It is the
// restore half of checkpointing — unlike FromFrequencies it preserves the
// original event bookkeeping instead of synthesising a minimal one — and
// costs O(m). The counters and FrequencySums must lie within MaxMagnitude,
// as they do in any profile the checked delta path built (its adds counter
// bounds the positive sum, its removes counter the negative one).
// Validation happens before any mutation, so a failed load leaves the
// profile untouched.
func (p *Profile) LoadFrequencies(freqs []int64, adds, removes uint64) error {
	if len(freqs) != int(p.m) {
		return fmt.Errorf("%w: %d frequencies for capacity %d", ErrBadSnapshot, len(freqs), p.m)
	}
	if adds > MaxMagnitude || removes > MaxMagnitude {
		return fmt.Errorf("%w: %d adds and %d removes exceed %d", ErrBadSnapshot, adds, removes, uint64(MaxMagnitude))
	}
	pos, neg, err := FrequencySums(freqs, p.opts.StrictNonNegative, 0)
	if err != nil {
		return err
	}
	if net := int64(pos) - int64(neg); int64(adds)-int64(removes) != net {
		return fmt.Errorf("%w: %d adds - %d removes does not net to total %d",
			ErrBadSnapshot, adds, removes, net)
	}
	p.loadFrequencies(freqs)
	p.adds = adds
	p.removes = removes
	return nil
}

// FrequencySums returns the sum of the positive frequencies in freqs and
// the magnitude of the sum of the negative ones: the fewest adds and
// removes that produce them. It fails with ErrBadSnapshot when either sum
// passes MaxMagnitude, or when strict and a frequency is negative; base is
// the id of freqs[0], to name the object in the error.
func FrequencySums(freqs []int64, strict bool, base int) (pos, neg uint64, err error) {
	for x, f := range freqs {
		if f < 0 && strict {
			return 0, 0, fmt.Errorf("%w: %w: object %d has frequency %d", ErrBadSnapshot, ErrNegativeFrequency, base+x, f)
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
				ErrBadSnapshot, f, base+x, uint64(MaxMagnitude))
		}
	}
	return pos, neg, nil
}

// loadFrequencies overwrites the profile's state so that object x has
// frequency freqs[x]; len(freqs) must equal p.m. It runs in time linear in
// m: rankOrder sorts the ids, and one walk over the ranks rebuilds the
// blocks.
func (p *Profile) loadFrequencies(freqs []int64) {
	m := int(p.m)
	rankOrder(freqs, p.tToF)

	p.arena.reset()
	p.total = 0
	p.active = 0
	p.negative = 0
	for r, x := range p.tToF {
		p.fToT[x] = int32(r)
	}
	for r := 0; r < m; {
		f := freqs[p.tToF[r]]
		end := r
		for end+1 < m && freqs[p.tToF[end+1]] == f {
			end++
		}
		h := p.arena.alloc(int32(r), int32(end), f)
		for i := r; i <= end; i++ {
			p.ptrB[i] = h
		}
		count := int64(end - r + 1)
		p.total += f * count
		if f > 0 {
			p.active += int32(count)
		}
		if f < 0 {
			p.negative += int32(count)
		}
		r = end + 1
	}
}

// rankOrder writes to order the ids 0..len(freqs)-1 sorted by frequency,
// ties by id: the rank order of a profile holding freqs. It is a stable LSD
// radix sort of the identity order on the sign-flipped frequency (which
// orders as an unsigned integer exactly as the frequency does as a signed
// one), so ties stay in id order. It makes one counting pass per 8-bit
// digit and skips the digits every frequency shares: at most eight passes,
// two when every frequency is in [0, 2^16), none when all are equal.
func rankOrder(freqs []int64, order []int32) {
	const flip = 1 << 63
	var diff uint64 // the bits in which some frequency differs from the first
	for _, f := range freqs {
		diff |= uint64(f ^ freqs[0])
	}
	var shifts []uint
	for s := uint(0); s < 64; s += 8 {
		if diff>>s&0xff != 0 {
			shifts = append(shifts, s)
		}
	}
	// The passes alternate between order and one scratch slice, starting
	// from whichever makes the last pass land in order.
	src, dst := order, make([]int32, len(freqs))
	if len(shifts)%2 == 1 {
		src, dst = dst, src
	}
	for i := range src {
		src[i] = int32(i)
	}
	for _, s := range shifts {
		var offsets [256]int
		for _, f := range freqs {
			offsets[(uint64(f)^flip)>>s&0xff]++
		}
		sum := 0
		for d, c := range offsets {
			offsets[d] = sum
			sum += c
		}
		for _, x := range src {
			d := (uint64(freqs[x]) ^ flip) >> s & 0xff
			dst[offsets[d]] = x
			offsets[d]++
		}
		src, dst = dst, src
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
