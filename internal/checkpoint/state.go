// Package checkpoint is the persistence subsystem around the segmented
// write-ahead log: atomic snapshots, log rotation and truncation, and
// bounded-time recovery.
//
// A checkpointed log directory holds rotating WAL segments (see
// internal/wal) plus snapshot files
//
//	snap-<seq, 16 hex digits>.sks
//
// Each snapshot is written to a .tmp file, fsynced, atomically renamed into
// place, and only then are the WAL segments it covers deleted — so at every
// instant the directory contains a valid snapshot (or none) plus the
// segments needed to roll it forward to the latest appended record. Recovery
// is: load the newest valid snapshot, replay only the segments after the one
// it sealed. Both recovery time and disk footprint are therefore bounded by
// the checkpoint cadence, not by the full ingest history.
//
// Snapshot file format ("SKS1"):
//
//	magic    [4]byte  "SKS1"
//	version  1 byte   (1)
//	kind     1 byte   1 = keyed
//	seq      uvarint  snapshot sequence number
//	sealed   uvarint  id of the last WAL segment the snapshot covers
//	payload  capacity, adds, removes, count uvarints, then count ×
//	         (keyLen uvarint, key bytes, frequency svarint) — the key
//	         table and per-key frequencies of a keyed profile
//	crc      uint32 little-endian, IEEE CRC-32 of all preceding bytes
//
// The trailing checksum lets recovery reject a snapshot damaged after the
// fact and fall back to the previous one. Kind 0 was a dense-id profile
// image (an embedded SPF1 blob); commit ce8033a is the last that reads it.
// A checksum-valid kind-0 snapshot is refused (errDenseSnapshot), not
// skipped: falling back past it would silently drop the state it holds.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"sprofile/internal/core"
)

// ErrBadSnapshot is returned when a snapshot file cannot be decoded. It
// wraps core.ErrBadSnapshot, which the root package exports, so a decode
// error matches sprofile.ErrBadSnapshot wherever it surfaces.
var ErrBadSnapshot = fmt.Errorf("checkpoint: %w", core.ErrBadSnapshot)

// errDenseSnapshot is returned for a snapshot of the retired dense-id kind.
// It wraps ErrBadSnapshot and errors.ErrUnsupported, and names the last
// commit that reads the kind.
var errDenseSnapshot = fmt.Errorf("%w: a dense-id snapshot (kind 0) is no longer read; commit ce8033a is the last that reads it: %w",
	ErrBadSnapshot, errors.ErrUnsupported)

var snapMagic = [4]byte{'S', 'K', 'S', '1'}

const (
	snapVersion = 1

	kindDense byte = 0
	kindKeyed byte = 1
)

// State is one snapshot's decoded payload: the complete image of a keyed
// profile at a checkpoint, sufficient to rebuild it without replaying the
// events the snapshot covers.
type State struct {
	// KeyBytes holds every key's bytes back to back, one pointer-free run
	// instead of a string per key: key i ends at KeyEnds[i] and starts
	// where key i-1 ends (key 0 at 0). Key i held frequency Freqs[i]. Dense
	// ids are deliberately absent — restore assigns the keys new ones,
	// because the stripe hashing that places keys is seeded per process.
	KeyBytes []byte
	KeyEnds  []int
	Freqs    []int64

	// Capacity, Adds and Removes mirror the profile's bookkeeping so a
	// restore reproduces Summarize() exactly, not just the frequencies.
	Capacity int
	Adds     uint64
	Removes  uint64

	// Seq and SealedSeg are assigned by the Store when the snapshot is
	// written: its sequence number and the last WAL segment it covers.
	Seq       uint64
	SealedSeg uint64
}

// Len returns the number of keys.
func (st *State) Len() int { return len(st.KeyEnds) }

// Key returns the bytes of key i, a view into KeyBytes.
func (st *State) Key(i int) []byte {
	start := 0
	if i > 0 {
		start = st.KeyEnds[i-1]
	}
	return st.KeyBytes[start:st.KeyEnds[i]:st.KeyEnds[i]]
}

// Keys yields every key's index and a string copy of its bytes, so
// `for i, key := range st.Keys` walks the keys as strings.
func (st *State) Keys(yield func(int, string) bool) {
	for i := range st.KeyEnds {
		if !yield(i, string(st.Key(i))) {
			return
		}
	}
}

// Append adds key, held at frequency f.
func (st *State) Append(key []byte, f int64) {
	st.KeyBytes = append(st.KeyBytes, key...)
	st.KeyEnds = append(st.KeyEnds, len(st.KeyBytes))
	st.Freqs = append(st.Freqs, f)
}

// encodeState writes the snapshot file body (header, payload, checksum).
func encodeState(w io.Writer, st *State) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	h := crc32.NewIEEE()
	tw := io.MultiWriter(bw, h)

	if _, err := tw.Write(snapMagic[:]); err != nil {
		return err
	}
	if _, err := tw.Write([]byte{snapVersion, kindKeyed}); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := tw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(st.Seq); err != nil {
		return err
	}
	if err := writeUvarint(st.SealedSeg); err != nil {
		return err
	}
	if st.Len() != len(st.Freqs) {
		return fmt.Errorf("checkpoint: %d keys but %d frequencies", st.Len(), len(st.Freqs))
	}
	if err := writeUvarint(uint64(st.Capacity)); err != nil {
		return err
	}
	if err := writeUvarint(st.Adds); err != nil {
		return err
	}
	if err := writeUvarint(st.Removes); err != nil {
		return err
	}
	if err := writeUvarint(uint64(st.Len())); err != nil {
		return err
	}
	// Each entry (key length, key, frequency) goes through one reused
	// buffer in one Write. io.WriteString on the MultiWriter would copy
	// every key into a fresh []byte, because the checksum side has no
	// WriteString.
	var entry []byte
	for i := range st.KeyEnds {
		key := st.Key(i)
		entry = binary.AppendUvarint(entry[:0], uint64(len(key)))
		entry = append(entry, key...)
		entry = binary.AppendVarint(entry, st.Freqs[i])
		if _, err := tw.Write(entry); err != nil {
			return err
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// decodeState parses a snapshot file body, verifying the checksum first. It
// walks the byte slice directly and copies the keys into one byte run, so
// decoding makes three allocations however many keys the snapshot holds.
func decodeState(data []byte) (*State, error) {
	if len(data) < 4+2+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadSnapshot, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	if [4]byte(body[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if body[4] != snapVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadSnapshot, body[4])
	}
	if body[5] == kindDense {
		return nil, errDenseSnapshot
	}
	if body[5] != kindKeyed {
		return nil, fmt.Errorf("%w: kind %d", ErrBadSnapshot, body[5])
	}
	rest := body[6:]
	st := &State{}
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrBadSnapshot)
		}
		rest = rest[n:]
		return v, nil
	}
	var err error
	if st.Seq, err = readUvarint(); err != nil {
		return nil, err
	}
	if st.SealedSeg, err = readUvarint(); err != nil {
		return nil, err
	}
	capacity, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if capacity > uint64(core.MaxCapacity) {
		return nil, fmt.Errorf("%w: capacity %d exceeds limit", ErrBadSnapshot, capacity)
	}
	st.Capacity = int(capacity)
	if st.Adds, err = readUvarint(); err != nil {
		return nil, err
	}
	if st.Removes, err = readUvarint(); err != nil {
		return nil, err
	}
	count, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if count > capacity {
		return nil, fmt.Errorf("%w: %d keys exceed capacity %d", ErrBadSnapshot, count, capacity)
	}
	// An entry takes at least two bytes (key length and frequency), so the
	// input bounds the count before it sizes anything.
	if count > uint64(len(rest))/2 {
		return nil, fmt.Errorf("%w: %d keys cannot fit in %d bytes", ErrBadSnapshot, count, len(rest))
	}
	// The key bytes are what is left once each entry's first length byte
	// and first frequency byte are taken.
	st.KeyBytes = make([]byte, 0, uint64(len(rest))-2*count)
	st.KeyEnds = make([]int, 0, count)
	st.Freqs = make([]int64, 0, count)
	for i := uint64(0); i < count; i++ {
		keyLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if keyLen > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: key length %d", ErrBadSnapshot, keyLen)
		}
		key := rest[:keyLen]
		rest = rest[keyLen:]
		f, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: frequency of key %d", ErrBadSnapshot, i)
		}
		rest = rest[n:]
		st.Append(key, f)
	}
	return st, nil
}
