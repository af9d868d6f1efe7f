package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sprofile/internal/core"
)

// withCRC returns body followed by its IEEE CRC-32, the snapshot file
// layout decodeState expects.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.ChecksumIEEE(body))
}

// forgedKeyed is a 33-byte checksum-valid keyed snapshot whose header
// declares capacity = count = MaxInt32 but which carries three entries.
func forgedKeyed() []byte {
	b := append([]byte{}, snapMagic[:]...)
	b = append(b, snapVersion, kindKeyed)
	b = binary.AppendUvarint(b, 1) // seq
	b = binary.AppendUvarint(b, 0) // sealed segment
	b = binary.AppendUvarint(b, math.MaxInt32)
	b = binary.AppendUvarint(b, 0) // adds
	b = binary.AppendUvarint(b, 0) // removes
	b = binary.AppendUvarint(b, math.MaxInt32)
	for range 3 {
		b = append(b, 1, 'a', 2) // key "a", frequency 1
	}
	return withCRC(b)
}

// forgedDense is a checksum-valid dense snapshot whose SPF1 header declares
// MaxInt32 object slots but which carries three frequencies.
func forgedDense() []byte {
	b := append([]byte{}, snapMagic[:]...)
	b = append(b, snapVersion, kindDense)
	b = binary.AppendUvarint(b, 1) // seq
	b = binary.AppendUvarint(b, 0) // sealed segment
	b = append(b, 'S', 'P', 'F', '1', 0)
	b = binary.AppendUvarint(b, math.MaxInt32)
	b = binary.AppendUvarint(b, 0) // adds
	b = binary.AppendUvarint(b, 0) // removes
	b = append(b, 2, 2, 2)
	return withCRC(b)
}

// decodeAllocBytes decodes data and reports the bytes the decode allocated
// and its error.
func decodeAllocBytes(data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeState(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestDecodeStateRejectsForgedKeyedCount: a tiny keyed snapshot declaring
// MaxInt32 keys must be refused without sizing anything by the claim (which
// would pre-allocate ~48 GiB and kill the process).
func TestDecodeStateRejectsForgedKeyedCount(t *testing.T) {
	data := forgedKeyed()
	if len(data) != 33 {
		t.Fatalf("forged keyed snapshot is %d bytes, want 33", len(data))
	}
	allocated, err := decodeAllocBytes(data)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("decodeState = %v, want ErrBadSnapshot", err)
	}
	if allocated > 1<<20 {
		t.Fatalf("decoding a %d-byte snapshot allocated %d bytes", len(data), allocated)
	}
}

// TestDecodeStateRejectsForgedDenseCapacity: the same for a dense snapshot
// whose SPF1 header declares MaxInt32 slots (16 GiB of frequencies).
func TestDecodeStateRejectsForgedDenseCapacity(t *testing.T) {
	data := forgedDense()
	allocated, err := decodeAllocBytes(data)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("decodeState = %v, want ErrBadSnapshot", err)
	}
	if allocated > 1<<20 {
		t.Fatalf("decoding a %d-byte snapshot allocated %d bytes", len(data), allocated)
	}
}

// withKeys appends keys to st, key i at frequency freqs[i], and returns st.
func withKeys(st *State, keys []string, freqs []int64) *State {
	for i, key := range keys {
		st.Append([]byte(key), freqs[i])
	}
	return st
}

// TestEncodeStateLayout pins the keyed snapshot's bytes: the header, the
// uvarint fields, then per key its uvarint length, its bytes and its varint
// frequency, then the IEEE CRC-32 of everything before it.
func TestEncodeStateLayout(t *testing.T) {
	st := withKeys(&State{Capacity: 300, Adds: 1 << 40, Removes: 7, Seq: 3, SealedSeg: 200},
		[]string{"alice", "", strings.Repeat("k", 200)}, []int64{5, 0, -1 << 33})
	want := append([]byte{}, snapMagic[:]...)
	want = append(want, snapVersion, kindKeyed)
	for _, v := range []uint64{st.Seq, st.SealedSeg, uint64(st.Capacity), st.Adds, st.Removes, uint64(st.Len())} {
		want = binary.AppendUvarint(want, v)
	}
	for i, key := range st.Keys {
		want = binary.AppendUvarint(want, uint64(len(key)))
		want = append(want, key...)
		want = binary.AppendVarint(want, st.Freqs[i])
	}
	if got := encoded(t, st); !bytes.Equal(got, withCRC(want)) {
		t.Fatalf("encodeState =\n%x\nwant\n%x", got, withCRC(want))
	}
}

// TestEncodeStateAllocations pins that encoding a snapshot allocates a
// fixed number of objects however many keys it holds: a key costs no
// allocation of its own.
func TestEncodeStateAllocations(t *testing.T) {
	const bound = 16
	for _, n := range []int{10, 10_000} {
		st := &State{Capacity: n}
		for i := range n {
			st.Append(fmt.Appendf(nil, "object-%08d", i), int64(i))
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := encodeState(io.Discard, st); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("encoding %d keys made %.0f allocations, want at most %d", n, allocs, bound)
		}
	}
}

// TestDecodeStateAllocations pins that decoding a snapshot makes the same
// few allocations however many keys it holds: the keys land in one byte
// run, not a string each.
func TestDecodeStateAllocations(t *testing.T) {
	const bound = 4
	for _, n := range []int{10, 10_000} {
		st := &State{Capacity: n}
		for i := range n {
			st.Append(fmt.Appendf(nil, "object-%08d", i), int64(i))
		}
		data := encoded(t, st)
		allocs := testing.AllocsPerRun(5, func() {
			got, err := decodeState(data)
			if err != nil || got.Len() != n {
				t.Fatalf("decodeState: %v", err)
			}
		})
		if allocs > bound {
			t.Errorf("decoding %d keys made %.0f allocations, want at most %d", n, allocs, bound)
		}
	}
}

// encoded returns st as a snapshot file.
func encoded(tb testing.TB, st *State) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := encodeState(&buf, st); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// equalStates reports whether two decoded states hold the same values.
func equalStates(a, b *State) bool {
	return a.Seq == b.Seq && a.SealedSeg == b.SealedSeg &&
		a.Capacity == b.Capacity && a.Adds == b.Adds && a.Removes == b.Removes &&
		bytes.Equal(a.KeyBytes, b.KeyBytes) && slices.Equal(a.KeyEnds, b.KeyEnds) && slices.Equal(a.Freqs, b.Freqs)
}

// denseFile is a dense-id snapshot file as commit ce8033a wrote it: the
// header with kind 0, then p as an SPF1 blob, then the checksum.
func denseFile(tb testing.TB, p *core.Profile, seq, sealed uint64) []byte {
	tb.Helper()
	b := bytes.NewBuffer(append([]byte{}, snapMagic[:]...))
	b.Write([]byte{snapVersion, kindDense})
	b.Write(binary.AppendUvarint(nil, seq))
	b.Write(binary.AppendUvarint(nil, sealed))
	if err := p.WriteSnapshot(b); err != nil {
		tb.Fatal(err)
	}
	return withCRC(b.Bytes())
}

// FuzzDecodeState checks the snapshot decoder on arbitrary input. The fuzz
// input is a file body; the target appends its checksum so mutations reach
// the decoder instead of stopping at the CRC. Three laws: decoding never
// panics, every error wraps ErrBadSnapshot, and a decoded state re-encodes
// and decodes to the same value (values, not bytes: varints are not
// canonical).
func FuzzDecodeState(f *testing.F) {
	keyed := encoded(f, withKeys(&State{Capacity: 16, Adds: 9, Removes: 3, Seq: 4, SealedSeg: 7},
		[]string{"alice", "bob", "", "carol"}, []int64{3, 0, 1, 2}))
	p := core.MustNew(6, core.WithStrictNonNegative())
	for _, x := range []int{0, 2, 2, 5, 5, 5} {
		if err := p.Add(x); err != nil {
			f.Fatal(err)
		}
	}
	dense := denseFile(f, p, 2, 3)
	for _, file := range [][]byte{keyed, dense, forgedKeyed(), forgedDense()} {
		f.Add(file[:len(file)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := decodeState(withCRC(body))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error %v does not wrap ErrBadSnapshot", err)
			}
			return
		}
		again, err := decodeState(encoded(t, st))
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !equalStates(st, again) {
			t.Fatalf("round trip changed the state: %+v became %+v", st, again)
		}
	})
}
