package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sprofile/internal/core"
)

// FuzzReplaySegment holds the record decoder to three laws over SWL2 segment
// bytes:
//
//   - (a) Arbitrary bytes never panic. Every error wraps ErrCorrupt — or,
//     for bytes that open with the retired SWL1 magic, errors.ErrUnsupported
//     — unless the stream merely ends torn, which the tail tolerates.
//   - (b) ReplaySegment, ReplaySegmentValid and a StreamDecoder fed the same
//     bytes in fuzz-chosen chunks decode the same records before the first
//     error or torn tail, and agree on where the complete records end.
//   - (c) Records written by Dir.Append/AppendBatch from a fuzz-derived op
//     list replay exactly, and every truncation of that segment replays a
//     prefix of whole physical records, so a batch is never split.
//
// The seeds are the codec cases of the unit tests: a clean segment, bad
// magic, a short header, an absurd key length mid-stream, a batch entry
// whose adds pass core.MaxMagnitude, torn single and batch records, and an
// SWL1 log.
func FuzzReplaySegment(f *testing.F) {
	dir := f.TempDir()
	d, err := OpenDir(dir, Options{}, nil, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	mustAppend(f, d, Record{Key: "video-1", Action: core.ActionAdd}, Record{Key: "user:alice", Action: core.ActionRemove})
	if _, err := d.AppendBatch([]BatchEntry{{Key: "alpha", Adds: 3, Removes: 1}, {Key: "beta", Removes: 2}}); err != nil {
		f.Fatal(err)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		f.Fatal(err)
	}
	ops := []byte{0, 2, 5, 0x11, 0x29, 4, 7, 0x08, 0x30, 0x41, 0x62, 1, 0}
	for _, segment := range [][]byte{
		clean,
		[]byte("NOPE"),
		[]byte("SW"),
		append(slices.Clone(clean), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
		append(binary.AppendUvarint(append(slices.Clone(clean), 0, 1, 1, 'x'), core.MaxMagnitude+1), 0),
		append(slices.Clone(clean), 10, 'c', 'u', 't'),
		append(slices.Clone(clean), 0, 3, 1, 'x', 5),
		legacyLog,
		nil,
	} {
		f.Add(segment, ops)
	}
	f.Add(clean, []byte(nil))

	f.Fuzz(func(t *testing.T, segment, ops []byte) {
		checkDecodersAgree(t, segment, ops)
		checkAppendRoundTrip(t, ops)
	})
}

// collectInto returns a replay callback appending to *recs.
func collectInto(recs *[]Record) func(Record) error {
	return func(r Record) error {
		*recs = append(*recs, r)
		return nil
	}
}

// checkDecodersAgree runs laws (a) and (b) on arbitrary segment bytes; the
// chunk sizes of the StreamDecoder come from chunks.
func checkDecodersAgree(t *testing.T, segment, chunks []byte) {
	path := filepath.Join(t.TempDir(), SegmentName(1))
	if err := os.WriteFile(path, segment, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := len(segment) >= 4 && [4]byte(segment[:4]) == legacyMagic
	lawA := func(what string, err error) {
		t.Helper()
		if err == nil {
			return
		}
		if legacy && !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("%s: SWL1 bytes failed with %v, want errors.ErrUnsupported", what, err)
		}
		if !legacy && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCorrupt", what, err)
		}
	}

	var replayed, valid, streamed []Record
	n, errReplay := ReplaySegment(path, true, collectInto(&replayed))
	lawA("ReplaySegment", errReplay)
	nValid, validEnd, errValid := ReplaySegmentValid(path, true, collectInto(&valid))
	lawA("ReplaySegmentValid", errValid)
	_, errStrict := ReplaySegment(path, false, func(Record) error { return nil })
	lawA("ReplaySegment (sealed)", errStrict)

	// Each Feed re-decodes the bytes it still buffers (a pending key of up
	// to MaxKeyLen is allocated again each time), so chunks are at least a
	// 64th of the input: one exec stays linear in its length.
	var dec StreamDecoder
	var errStream error
	for i, rest := 0, segment; len(rest) > 0; i++ {
		size := 7
		if len(chunks) > 0 {
			size = 1 + int(chunks[i%len(chunks)])
		}
		size = min(max(size, len(segment)/64), len(rest))
		if errStream = dec.Feed(rest[:size], collectInto(&streamed)); errStream != nil {
			break
		}
		rest = rest[size:]
	}
	lawA("StreamDecoder", errStream)

	if n != len(replayed) || nValid != len(valid) {
		t.Fatalf("counts %d/%d disagree with delivered records %d/%d", n, nValid, len(replayed), len(valid))
	}
	if !slices.Equal(replayed, valid) || !slices.Equal(replayed, streamed) {
		t.Fatalf("decoders disagree:\nReplaySegment      %v\nReplaySegmentValid %v\nStreamDecoder      %v", replayed, valid, streamed)
	}
	if (errReplay == nil) != (errValid == nil) || (errReplay == nil) != (errStream == nil) {
		t.Fatalf("decoders disagree on failure: %v / %v / %v", errReplay, errValid, errStream)
	}
	if errReplay != nil {
		return
	}
	if held := int64(len(segment) - dec.Buffered()); validEnd != held {
		t.Fatalf("validEnd %d, but the StreamDecoder consumed %d of %d bytes", validEnd, held, len(segment))
	}
	// A sealed segment must end exactly on a record boundary past a whole
	// header; anything else is the torn tail the final segment tolerates.
	if complete := validEnd > 0 && validEnd == int64(len(segment)); complete != (errStrict == nil) {
		t.Fatalf("sealed replay error %v, but validEnd %d of %d bytes", errStrict, validEnd, len(segment))
	}
}

// checkAppendRoundTrip runs law (c): ops become appends to a fresh Dir.
// An even op byte b appends one event for key b>>2&7, a removal when b&2 is
// set; an odd one appends a batch whose 1+b>>1&3 entries each take one more
// byte e: key e&7, adds e>>3&3, removes e>>5&3 (one add if both are zero).
func checkAppendRoundTrip(t *testing.T, ops []byte) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Options{}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var physical [][]Record // the records of each physical record, in order
	var ends []int64        // AppendedBytes after each physical record
	for i := 0; i < len(ops) && len(physical) < 64; i++ {
		b := ops[i]
		if b&1 == 0 {
			rec := Record{Key: fmt.Sprintf("k%d", b>>2&7), Action: core.ActionAdd}
			if b&2 != 0 {
				rec.Action = core.ActionRemove
			}
			if _, err := d.Append(rec); err != nil {
				t.Fatal(err)
			}
			physical = append(physical, []Record{rec})
		} else {
			var entries []BatchEntry
			var recs []Record
			for k := 0; k < 1+int(b>>1&3) && i+1 < len(ops); k++ {
				i++
				e := ops[i]
				entry := BatchEntry{Key: fmt.Sprintf("k%d", e&7), Adds: uint64(e >> 3 & 3), Removes: uint64(e >> 5 & 3)}
				if entry.Adds == 0 && entry.Removes == 0 {
					entry.Adds = 1
				}
				entries = append(entries, entry)
				recs = append(recs, Record{Key: entry.Key, Batch: true, Adds: entry.Adds, Removes: entry.Removes})
			}
			if len(entries) == 0 {
				continue
			}
			if _, err := d.AppendBatch(entries); err != nil {
				t.Fatal(err)
			}
			physical = append(physical, recs)
		}
		ends = append(ends, d.AppendedBytes())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := int64(len(data))
	if len(ends) > 0 {
		header -= ends[len(ends)-1]
	}

	var got []Record
	if _, err := ReplaySegment(path, false, collectInto(&got)); err != nil {
		t.Fatalf("replaying the written segment: %v", err)
	}
	if want := slices.Concat(physical...); !slices.Equal(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}

	// Every truncation replays the physical records that end at or before
	// the cut, and nothing of the record the cut tears.
	for cut := 0; cut <= len(data); cut++ {
		var prefix []Record
		_, end, err := decodeStream(bytes.NewReader(data[:cut]), "fuzz", true, true, collectInto(&prefix))
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", cut, len(data), err)
		}
		whole := 0
		for whole < len(ends) && header+ends[whole] <= int64(cut) {
			whole++
		}
		wantEnd := int64(0)
		switch {
		case whole > 0:
			wantEnd = header + ends[whole-1]
		case int64(cut) >= header:
			wantEnd = header
		}
		if want := slices.Concat(physical[:whole]...); !slices.Equal(prefix, want) || end != wantEnd {
			t.Fatalf("cut at %d of %d: replayed %v ending at %d, want %v ending at %d", cut, len(data), prefix, end, want, wantEnd)
		}
	}
}
