package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the replication-facing half of the segmented WAL: a raw byte
// cursor over the segment files (ReadChunk) for a leader shipping its log,
// and an incremental record decoder (StreamDecoder) for a follower applying
// the shipped bytes as they arrive. The contract that makes raw byte
// shipping safe is the rotation protocol in Dir.Rotate: segment N+1 is only
// created after segment N has been flushed and fsynced whole, so "a segment
// with a higher id exists" proves a segment is complete on disk. Only the
// current append segment may end mid-record (a buffered flush can land a
// prefix of a record); StreamDecoder simply buffers such a tail until the
// rest of the bytes arrive.

// Position addresses a byte boundary in a segmented WAL: a segment id and a
// byte offset within that segment's file (header bytes included). Positions
// order lexicographically by (Segment, Offset).
type Position struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

// Less reports whether p is strictly before q in the log.
func (p Position) Less(q Position) bool {
	if p.Segment != q.Segment {
		return p.Segment < q.Segment
	}
	return p.Offset < q.Offset
}

// String renders the position as "<segment>:<offset>" in decimal — the form
// the replication endpoints exchange.
func (p Position) String() string {
	return strconv.FormatUint(p.Segment, 10) + ":" + strconv.FormatInt(p.Offset, 10)
}

// ParsePosition parses the "<segment>:<offset>" form produced by String.
func ParsePosition(s string) (Position, error) {
	seg, off, ok := strings.Cut(s, ":")
	if !ok {
		return Position{}, fmt.Errorf("wal: position %q: want <segment>:<offset>", s)
	}
	id, err := strconv.ParseUint(seg, 10, 64)
	if err != nil {
		return Position{}, fmt.Errorf("wal: position %q: bad segment: %v", s, err)
	}
	n, err := strconv.ParseInt(off, 10, 64)
	if err != nil || n < 0 {
		return Position{}, fmt.Errorf("wal: position %q: bad offset", s)
	}
	return Position{Segment: id, Offset: n}, nil
}

// ErrSegmentMissing reports a read of a segment that does not exist on disk —
// for a replication source this means the segment was pruned by a checkpoint
// and the reader must restart from a snapshot.
var ErrSegmentMissing = errors.New("wal: segment missing")

// ErrOffsetBeyondEnd reports a read offset past the end of a sealed segment —
// the reader's position does not belong to this log's history.
var ErrOffsetBeyondEnd = errors.New("wal: offset beyond end of segment")

// Chunk is one raw byte range of the segmented log, as served to a tailing
// reader.
type Chunk struct {
	Segment uint64 // segment the bytes belong to
	Offset  int64  // offset of Data[0] within the segment file
	Data    []byte
	Sealed  bool  // segment is complete on disk (a newer segment exists)
	Size    int64 // segment file size at read time
}

// End returns the position just past the chunk's last byte.
func (c Chunk) End() Position {
	return Position{Segment: c.Segment, Offset: c.Offset + int64(len(c.Data))}
}

// ReadChunk reads up to maxBytes raw bytes of the log in dir starting at
// pos. currentSeg is the id of the segment currently open for appending
// (Dir.SegmentID); every lower id is sealed. When pos sits at the end of a
// sealed segment the cursor advances to the start of the next one, so a
// reader never observes a gap across a rotation. A chunk with no data and
// Sealed false means the reader is caught up with the flushed log.
//
// Reads race benignly with the appender: segment files only grow, and a
// concurrent rotation at worst makes this call report the final bytes of a
// just-sealed segment with Sealed still false — the next call advances.
func ReadChunk(dir string, pos Position, currentSeg uint64, maxBytes int) (Chunk, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	for {
		path := filepath.Join(dir, SegmentName(pos.Segment))
		fi, err := os.Stat(path)
		if errors.Is(err, os.ErrNotExist) {
			return Chunk{}, fmt.Errorf("%w: segment %d", ErrSegmentMissing, pos.Segment)
		}
		if err != nil {
			return Chunk{}, err
		}
		size := fi.Size()
		sealed := pos.Segment < currentSeg
		if pos.Offset > size {
			return Chunk{}, fmt.Errorf("%w: offset %d past %d in segment %d",
				ErrOffsetBeyondEnd, pos.Offset, size, pos.Segment)
		}
		if pos.Offset == size {
			if !sealed {
				return Chunk{Segment: pos.Segment, Offset: pos.Offset, Sealed: false, Size: size}, nil
			}
			pos = Position{Segment: pos.Segment + 1}
			continue
		}
		n := size - pos.Offset
		if n > int64(maxBytes) {
			n = int64(maxBytes)
		}
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			return Chunk{}, fmt.Errorf("%w: segment %d", ErrSegmentMissing, pos.Segment)
		}
		if err != nil {
			return Chunk{}, err
		}
		buf := make([]byte, n)
		_, err = io.ReadFull(io.NewSectionReader(f, pos.Offset, n), buf)
		f.Close()
		if err != nil {
			return Chunk{}, fmt.Errorf("wal: read segment %d at %d: %w", pos.Segment, pos.Offset, err)
		}
		return Chunk{Segment: pos.Segment, Offset: pos.Offset, Data: buf, Sealed: sealed, Size: size}, nil
	}
}

// StreamDecoder incrementally decodes the record stream of one segment's raw
// bytes as they arrive in order: Feed appends a chunk and emits every record
// that is now complete; the bytes of an incomplete trailing record stay
// buffered until the rest arrives. Reset re-arms it for the next segment
// (whose header it will parse and skip). The zero value is ready to decode a
// segment from byte 0; a decoder resuming mid-segment must call
// MarkHeaderDone first.
type StreamDecoder struct {
	buf        []byte
	headerDone bool
}

// Reset drops buffered bytes and re-arms header parsing for a new segment.
func (sd *StreamDecoder) Reset() {
	sd.buf = sd.buf[:0]
	sd.headerDone = false
}

// MarkHeaderDone declares that the segment header was already consumed (the
// decoder is resuming at an offset past it).
func (sd *StreamDecoder) MarkHeaderDone() { sd.headerDone = true }

// Buffered reports how many bytes of an incomplete trailing record (or
// header) are held back.
func (sd *StreamDecoder) Buffered() int { return len(sd.buf) }

// Feed appends data to the stream and calls fn for every record that is now
// complete, in order. A record is emitted exactly once across all Feed
// calls. An undecodable stream fails with ErrCorrupt; an error from fn is
// returned as-is. After a non-nil error the decoder's state is undefined —
// Reset it before reuse.
func (sd *StreamDecoder) Feed(data []byte, fn func(Record) error) error {
	sd.buf = append(sd.buf, data...)
	_, good, err := decodeStream(bytes.NewReader(sd.buf), "stream", !sd.headerDone, true, fn)
	if err != nil {
		return err
	}
	if good > 0 {
		// Whatever decoded includes the header, if it was still pending.
		sd.headerDone = true
	}
	sd.buf = sd.buf[:copy(sd.buf, sd.buf[good:])]
	return nil
}

// ReplaySegmentValid is ReplaySegment plus the valid end: it reports the
// byte offset just past the last complete record (the boundary where
// mirrored replication bytes resume). A segment whose header itself is torn
// replays zero records with validEnd 0.
func ReplaySegmentValid(path string, tolerateTorn bool, fn func(Record) error) (replayed int, validEnd int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return decodeStream(f, path, true, tolerateTorn, fn)
}
