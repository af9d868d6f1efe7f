// Package wal implements the write-ahead log for keyed profiling events, so
// that an ingest service built on S-Profile (cmd/sprofiled) can recover its
// profile after a restart by replaying the log.
//
// The profile itself is an in-memory structure; what makes it durable is the
// stream that built it. Because every event is two small fields, the record
// format is a length-prefixed binary stream:
//
//	record  repeated:
//	          keyLen  uvarint
//	          key     keyLen bytes (UTF-8)
//	          action  1 byte: 0 = add, 1 = remove
//
// A leading keyLen of zero — invalid as a single-event record — marks the
// batch framing the delta-batched ingestion path appends: one physical
// record carrying a whole coalesced batch, replayed atomically (a record
// torn mid-batch is dropped whole):
//
//	batch   0 uvarint (marker)
//	        count   uvarint
//	        entry   repeated count times:
//	          keyLen  uvarint (> 0)
//	          key     keyLen bytes (UTF-8)
//	          adds    uvarint  gross add events coalesced for the key
//	          removes uvarint  gross remove events coalesced for the key
//
// Neither count may exceed core.MaxMagnitude, the bound past which the
// profile refuses a delta: an entry beyond it could never have been applied,
// so the append side refuses it and the read side calls it corrupt.
//
// The stream lives in a directory of rotating "SWL2" segment files with
// monotonic ids (Dir; see segment.go), which the checkpoint subsystem
// (internal/checkpoint) combines with snapshots so recovery replays only the
// tail written since the last checkpoint. Recovery, log tailing and
// replication followers all decode it with one decoder (decodeStream). The
// single-file log that preceded the segment directory is no longer read;
// RefuseLegacy turns its leftovers away with directions.
//
// Records are buffered until Sync makes them durable; Append and
// AppendBatch report a Sync as due every SyncEvery records. A torn final
// record — the normal result of a crash mid write — is detected and ignored
// during replay; everything before it is recovered.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sprofile/internal/core"
)

// ErrCorrupt is returned by the replay paths when a segment contains an
// undecodable record that is not a clean truncation at the tail.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed is returned by operations on a closed Dir.
var ErrClosed = errors.New("wal: log is closed")

// Record is one durable event: a string object key and an action. Records
// decoded from a batch frame instead carry the coalesced gross counts: Batch
// is set, Adds-Removes is the net frequency delta, and Action is meaningless.
type Record struct {
	Key     string
	Action  core.Action
	Batch   bool
	Adds    uint64
	Removes uint64
}

// BatchEntry is one coalesced (key, gross adds, gross removes) element of a
// batch record. At least one of the counts must be nonzero and neither may
// exceed core.MaxMagnitude; a pair of equal counts is a valid record of
// events that cancelled out.
type BatchEntry struct {
	Key           string
	Adds, Removes uint64
}

// Options configures a Dir.
type Options struct {
	// SyncEvery makes Append and AppendBatch report a sync as due after this
	// many appended records; zero means only explicit Sync/Close calls flush
	// to stable storage.
	SyncEvery int
}

// MaxKeyLen bounds the key length a record may carry, enforced on BOTH
// sides of the log: the append paths reject longer keys (journaling one
// would poison the log — every later replay would abort on it), and the
// read paths treat longer lengths in a file as corruption rather than a
// legitimate record. Ingest front ends should reject longer keys before
// applying them anywhere.
const MaxKeyLen = 1 << 20

// errTornTail is the internal sentinel for a record cut short by a crash at
// the end of a file; replay paths translate it into a clean stop.
var errTornTail = errors.New("wal: torn record at tail")

// validateRecord checks a record against the append-side limits without
// touching the stream. Dir validates before writing so that any later
// appendRecord failure is known to be a real I/O error (the trigger for
// sticky poisoning), never a rejected input.
func validateRecord(rec Record) error {
	if rec.Key == "" {
		return errors.New("wal: empty key")
	}
	if len(rec.Key) > MaxKeyLen {
		return fmt.Errorf("wal: key of %d bytes exceeds the %d-byte record limit", len(rec.Key), MaxKeyLen)
	}
	if !rec.Action.Valid() {
		return fmt.Errorf("wal: invalid action %d", rec.Action)
	}
	return nil
}

// appendRecord encodes one record, already validated by validateRecord,
// into w, returning the encoded byte count.
func appendRecord(w *bufio.Writer, rec Record) (int, error) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(rec.Key)))
	if _, err := w.Write(buf[:n]); err != nil {
		return 0, err
	}
	if _, err := w.WriteString(rec.Key); err != nil {
		return 0, err
	}
	actionByte := byte(0)
	if rec.Action == core.ActionRemove {
		actionByte = 1
	}
	if err := w.WriteByte(actionByte); err != nil {
		return 0, err
	}
	return n + len(rec.Key) + 1, nil
}

// maxBatchEntries bounds how many entries one batch record may carry; larger
// counts in a file indicate corruption rather than a legitimate record.
const maxBatchEntries = 1 << 26

// readUvarintTorn reads a uvarint, translating any end-of-file — even a
// clean one, since the caller knows it sits mid-record — into errTornTail.
func readUvarintTorn(br *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, errTornTail
		}
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

// readKeyTorn reads a length-prefixed key mid-record.
func readKeyTorn(br *bufio.Reader, keyLen uint64) (string, error) {
	if keyLen == 0 || keyLen > MaxKeyLen {
		return "", fmt.Errorf("%w: key length %d", ErrCorrupt, keyLen)
	}
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(br, key); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return "", errTornTail
		}
		return "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return string(key), nil
}

// readPhysicalRecord decodes one physical record from br into scratch[:0]: a
// single-event record yields one Record, a batch record one Record per
// entry. A batch is atomic — a record torn anywhere inside it yields
// errTornTail and no Records. io.EOF marks a clean end of the stream,
// errTornTail a record cut short by a crash; any other failure wraps
// ErrCorrupt.
func readPhysicalRecord(br *bufio.Reader, scratch []Record) ([]Record, error) {
	first, err := binary.ReadUvarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		// A varint cut short by a crash reads as unexpected EOF.
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTornTail
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	scratch = scratch[:0]
	if first == 0 {
		count, err := readUvarintTorn(br)
		if err != nil {
			return nil, err
		}
		if count == 0 || count > maxBatchEntries {
			return nil, fmt.Errorf("%w: batch of %d entries", ErrCorrupt, count)
		}
		for i := uint64(0); i < count; i++ {
			keyLen, err := readUvarintTorn(br)
			if err != nil {
				return nil, err
			}
			key, err := readKeyTorn(br, keyLen)
			if err != nil {
				return nil, err
			}
			adds, err := readUvarintTorn(br)
			if err != nil {
				return nil, err
			}
			removes, err := readUvarintTorn(br)
			if err != nil {
				return nil, err
			}
			if adds == 0 && removes == 0 {
				return nil, fmt.Errorf("%w: empty batch entry for key %q", ErrCorrupt, key)
			}
			if adds > core.MaxMagnitude || removes > core.MaxMagnitude {
				return nil, fmt.Errorf("%w: batch entry for key %q records %d adds and %d removes", ErrCorrupt, key, adds, removes)
			}
			scratch = append(scratch, Record{Key: key, Batch: true, Adds: adds, Removes: removes})
		}
		return scratch, nil
	}
	key, err := readKeyTorn(br, first)
	if err != nil {
		return nil, err
	}
	actionByte, err := br.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, errTornTail
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var action core.Action
	switch actionByte {
	case 0:
		action = core.ActionAdd
	case 1:
		action = core.ActionRemove
	default:
		return nil, fmt.Errorf("%w: action byte %d", ErrCorrupt, actionByte)
	}
	return append(scratch, Record{Key: key, Action: action}), nil
}

// countingReader counts the bytes its wrapped reader hands out, so a bufio
// consumer can compute how far into the stream the decoded prefix reaches.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decodeStream is the one decoder of the log: replay, the append head's
// tail scan, salvage and the replication StreamDecoder all run it. It reads
// a segment header first when header is set, then every physical record of
// r, calling fn for each decoded record. It returns how many records it
// passed to fn and validEnd, the offset just past the last complete physical
// record (or past the header when no record is complete; 0 when the header
// itself is incomplete). A torn header or final record ends the stream
// cleanly when tolerateTorn is set and fails with ErrCorrupt otherwise.
// Decoding errors carry name; an error from fn is returned as is.
func decodeStream(r io.Reader, name string, header, tolerateTorn bool, fn func(Record) error) (n int, validEnd int64, err error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	if header {
		if _, _, err := readSegmentHeader(br); err != nil {
			if !errors.Is(err, errTornTail) {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
			if tolerateTorn {
				return 0, 0, nil
			}
			return 0, 0, fmt.Errorf("%w: %s: truncated segment header", ErrCorrupt, name)
		}
		validEnd = cr.n - int64(br.Buffered())
	}
	var scratch []Record
	for {
		recs, err := readPhysicalRecord(br, scratch)
		if errors.Is(err, io.EOF) {
			return n, validEnd, nil
		}
		if errors.Is(err, errTornTail) {
			if tolerateTorn {
				return n, validEnd, nil
			}
			return n, validEnd, fmt.Errorf("%w: %s: torn record in sealed segment", ErrCorrupt, name)
		}
		if err != nil {
			return n, validEnd, fmt.Errorf("%s: %w", name, err)
		}
		scratch = recs
		for _, rec := range recs {
			if err := fn(rec); err != nil {
				return n, validEnd, err
			}
			n++
		}
		validEnd = cr.n - int64(br.Buffered())
	}
}

// validateBatch checks every entry of a batch against the append-side
// limits without touching the stream; see validateRecord for why Dir runs
// it before encoding.
func validateBatch(entries []BatchEntry) error {
	for i := range entries {
		if entries[i].Key == "" {
			return errors.New("wal: empty key")
		}
		if len(entries[i].Key) > MaxKeyLen {
			return fmt.Errorf("wal: key of %d bytes exceeds the %d-byte record limit", len(entries[i].Key), MaxKeyLen)
		}
		if entries[i].Adds == 0 && entries[i].Removes == 0 {
			return fmt.Errorf("wal: batch entry for key %q records no events", entries[i].Key)
		}
		if entries[i].Adds > core.MaxMagnitude || entries[i].Removes > core.MaxMagnitude {
			return fmt.Errorf("wal: batch entry for key %q records %d adds and %d removes, past the %d a profile takes",
				entries[i].Key, entries[i].Adds, entries[i].Removes, uint64(core.MaxMagnitude))
		}
	}
	return nil
}

// appendBatchRecord encodes a whole coalesced batch as one physical record,
// returning the encoded byte count. The caller (Dir.AppendBatch) has
// validated the entries and split batches over maxBatchEntries, so every
// record written here is one the read side accepts.
func appendBatchRecord(w *bufio.Writer, entries []BatchEntry) (int, error) {
	var buf [binary.MaxVarintLen64]byte
	total := 0
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		total += n
		_, err := w.Write(buf[:n])
		return err
	}
	if err := writeUvarint(0); err != nil {
		return 0, err
	}
	if err := writeUvarint(uint64(len(entries))); err != nil {
		return 0, err
	}
	for i := range entries {
		e := &entries[i]
		if err := writeUvarint(uint64(len(e.Key))); err != nil {
			return 0, err
		}
		if _, err := w.WriteString(e.Key); err != nil {
			return 0, err
		}
		total += len(e.Key)
		if err := writeUvarint(e.Adds); err != nil {
			return 0, err
		}
		if err := writeUvarint(e.Removes); err != nil {
			return 0, err
		}
	}
	return total, nil
}
