package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sprofile/internal/failpoint/failfs"
)

// This file implements the segmented WAL layout: instead of one unbounded
// file, the log is a directory of fixed-order segment files
//
//	wal-<id, 16 hex digits>.seg
//
// with monotonically increasing ids. Each segment starts with a header
//
//	magic   [4]byte  "SWL2"
//	id      uvarint  (must match the filename)
//	snapSeq uvarint  (the snapshot sequence current when the segment opened)
//
// followed by the record stream described in the package comment.
//
// Only the highest-id segment is ever written, so a crash can tear at most
// that segment's tail; sealed segments are fsynced before rotation completes
// and are immutable afterwards. The checkpoint subsystem deletes segments
// once a snapshot covers them, which is what bounds recovery time and disk
// use.

var segmentMagic = [4]byte{'S', 'W', 'L', '2'}

// legacyMagic opens the retired single-file log format, SWL1. Nothing reads
// or writes that format any more; its magic is recognised only so that a
// leftover is refused with directions instead of a bare "bad magic".
var legacyMagic = [4]byte{'S', 'W', 'L', '1'}

// errLegacy refuses every SWL1 leftover: a single-file log at the WAL path,
// the path+".legacy" staging file of an interrupted migration, and a
// segment that still carries the SWL1 header (a migrated log keeps it until
// a checkpoint drops segment 1). It names the last commit that can read the
// format and migrate it.
var errLegacy = fmt.Errorf("single-file SWL1 write-ahead log, which this version cannot read; "+
	"open it once with sprofile commit 3727a8a, the last that can, take a checkpoint, then restart: %w",
	errors.ErrUnsupported)

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// SegmentInfo describes one segment file found in a log directory.
type SegmentInfo struct {
	// ID is the segment's position in the log order (1-based, monotonic).
	ID uint64
	// SnapSeq is the snapshot sequence recorded in the header: the id of the
	// last checkpoint taken before this segment opened (0 = none).
	SnapSeq uint64
	// Torn marks a segment whose header could not be read — the result of a
	// crash during segment creation. Only valid as the final segment; it
	// holds no records and is recreated when the directory reopens.
	Torn bool
	Path string
	Size int64
}

// SegmentName returns the file name of segment id.
func SegmentName(id uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, id, segSuffix)
}

// parseSegmentName extracts the segment id from a file name, reporting
// whether the name is a segment name at all.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	id, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// readSegmentHeader consumes the header from br, reporting the recorded id
// and snapshot sequence. errTornTail marks a header cut short by a crash
// during segment creation; an SWL1 header is refused with errLegacy.
func readSegmentHeader(br *bufio.Reader) (id, snapSeq uint64, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, errTornTail
		}
		return 0, 0, err
	}
	switch magic {
	case segmentMagic:
	case legacyMagic:
		return 0, 0, errLegacy
	default:
		return 0, 0, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, magic[:])
	}
	if id, err = readUvarintTorn(br); err != nil {
		return 0, 0, err
	}
	if snapSeq, err = readUvarintTorn(br); err != nil {
		return 0, 0, err
	}
	return id, snapSeq, nil
}

// writeSegmentHeader emits the SWL2 header for segment id.
func writeSegmentHeader(w io.Writer, id, snapSeq uint64) error {
	var buf [4 + 2*binary.MaxVarintLen64]byte
	copy(buf[:4], segmentMagic[:])
	n := 4
	n += binary.PutUvarint(buf[n:], id)
	n += binary.PutUvarint(buf[n:], snapSeq)
	_, err := w.Write(buf[:n])
	return err
}

// ListSegments returns the segments of dir sorted by id, reading each header.
// A segment whose header is unreadable is reported with Torn set; anything
// else undecodable fails with ErrCorrupt.
func ListSegments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var infos []SegmentInfo
	for _, e := range entries {
		id, ok := parseSegmentName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		info := SegmentInfo{ID: id, Path: filepath.Join(dir, e.Name()), Size: fi.Size()}
		f, err := os.Open(info.Path)
		if err != nil {
			return nil, err
		}
		hdrID, snapSeq, err := readSegmentHeader(bufio.NewReader(f))
		f.Close()
		switch {
		case errors.Is(err, errTornTail):
			info.Torn = true
		case err != nil:
			return nil, fmt.Errorf("%s: %w", info.Path, err)
		case hdrID != id:
			return nil, fmt.Errorf("%w: segment %s header claims id %d", ErrCorrupt, info.Path, hdrID)
		default:
			info.SnapSeq = snapSeq
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos, nil
}

// ReplaySegment reads every record of one segment file, invoking fn for each.
// A torn final record (or torn header) stops the replay cleanly when
// tolerateTorn is set — correct only for the log's final segment, since
// sealed segments are fsynced whole — and fails with ErrCorrupt otherwise.
func ReplaySegment(path string, tolerateTorn bool, fn func(Record) error) (int, error) {
	n, _, err := ReplaySegmentValid(path, tolerateTorn, fn)
	mReplayed.Add(uint64(n))
	return n, err
}

// ReplayDir replays every record of every segment in a log directory in id
// order, tolerating a torn tail only in the final segment, and returns the
// record count. It is snapshot-oblivious — segments already covered by a
// checkpoint snapshot replay too — so use the checkpoint package for real
// recovery; this is the raw-log view (tests, tooling, full audits).
func ReplayDir(dir string, fn func(Record) error) (int, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for i, sg := range segs {
		if sg.Torn {
			if i != len(segs)-1 {
				return total, fmt.Errorf("%w: segment %s has no readable header but is not the tail", ErrCorrupt, sg.Path)
			}
			continue
		}
		n, err := ReplaySegment(sg.Path, i == len(segs)-1, fn)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Dir is the append head of a segmented write-ahead log directory. It is
// safe for concurrent use: appends serialise on an internal mutex while Sync
// runs the fsync outside it with a group-commit watermark, so concurrent
// producers' batches are persisted collectively by whichever fsync lands
// after their records were flushed.
type Dir struct {
	dir  string
	opts Options

	// mu guards the buffer, the current segment and the counters.
	mu sync.Mutex
	// syncMu serialises fsyncs only; the fsync itself runs without mu, so
	// appends proceed while the disk works. Holding it across the fsync IS
	// the group commit: every appender waiting here rides the one
	// in-flight sync. The invariant locksafe enforces is "no I/O under the
	// data locks" (mu, the stripe locks) — this mutex exists to be held
	// across I/O.
	//lint:allow locksafe — group-commit fsync gate, audited: only Sync/Roll contend on it, never appends
	syncMu    sync.Mutex
	f         failfs.File
	w         *bufio.Writer
	segID     uint64
	snapSeq   uint64
	appended  uint64
	bytes     int64
	sinceSync int
	closed    bool
	// fileEnd is the byte offset in the current segment file just past the
	// last completely appended record (whether still buffered or flushed).
	// Captured together with appended under mu, it gives Sync the byte
	// watermark matching its record watermark.
	fileEnd int64
	// syncedEnd is the fileEnd offset covered by the last completed fsync —
	// always a record boundary, because fileEnd is only read between whole
	// appends. Roll truncates a poisoned segment back to it.
	syncedEnd int64
	// synced is the appended-count watermark covered by the last completed
	// fsync; a Sync whose records are already covered returns without
	// touching the disk.
	synced atomic.Uint64
	// fsyncs counts the fsyncs actually issued for record durability (Sync,
	// Rotate, Close) — the observable behind the one-fsync-per-batch
	// group-commit contract.
	fsyncs atomic.Uint64

	// errMu guards ioErr alone. It is a leaf lock — taken with mu and/or
	// syncMu held, never the other way — so poisoning from the fsync path
	// (under syncMu only) cannot deadlock against Rotate (mu then syncMu).
	errMu sync.Mutex
	// ioErr is the sticky poison. The first write, flush or fsync failure
	// sets it and it never clears except through Roll: retrying an fsync on
	// a failed fd can report success while the kernel has already dropped
	// the dirty pages, so once any I/O error surfaces the only honest
	// recovery is proving the disk healthy with a fresh segment. While set,
	// every Append/AppendBatch/Sync/Rotate returns it, which also
	// guarantees the group-commit contract: an fsync failure fails every
	// write in the commit group, not just the goroutine that ran the flush.
	ioErr error
}

// poison records the first I/O failure; later failures keep the original.
func (d *Dir) poison(err error) {
	d.errMu.Lock()
	if d.ioErr == nil {
		d.ioErr = err
	}
	d.errMu.Unlock()
}

// SyncError returns the sticky I/O error poisoning this log, or nil while it
// is healthy. The server's degraded-mode probe keys off it.
func (d *Dir) SyncError() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.ioErr
}

// OpenDir opens the append head of a segment directory. When tail is
// non-nil, that segment is opened for appending — a torn final record left
// by a crash is truncated away first, and a segment whose header never made
// it to disk (tail.Torn) is recreated in place. Otherwise a fresh segment
// with id nextID is created, its header recording snapSeq.
func OpenDir(dir string, opts Options, tail *SegmentInfo, nextID, snapSeq uint64) (*Dir, error) {
	d := &Dir{dir: dir, opts: opts}
	if tail != nil && tail.Torn {
		// The crash happened between creating the file and persisting its
		// header; it holds nothing recoverable.
		if err := os.Remove(tail.Path); err != nil {
			return nil, err
		}
		nextID = tail.ID
		tail = nil
	}
	if tail != nil {
		f, err := failfs.OpenFile("wal", tail.Path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		_, validEnd, err := decodeStream(f, tail.Path, true, true, func(Record) error { return nil })
		if err == nil && validEnd == 0 {
			err = fmt.Errorf("%w: %s: truncated segment header", ErrCorrupt, tail.Path)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		if validEnd < tail.Size {
			if err := f.Truncate(validEnd); err != nil {
				f.Close()
				return nil, err
			}
		}
		if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		d.f = f
		d.segID = tail.ID
		d.snapSeq = tail.SnapSeq
		d.bytes = validEnd
		d.fileEnd = validEnd
	} else {
		f, end, err := createSegment(dir, nextID, snapSeq)
		if err != nil {
			return nil, err
		}
		d.f = f
		d.segID = nextID
		d.snapSeq = snapSeq
		d.fileEnd = end
	}
	// Whatever the segment holds at open survived to disk already; it is the
	// baseline a Roll may truncate back to, never below.
	d.syncedEnd = d.fileEnd
	d.w = bufio.NewWriter(d.f)
	return d, nil
}

// createSegment creates segment id with a durable header, returning the open
// file and the header length (the file's append offset).
func createSegment(dir string, id, snapSeq uint64) (failfs.File, int64, error) {
	path := filepath.Join(dir, SegmentName(id))
	// Deliberately the same "wal" seam as the tail-reopen path in open():
	// a disk fault does not care which code path opened the segment, and
	// chaos schedules arm one site for the whole layer.
	//lint:allow failpointsite — shared seam with the tail reopen in open(); one site covers every segment file
	f, err := failfs.OpenFile("wal", path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	var hdr countingWriter
	if err := writeSegmentHeader(io.MultiWriter(&hdr, f), id, snapSeq); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	if err := SyncDir(dir); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	return f, hdr.n, nil
}

// countingWriter records how many bytes were written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// SyncDir fsyncs a directory so renames and file creations inside it are
// durable. Shared with the checkpoint layer, which publishes snapshots into
// the same directory.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Append adds one record to the current segment. syncDue reports that the
// SyncEvery threshold has been crossed; the caller runs Sync outside its own
// locks, which is what keeps fsyncs off the append path.
func (d *Dir) Append(rec Record) (syncDue bool, err error) {
	if err := validateRecord(rec); err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if err := d.SyncError(); err != nil {
		return false, err
	}
	n, err := appendRecord(d.w, rec)
	if err != nil {
		// Validation passed above, so this is a real write failure — the
		// stream may hold a partial record. Poison until Roll.
		d.poison(err)
		return false, err
	}
	d.appended++
	d.bytes += int64(n)
	d.fileEnd += int64(n)
	mAppends.Inc()
	mAppendedBytes.Add(uint64(n))
	if d.opts.SyncEvery > 0 {
		d.sinceSync++
		if d.sinceSync >= d.opts.SyncEvery {
			d.sinceSync = 0
			return true, nil
		}
	}
	return false, nil
}

// AppendBatch adds a whole coalesced batch to the current segment as one
// physical record under one acquisition of the append mutex. Replay treats
// each record atomically: either every entry is recovered or — after a
// crash that tears it — none. A batch larger than the frame's entry-count
// limit spans several records (still under the one mutex hold), so no write
// can ever produce a record the read side would reject as corrupt. syncDue
// follows the Append contract, counting each entry as one record against
// the SyncEvery threshold.
func (d *Dir) AppendBatch(entries []BatchEntry) (syncDue bool, err error) {
	if len(entries) == 0 {
		return false, nil
	}
	if err := validateBatch(entries); err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if err := d.SyncError(); err != nil {
		return false, err
	}
	for rest := entries; len(rest) > 0; {
		chunk := rest
		if len(chunk) > maxBatchEntries {
			chunk = rest[:maxBatchEntries]
		}
		n, err := appendBatchRecord(d.w, chunk)
		if err != nil {
			d.poison(err)
			return false, err
		}
		d.bytes += int64(n)
		d.fileEnd += int64(n)
		mAppendedBytes.Add(uint64(n))
		rest = rest[len(chunk):]
	}
	d.appended += uint64(len(entries))
	mAppends.Add(uint64(len(entries)))
	if d.opts.SyncEvery > 0 {
		d.sinceSync += len(entries)
		if d.sinceSync >= d.opts.SyncEvery {
			d.sinceSync = 0
			return true, nil
		}
	}
	return false, nil
}

// Fsyncs returns how many record-durability fsyncs this handle has issued.
// Group commit keeps it far below the number of Sync calls under load; tests
// use it to pin the one-fsync-per-batch contract.
func (d *Dir) Fsyncs() uint64 { return d.fsyncs.Load() }

// Appended returns the number of records appended through this handle.
func (d *Dir) Appended() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appended
}

// AppendedBytes returns the record bytes appended through this handle plus
// the bytes already in the segment it opened on — the input to a size-based
// checkpoint trigger.
func (d *Dir) AppendedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// SegmentID returns the id of the segment currently open for appending.
func (d *Dir) SegmentID() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.segID
}

// SyncedPosition returns the durable frontier: the current append segment and
// the byte offset covered by the last completed fsync. Bytes at or below it
// survive both a crash and a post-failure Roll (which truncates the poisoned
// segment back to exactly this offset) — so it is the highest position a
// replication feed may safely serve.
func (d *Dir) SyncedPosition() Position {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	return Position{Segment: d.segID, Offset: d.syncedEnd}
}

// Sync makes every appended record durable, with group commit: the buffer is
// flushed under the append mutex, the fsync runs outside it, and a Sync
// whose records were already covered by a concurrent fsync (or a rotation)
// returns without touching the disk.
func (d *Dir) Sync() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if err := d.SyncError(); err != nil {
		d.mu.Unlock()
		return err
	}
	target := d.appended
	targetEnd := d.fileEnd
	if d.synced.Load() >= target {
		d.mu.Unlock()
		return nil
	}
	err := d.w.Flush()
	f := d.f
	d.mu.Unlock()
	if err != nil {
		d.poison(err)
		return err
	}
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	if err := d.SyncError(); err != nil {
		// A concurrent flush or fsync failed while we queued. Our records
		// were never covered (the watermark only advances on success), so
		// every write in this commit group reports the failure.
		return err
	}
	if d.synced.Load() >= target {
		// Another batch's fsync — or a rotation, which seals with an fsync —
		// covered our records. f may already be a sealed, closed segment;
		// either way there is nothing left to persist.
		return nil
	}
	if err := syncTimed(f.Sync); err != nil {
		// Do NOT retry this fd: a failed fsync may have dropped the dirty
		// pages, and a retry can report success for data that never hit the
		// disk. Poison; recovery means proving the disk with a fresh
		// segment (Roll).
		d.poison(err)
		return err
	}
	d.fsyncs.Add(1)
	if d.synced.Load() < target {
		d.synced.Store(target)
		d.syncedEnd = targetEnd
	}
	return nil
}

// Rotate seals the current segment — flush, fsync, close — and opens the
// next one, whose header records newSnapSeq. It returns the sealed segment's
// id. Rotation excludes appends and in-flight fsyncs for its (short)
// duration; a failure to open the new segment leaves the old one writable.
func (d *Dir) Rotate(newSnapSeq uint64) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if err := d.SyncError(); err != nil {
		return 0, err
	}
	if err := d.w.Flush(); err != nil {
		d.poison(err)
		return 0, err
	}
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	if err := syncTimed(d.f.Sync); err != nil {
		d.poison(err)
		return 0, err
	}
	d.fsyncs.Add(1)
	mRotations.Inc()
	sealed := d.segID
	nf, end, err := createSegment(d.dir, sealed+1, newSnapSeq)
	if err != nil {
		return 0, err
	}
	old := d.f
	d.f = nf
	d.w.Reset(nf)
	d.segID = sealed + 1
	d.snapSeq = newSnapSeq
	d.sinceSync = 0
	d.fileEnd = end
	d.syncedEnd = end
	// Everything appended so far is durable in the sealed segment.
	d.synced.Store(d.appended)
	old.Close()
	return sealed, nil
}

// Roll abandons the current segment after an I/O failure and restores append
// service on a fresh one — the only recovery from a poisoned log, because a
// failed fsync may already have dropped dirty pages and cannot be retried
// honestly on the same fd. The sequence:
//
//  1. Create the next segment. Its durable header (data fsync + directory
//     fsync) is the proof the disk accepts writes again; if this fails the
//     log stays poisoned and nothing has changed.
//  2. Truncate the poisoned segment back to its last fsync-covered byte — a
//     record boundary — and fsync the cut, so the sealed segment replays
//     cleanly with exactly the records that were acknowledged durable.
//  3. Reset the writer onto the new segment, discarding any poisoned
//     buffered bytes, rewind the append counters to the durable watermark,
//     and clear the sticky error.
//
// Records past the durable watermark are not simply dropped: their writers
// were told the write failed, but the in-memory state they updated cannot be
// unapplied, so discarding their bytes would leave the queryable state
// permanently ahead of the log (and a later checkpoint would persist that
// divergence). Roll therefore salvages every complete record in the
// unsynced tail into the fresh segment and fsyncs it there — the failed
// writes become durable-but-unacknowledged, the ordinary indeterminate
// outcome of an errored write. Only a torn trailing record, or bytes a
// failed flush never landed, stay lost. Roll on a healthy log is a no-op.
func (d *Dir) Roll() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	if d.SyncError() == nil {
		return nil
	}
	// Push whatever the writer still buffers toward the old file so its
	// records are salvageable; on failure, salvage reads what already is on
	// disk.
	d.w.Flush()
	salvaged, salvagedRecs := d.salvageTail()
	nf, end, err := createSegment(d.dir, d.segID+1, d.snapSeq)
	if err != nil {
		return err
	}
	newPath := filepath.Join(d.dir, SegmentName(d.segID+1))
	old := d.f
	// Truncate before the salvage bytes land in the new segment: a crash in
	// between loses only never-acknowledged records, while the reverse order
	// could replay them twice.
	//
	// This whole salvage sequence deliberately runs under d.mu: Roll only
	// executes after a sync failure has poisoned the log, so every appender
	// those locks would serve is already failing fast, and holding the lock
	// is what guarantees no append interleaves with the truncate boundary.
	if err := old.Truncate(d.syncedEnd); err != nil { //lint:allow locksafe — salvage-on-roll: writers already fail fast, the lock pins the truncate boundary
		nf.Close()
		os.Remove(newPath) //lint:allow locksafe — salvage-on-roll cleanup of the never-visible fresh segment
		return err
	}
	if err := old.Sync(); err != nil { //lint:allow locksafe — salvage-on-roll: the durable truncate point must exist before the swap
		nf.Close()
		os.Remove(newPath) //lint:allow locksafe — salvage-on-roll cleanup of the never-visible fresh segment
		return err
	}
	old.Close()
	lostBytes := d.fileEnd - d.syncedEnd
	d.f = nf
	d.w.Reset(nf)
	d.segID++
	d.sinceSync = 0
	d.appended = d.synced.Load()
	d.bytes -= lostBytes
	d.fileEnd = end
	d.syncedEnd = end
	mRolls.Inc()
	if len(salvaged) > 0 {
		// Re-append through the ordinary buffered path and make the copies
		// durable immediately. A failure here keeps the log poisoned — the
		// salvage bytes sit past the (unchanged) watermark of the new
		// segment, so the next Roll attempt salvages them again.
		if _, err := d.w.Write(salvaged); err != nil {
			return err
		}
		d.appended += salvagedRecs
		d.bytes += int64(len(salvaged))
		d.fileEnd += int64(len(salvaged))
		if err := d.w.Flush(); err != nil {
			return err
		}
		if err := syncTimed(nf.Sync); err != nil {
			return err
		}
		d.fsyncs.Add(1)
		d.synced.Store(d.appended)
		d.syncedEnd = d.fileEnd
		mSalvaged.Add(salvagedRecs)
	}
	d.errMu.Lock()
	d.ioErr = nil
	d.errMu.Unlock()
	return nil
}

// salvageTail reads the complete records sitting past the durable watermark
// in the current segment file — the applied-but-unacknowledged writes a Roll
// must carry into the fresh segment. Called with both mutexes held while the
// log is poisoned. Best effort: an unreadable or undecodable tail salvages
// nothing, which degrades to the plain truncating roll.
func (d *Dir) salvageTail() ([]byte, uint64) {
	fi, err := d.f.Stat()
	if err != nil || fi.Size() <= d.syncedEnd {
		return nil, 0
	}
	data := make([]byte, fi.Size()-d.syncedEnd)
	if _, err := io.ReadFull(io.NewSectionReader(readerAtOnly{d.f}, d.syncedEnd, int64(len(data))), data); err != nil {
		return nil, 0
	}
	recs, valid, err := decodeStream(bytes.NewReader(data), d.f.Name(), false, true, func(Record) error { return nil })
	if err != nil || recs == 0 {
		return nil, 0
	}
	return data[:valid], uint64(recs)
}

// readerAtOnly narrows a file to io.ReaderAt for SectionReader use.
type readerAtOnly struct{ f failfs.File }

func (r readerAtOnly) ReadAt(p []byte, off int64) (int, error) { return r.f.ReadAt(p, off) }

// DropThrough deletes every segment file with id at most segID, except the
// segment currently open for appending. Used after a checkpoint has made
// those segments redundant.
func (d *Dir) DropThrough(segID uint64) error {
	d.mu.Lock()
	cur := d.segID
	dir := d.dir
	d.mu.Unlock()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		id, ok := parseSegmentName(e.Name())
		if !ok || id > segID || id == cur {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := SyncDir(dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close flushes, fsyncs and closes the current segment.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if err := d.SyncError(); err != nil {
		// A poisoned log must not fsync on close: the watermark has not
		// advanced, so reporting the sticky error — not a fresh fsync that
		// might falsely succeed — is the honest outcome.
		d.f.Close()
		return err
	}
	flushErr := d.w.Flush()
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	if flushErr != nil {
		d.f.Close()
		return flushErr
	}
	if err := syncTimed(d.f.Sync); err != nil {
		d.f.Close()
		return err
	}
	d.fsyncs.Add(1)
	// Everything appended is durable; advance the watermark so a Sync that
	// raced past the closed check returns success instead of fsyncing the
	// closed fd and reporting a spurious failure.
	d.synced.Store(d.appended)
	return d.f.Close()
}

// RefuseLegacy fails, wrapping errors.ErrUnsupported, when path holds a
// leftover of the single-file SWL1 log: such a log at path itself, or the
// path+".legacy" staging file an interrupted migration left behind. A file at
// path that is no log at all fails with ErrCorrupt; a missing path or a
// directory passes. It costs two stats on a directory. SWL1-headered
// segments inside a directory are refused where ListSegments reads their
// headers. Nothing is modified either way.
func RefuseLegacy(path string) error {
	staging := path + ".legacy"
	if _, err := os.Stat(staging); err == nil {
		return fmt.Errorf("%s: %w", staging, errLegacy)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	fi, err := os.Stat(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil
	case err != nil:
		return err
	case fi.IsDir():
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err == nil && magic == legacyMagic {
		return fmt.Errorf("%s: %w", path, errLegacy)
	}
	return fmt.Errorf("%w: %s is not a write-ahead log directory", ErrCorrupt, path)
}
