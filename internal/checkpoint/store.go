package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sprofile/internal/failpoint"
	"sprofile/internal/failpoint/failfs"
	"sprofile/internal/wal"
)

// Options configures a Store.
type Options struct {
	// SyncEvery asks for an fsync after this many appended records; zero
	// syncs only on explicit Sync/Close calls and at rotation.
	SyncEvery int
}

// RecoveryStats describes how a profile was rebuilt when its store opened.
type RecoveryStats struct {
	// SnapshotSeq is the sequence number of the snapshot recovery loaded
	// (zero when no snapshot existed).
	SnapshotSeq uint64
	// SnapshotObjects is how many keys the snapshot restored without
	// replay.
	SnapshotObjects int
	// SnapshotEvents is the number of add/remove events the snapshot covers
	// — events that did not need replaying.
	SnapshotEvents uint64
	// TailSegments and TailRecords count what was replayed after the
	// snapshot: the WAL segments newer than the one it sealed and the
	// entries inside them, one per single-event record and one per key of
	// a batch record.
	TailSegments int
	TailRecords  int
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".sks"
	tmpSuffix  = ".tmp"
)

// snapName returns the file name of snapshot seq.
func snapName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

// parseSnapName extracts the sequence number from a snapshot file name.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Store owns one checkpointed log directory: the WAL append head, the latest
// snapshot, and the checkpoint protocol that replaces covered segments with
// a new snapshot. Opening happens in two phases — Open scans the directory
// and decodes the snapshot, the caller restores its profile from TakeState,
// then ReplayTail rolls the profile forward and switches the store into
// append mode.
type Store struct {
	dir  string
	opts Options

	state     *State // decoded recovery snapshot, until TakeState
	seq       uint64 // latest snapshot sequence (0 = none)
	sealedSeg uint64 // last segment covered by that snapshot
	tail      []wal.SegmentInfo
	stats     RecoveryStats

	log *wal.Dir // nil until ReplayTail

	// ckptMu admits one checkpoint at a time. It is deliberately held
	// across the whole temp + fsync + rename + prune protocol: nothing on
	// the ingest or read fast path ever contends on it (state capture uses
	// the profile's own locks via the capture callback, which quiesces and
	// releases before the I/O starts).
	//lint:allow locksafe — one-in-flight checkpoint guard, audited to never block ingest or reads
	ckptMu sync.Mutex
	// tailBase is the AppendedBytes baseline of the current tail: TailBytes
	// reports bytes appended past it. Negative at open (crediting the tail
	// segments already on disk), reset at each successful checkpoint.
	tailBase    atomic.Int64
	pendingBase int64 // AppendedBytes at the in-flight checkpoint's rotation

	// metaMu lets goroutines outside the checkpoint path (replication
	// handlers, health probes) read seq/sealedSeg/lastCkpt consistently;
	// the checkpoint path also writes them under it.
	metaMu   sync.Mutex
	lastCkpt time.Time

	// pinMu guards the TTL leases bootstrapping followers hold on the
	// current snapshot and the segments after it. prune honours live leases;
	// expired ones are collected lazily.
	pinMu   sync.Mutex
	pins    map[uint64]pinLease
	nextPin uint64
}

// pinLease is one follower's retention lease: keep snapshot seq and every
// segment above sealedSeg until the lease expires or is released.
type pinLease struct {
	seq       uint64
	sealedSeg uint64
	expires   time.Time
}

// Open scans (creating if needed) the checkpointed log directory at path. A
// leftover of the retired single-file log at path, or in it, is refused
// with an error wrapping errors.ErrUnsupported (see wal.RefuseLegacy) and
// left untouched, and so is a directory whose newest readable snapshot is of
// the retired dense-id kind. Open decodes the newest snapshot whose checksum
// verifies — an unreadable newer snapshot is skipped, falling back to its
// predecessor — and plans the tail replay, but replays nothing: the caller
// restores its profile from TakeState, then calls ReplayTail.
func Open(path string, opts Options) (*Store, error) {
	if err := wal.RefuseLegacy(path); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: path, opts: opts}

	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var snapSeqs []uint64
	for _, e := range entries {
		if seq, ok := parseSnapName(e.Name()); ok && !e.IsDir() {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] })
	for _, seq := range snapSeqs {
		data, err := os.ReadFile(filepath.Join(path, snapName(seq)))
		if err != nil {
			continue
		}
		st, err := decodeState(data)
		if errors.Is(err, errDenseSnapshot) {
			// Not damaged: skipping it would drop the state it holds.
			return nil, fmt.Errorf("%s: %w", filepath.Join(path, snapName(seq)), err)
		}
		if err != nil || st.Seq != seq {
			continue // damaged snapshot: fall back to the previous one
		}
		s.state = st
		s.seq = seq
		s.sealedSeg = st.SealedSeg
		if fi, err := os.Stat(filepath.Join(path, snapName(seq))); err == nil {
			s.lastCkpt = fi.ModTime()
		}
		break
	}

	segs, err := wal.ListSegments(path)
	if err != nil {
		return nil, err
	}
	for i, sg := range segs {
		if sg.Torn && i != len(segs)-1 {
			return nil, fmt.Errorf("%w: segment %s has no readable header but is not the tail", wal.ErrCorrupt, sg.Path)
		}
		if sg.ID > s.sealedSeg {
			s.tail = append(s.tail, sg)
		}
	}
	// The tail must be a contiguous run, starting right after the sealed
	// segment when a snapshot exists; a gap means segments were lost.
	// (Without a snapshot the log may legitimately start at any id.)
	for i, sg := range s.tail {
		want := sg.ID
		if i > 0 {
			want = s.tail[i-1].ID + 1
		} else if s.seq > 0 {
			want = s.sealedSeg + 1
		}
		if sg.ID != want {
			return nil, fmt.Errorf("%w: segment %d missing (found %d)", wal.ErrCorrupt, want, sg.ID)
		}
	}
	// The oldest surviving segment must not postdate the snapshot recovery
	// chose: its header records the snapshot sequence current when it was
	// created, so a higher value means a checkpoint already deleted the
	// segments before it and its snapshot is now missing or unreadable.
	// Replaying just the tail would silently drop everything that snapshot
	// covered — fail loudly instead and leave the directory untouched for
	// forensics. (A checkpoint that failed *before* publishing its snapshot
	// never deletes anything, so the oldest segment then still carries the
	// previous sequence and this check stays quiet.)
	if len(s.tail) > 0 && !s.tail[0].Torn && s.tail[0].SnapSeq > s.seq {
		return nil, fmt.Errorf("%w: segment %d requires snapshot %d, which is missing or unreadable",
			wal.ErrCorrupt, s.tail[0].ID, s.tail[0].SnapSeq)
	}

	if s.state != nil {
		s.stats.SnapshotSeq = s.seq
		s.stats.SnapshotObjects = s.state.Len()
		s.stats.SnapshotEvents = s.state.Adds + s.state.Removes
		mRecoverySnapshotEvents.Add(s.stats.SnapshotEvents)
		mSnapshotSeq.Set(float64(s.seq))
	}
	return s, nil
}

// TakeState hands over the decoded recovery snapshot (nil when none was
// found) and releases the store's reference so the image can be collected
// after the caller restores from it.
func (s *Store) TakeState() *State {
	st := s.state
	s.state = nil
	return st
}

// Stats returns what recovery loaded and replayed.
func (s *Store) Stats() RecoveryStats { return s.stats }

// Seq returns the sequence number of the latest snapshot.
func (s *Store) Seq() uint64 { return s.seq }

// Dir returns the directory the store manages.
func (s *Store) Dir() string { return s.dir }

// ReplayTail replays every record appended after the recovery snapshot,
// invoking fn for each, then opens the log for appending and prunes files
// made redundant by the snapshot (covered segments, superseded snapshots,
// leftover temp files). It returns the number of entries replayed: one per
// single-event record and one per key of a batch record.
func (s *Store) ReplayTail(fn func(wal.Record) error) (int, error) {
	if s.log != nil {
		return 0, errors.New("checkpoint: tail already replayed")
	}
	records := 0
	segments := 0
	for i, sg := range s.tail {
		if sg.Torn {
			continue // recreated by OpenDir below; holds no records
		}
		// Only the final segment may legitimately end mid-record (a crash
		// mid-append); sealed segments were fsynced whole.
		n, err := wal.ReplaySegment(sg.Path, i == len(s.tail)-1, fn)
		records += n
		if err != nil {
			return records, err
		}
		segments++
	}

	var tailSeg *wal.SegmentInfo
	nextID := s.sealedSeg + 1
	if len(s.tail) > 0 {
		t := s.tail[len(s.tail)-1]
		tailSeg = &t
		nextID = t.ID
	}
	log, err := wal.OpenDir(s.dir, wal.Options{SyncEvery: s.opts.SyncEvery}, tailSeg, nextID, s.seq)
	if err != nil {
		return records, err
	}
	s.log = log
	s.tailBase.Store(log.AppendedBytes() - tailBytesOnDisk(s.tail))
	s.stats.TailSegments = segments
	s.stats.TailRecords = records
	mRecoveryReplayed.Add(uint64(records))
	s.prune()
	s.tail = nil
	return records, nil
}

// tailBytesOnDisk sums the record bytes sitting in the tail segments.
func tailBytesOnDisk(tail []wal.SegmentInfo) int64 {
	var n int64
	for _, sg := range tail {
		n += sg.Size
	}
	return n
}

// prune deletes covered segments, superseded or damaged snapshots, and
// leftover temp files. Best-effort: a file that cannot be removed today is
// removed by the next successful checkpoint or restart.
func (s *Store) prune() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	keepSeq, minSealed := s.pinnedRetention()
	drop := s.sealedSeg
	if minSealed < drop {
		drop = minSealed
	}
	if s.log != nil {
		_ = s.log.DropThrough(drop)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if seq, ok := parseSnapName(name); ok && seq != s.seq && !keepSeq[seq] {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// pinnedRetention folds the live leases into retention bounds — the snapshot
// sequences that must survive and the lowest sealed-segment watermark a
// lease still needs the tail of — collecting expired leases on the way.
func (s *Store) pinnedRetention() (keepSeq map[uint64]bool, minSealed uint64) {
	minSealed = ^uint64(0)
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	now := time.Now()
	for id, p := range s.pins {
		if now.After(p.expires) {
			delete(s.pins, id)
			continue
		}
		if p.seq > 0 {
			if keepSeq == nil {
				keepSeq = make(map[uint64]bool)
			}
			keepSeq[p.seq] = true
		}
		if p.sealedSeg < minSealed {
			minSealed = p.sealedSeg
		}
	}
	return keepSeq, minSealed
}

// Append adds one record to the log. syncDue asks the caller to run Sync
// once it is outside its own locks (the SyncEvery contract).
func (s *Store) Append(rec wal.Record) (syncDue bool, err error) {
	return s.log.Append(rec)
}

// AppendBatch adds a whole coalesced batch to the log as one physical
// record; see wal.Dir.AppendBatch.
func (s *Store) AppendBatch(entries []wal.BatchEntry) (syncDue bool, err error) {
	return s.log.AppendBatch(entries)
}

// Appended returns the number of records appended through this store.
func (s *Store) Appended() uint64 { return s.log.Appended() }

// Fsyncs returns how many record-durability fsyncs the log has issued.
func (s *Store) Fsyncs() uint64 { return s.log.Fsyncs() }

// Sync makes every appended record durable (group commit; see wal.Dir.Sync).
func (s *Store) Sync() error { return s.log.Sync() }

// SyncError returns the sticky I/O error poisoning the WAL append head, or
// nil while it is healthy (or not yet open); see wal.Dir.SyncError.
func (s *Store) SyncError() error {
	if s.log == nil {
		return nil
	}
	return s.log.SyncError()
}

// Roll recovers a poisoned WAL append head onto a fresh segment, restoring
// append service once the disk accepts writes again; see wal.Dir.Roll. On a
// healthy log it is a no-op.
func (s *Store) Roll() error {
	if s.log == nil {
		return errors.New("checkpoint: store is not open for appending")
	}
	return s.log.Roll()
}

// TailBytes returns the approximate size of the log tail not yet covered by
// a snapshot — the input to a size-based checkpoint trigger.
func (s *Store) TailBytes() int64 {
	if s.log == nil {
		return tailBytesOnDisk(s.tail)
	}
	return s.log.AppendedBytes() - s.tailBase.Load()
}

// Rotate seals the current segment and opens the next one, stamping it with
// the sequence the in-flight checkpoint will get. Call it only from inside a
// Checkpoint capture function, under whatever exclusion the owner's
// concurrency model requires.
func (s *Store) Rotate() (sealed uint64, err error) {
	sealed, err = s.log.Rotate(s.seq + 1)
	if err == nil {
		s.pendingBase = s.log.AppendedBytes()
	}
	return sealed, err
}

// Checkpoint runs one checkpoint cycle. capture must rotate the log (via
// Rotate) and return the profile image that covers everything up to the
// sealed segment, under the owner's write exclusion; Checkpoint then
// serialises the image to a temp file, fsyncs it, atomically renames it into
// place, and deletes the covered segments and the superseded snapshot. Only
// one checkpoint runs at a time; concurrent calls queue.
func (s *Store) Checkpoint(capture func() (*State, uint64, error)) error {
	start := time.Now()
	err := s.checkpoint(capture)
	if err == nil {
		mCheckpointsOK.Inc()
		mCheckpointSeconds.ObserveSince(start)
		mLastCheckpointUnix.Set(float64(time.Now().Unix()))
	} else {
		mCheckpointsErr.Inc()
	}
	return err
}

func (s *Store) checkpoint(capture func() (*State, uint64, error)) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.log == nil {
		return errors.New("checkpoint: store is not open for appending")
	}
	st, sealed, err := capture()
	if err != nil {
		return err
	}
	seq := s.seq + 1
	st.Seq = seq
	st.SealedSeg = sealed

	final := filepath.Join(s.dir, snapName(seq))
	tmp := final + tmpSuffix
	// The temp file runs through failfs so chaos tests can inject ENOSPC,
	// torn writes and fsync failures into every step of the temp + fsync +
	// rename publication protocol.
	f, err := failfs.OpenFile("checkpoint.snap", tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := encodeState(f, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := failpoint.Inject("checkpoint.rename"); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := wal.SyncDir(s.dir); err != nil {
		return err
	}
	// The snapshot is durable and visible: the checkpoint has happened.
	// Everything after this point is space reclamation.
	s.metaMu.Lock()
	s.seq = seq
	s.sealedSeg = sealed
	s.lastCkpt = time.Now()
	s.metaMu.Unlock()
	mSnapshotSeq.Set(float64(seq))
	s.tailBase.Store(s.pendingBase)
	s.prune()
	return nil
}

// Close flushes and closes the log. The store must not be used afterwards.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// SnapshotName returns the file name snapshot seq lives under — exported so
// the replication layer can mirror snapshot files byte-for-byte.
func SnapshotName(seq uint64) string { return snapName(seq) }

// PinnedSnapshot identifies a snapshot held by a retention lease.
type PinnedSnapshot struct {
	Pin       uint64 // lease id, for RefreshPin/Unpin
	Seq       uint64 // pinned snapshot sequence (0 = no snapshot yet)
	SealedSeg uint64 // last segment that snapshot covers
	Path      string // snapshot file path, empty when Seq is 0
}

// PinSnapshot leases the current snapshot and every segment after the one it
// sealed for ttl, so a bootstrapping follower can fetch the snapshot and then
// the uncovered tail without a concurrent checkpoint pruning either from
// under it. The lease expires on its own; callers extend it with RefreshPin
// while the bootstrap is still in flight and may drop it early with Unpin.
func (s *Store) PinSnapshot(ttl time.Duration) PinnedSnapshot {
	// Taking pinMu before reading the metadata closes the race with a
	// concurrent Checkpoint: either we observe the new snapshot, or prune
	// blocks on pinMu until our lease for the old one is registered.
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	s.metaMu.Lock()
	seq, sealed := s.seq, s.sealedSeg
	s.metaMu.Unlock()
	if s.pins == nil {
		s.pins = make(map[uint64]pinLease)
	}
	s.nextPin++
	ps := PinnedSnapshot{Pin: s.nextPin, Seq: seq, SealedSeg: sealed}
	if seq > 0 {
		ps.Path = filepath.Join(s.dir, snapName(seq))
	}
	s.pins[ps.Pin] = pinLease{seq: seq, sealedSeg: sealed, expires: time.Now().Add(ttl)}
	return ps
}

// RefreshPin extends lease id by ttl from now. It reports whether the lease
// was still live; an expired or unknown lease cannot be revived — the caller
// must pin again (and re-validate what it was fetching).
func (s *Store) RefreshPin(id uint64, ttl time.Duration) bool {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	p, ok := s.pins[id]
	if !ok || time.Now().After(p.expires) {
		delete(s.pins, id)
		return false
	}
	p.expires = time.Now().Add(ttl)
	s.pins[id] = p
	return true
}

// Unpin releases lease id. Releasing an expired or unknown lease is a no-op.
func (s *Store) Unpin(id uint64) {
	s.pinMu.Lock()
	delete(s.pins, id)
	s.pinMu.Unlock()
}

// PinTail leases every segment at or above seg for ttl, without pinning any
// snapshot. It is the steady-state lease of a caught-up follower: as long as
// it is refreshed, checkpoints will not prune the bytes the follower has yet
// to fetch.
func (s *Store) PinTail(seg uint64, ttl time.Duration) uint64 {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	if s.pins == nil {
		s.pins = make(map[uint64]pinLease)
	}
	s.nextPin++
	var sealed uint64
	if seg > 0 {
		sealed = seg - 1
	}
	s.pins[s.nextPin] = pinLease{sealedSeg: sealed, expires: time.Now().Add(ttl)}
	return s.nextPin
}

// AdvancePin moves lease id forward so it only retains segments at or above
// seg, drops any snapshot retention it carried (the follower fetching WAL at
// seg has durably restored its snapshot already), and extends it by ttl. The
// watermark never regresses. It reports whether the lease was still live.
func (s *Store) AdvancePin(id, seg uint64, ttl time.Duration) bool {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	p, ok := s.pins[id]
	if !ok || time.Now().After(p.expires) {
		delete(s.pins, id)
		return false
	}
	p.seq = 0
	if seg > 0 && seg-1 > p.sealedSeg {
		p.sealedSeg = seg - 1
	}
	p.expires = time.Now().Add(ttl)
	s.pins[id] = p
	return true
}

// SnapshotMeta returns the current snapshot sequence and the last segment it
// covers, consistently with each other.
func (s *Store) SnapshotMeta() (seq, sealedSeg uint64) {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	return s.seq, s.sealedSeg
}

// LastCheckpoint returns when the current snapshot was published (the zero
// time when none exists). For a freshly opened store this is the snapshot
// file's modification time.
func (s *Store) LastCheckpoint() time.Time {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	return s.lastCkpt
}

// AppendSegmentID returns the id of the segment currently open for
// appending.
func (s *Store) AppendSegmentID() uint64 { return s.log.SegmentID() }

// AppendPosition reports the durable append position: the current segment
// and the byte offset covered by the last completed fsync. A reader that has
// mirrored up to this position has everything the leader has made durable —
// and nothing more, so a post-failure Roll (which truncates the segment back
// to this offset) can never invalidate bytes a reader already fetched.
func (s *Store) AppendPosition() wal.Position {
	return s.log.SyncedPosition()
}

// SegmentCount counts the WAL segment files currently in the directory — an
// observability figure, racing benignly with rotation and pruning.
func (s *Store) SegmentCount() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			n++
		}
	}
	return n
}

// ReplayTailReadOnly replays every record appended after the recovery
// snapshot, like ReplayTail, but leaves the directory exactly as it found it:
// no append head is opened, nothing is truncated or pruned, and the store can
// never append afterwards. It returns the number of entries replayed and the
// replica position — the byte boundary just past the last complete record,
// where a follower mirroring this directory resumes fetching. A torn tail is
// tolerated (mirroring overwrites it); the position stops before it.
func (s *Store) ReplayTailReadOnly(fn func(wal.Record) error) (int, wal.Position, error) {
	if s.log != nil {
		return 0, wal.Position{}, errors.New("checkpoint: store is already open for appending")
	}
	pos := wal.Position{Segment: s.sealedSeg + 1}
	if len(s.tail) > 0 {
		pos = wal.Position{Segment: s.tail[0].ID}
	}
	records := 0
	segments := 0
	for i, sg := range s.tail {
		if sg.Torn {
			// Header never made it to disk: nothing recoverable, and the
			// mirror restarts this segment from byte 0.
			pos = wal.Position{Segment: sg.ID}
			continue
		}
		n, end, err := wal.ReplaySegmentValid(sg.Path, i == len(s.tail)-1, fn)
		records += n
		if err != nil {
			return records, pos, err
		}
		pos = wal.Position{Segment: sg.ID, Offset: end}
		segments++
	}
	s.stats.TailSegments = segments
	s.stats.TailRecords = records
	s.tail = nil
	return records, pos, nil
}
