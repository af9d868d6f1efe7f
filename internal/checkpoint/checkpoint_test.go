package checkpoint_test

import (
	"bytes"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sprofile"
	"sprofile/internal/checkpoint"
	"sprofile/internal/core"
	"sprofile/internal/server"
	"sprofile/internal/wal"
)

// fakeProfile is a minimal keyed state machine for exercising the store:
// recovery must reproduce exactly the counts the writing run held, whatever
// mix of snapshot restore and tail replay gets there.
type fakeProfile struct {
	counts  map[string]int64
	adds    uint64
	removes uint64
}

func newFake() *fakeProfile { return &fakeProfile{counts: make(map[string]int64)} }

func (f *fakeProfile) apply(rec wal.Record) error {
	if rec.Action == core.ActionAdd {
		f.counts[rec.Key]++
		f.adds++
	} else {
		f.counts[rec.Key]--
		f.removes++
	}
	return nil
}

func (f *fakeProfile) state() *checkpoint.State {
	st := &checkpoint.State{Capacity: 1 << 20, Adds: f.adds, Removes: f.removes}
	keys := make([]string, 0, len(f.counts))
	for k := range f.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st.Append([]byte(k), f.counts[k])
	}
	return st
}

func (f *fakeProfile) restore(st *checkpoint.State) {
	for i, k := range st.Keys {
		f.counts[k] = st.Freqs[i]
	}
	f.adds = st.Adds
	f.removes = st.Removes
}

// reopen runs the full recovery protocol over dir and returns the store, the
// rebuilt state, and the number of tail records replayed.
func reopen(t *testing.T, dir string) (*checkpoint.Store, *fakeProfile, int) {
	t.Helper()
	s, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	f := newFake()
	if st := s.TakeState(); st != nil {
		f.restore(st)
	}
	n, err := s.ReplayTail(f.apply)
	if err != nil {
		t.Fatalf("ReplayTail: %v", err)
	}
	return s, f, n
}

// doCheckpoint runs one checkpoint of f's current state through the store.
func doCheckpoint(t *testing.T, s *checkpoint.Store, f *fakeProfile) {
	t.Helper()
	if err := s.Checkpoint(func() (*checkpoint.State, uint64, error) {
		sealed, err := s.Rotate()
		if err != nil {
			return nil, 0, err
		}
		return f.state(), sealed, nil
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
}

func appendN(t *testing.T, s *checkpoint.Store, f *fakeProfile, keys ...string) {
	t.Helper()
	for _, k := range keys {
		rec := wal.Record{Key: k, Action: core.ActionAdd}
		if _, err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := f.apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

func wantCounts(t *testing.T, f *fakeProfile, want map[string]int64) {
	t.Helper()
	for k, v := range want {
		if f.counts[k] != v {
			t.Fatalf("count[%s] = %d, want %d (all: %v)", k, f.counts[k], v, f.counts)
		}
	}
	for k, v := range f.counts {
		if v != 0 && want[k] == 0 {
			t.Fatalf("unexpected recovered key %s=%d", k, v)
		}
	}
}

func listFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, f, _ := reopen(t, dir)
	appendN(t, s, f, "a", "b", "a")
	doCheckpoint(t, s, f)
	appendN(t, s, f, "c", "a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, f2, tail := reopen(t, dir)
	defer s2.Close()
	wantCounts(t, f2, map[string]int64{"a": 3, "b": 1, "c": 1})
	if tail != 2 {
		t.Fatalf("tail replay = %d records, want 2 (only the post-checkpoint events)", tail)
	}
	stats := s2.Stats()
	if stats.SnapshotSeq != 1 || stats.SnapshotEvents != 3 || stats.TailRecords != 2 {
		t.Fatalf("stats = %+v, want snapshot 1 covering 3 events plus 2 tail records", stats)
	}
	if f2.adds != 5 {
		t.Fatalf("recovered adds = %d, want 5", f2.adds)
	}
	// The covered segment must be gone.
	for _, name := range listFiles(t, dir) {
		if name == wal.SegmentName(1) {
			t.Fatalf("segment 1 still present after checkpoint: %v", listFiles(t, dir))
		}
	}
}

// TestRecoverTornRecordAtSegmentBoundary tears the final record of the tail
// segment right after a checkpoint's rotation: recovery must keep the
// snapshot plus the clean prefix of the tail and drop only the torn bytes.
func TestRecoverTornRecordAtSegmentBoundary(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, f, _ := reopen(t, dir)
	appendN(t, s, f, "a", "b")
	doCheckpoint(t, s, f)
	appendN(t, s, f, "cc", "dd")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record of the newest segment — the first record past the
	// segment boundary stays intact, the second is cut mid-key.
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	tail := segs[len(segs)-1]
	if err := os.Truncate(tail.Path, tail.Size-2); err != nil {
		t.Fatal(err)
	}

	s2, f2, tailRecords := reopen(t, dir)
	defer s2.Close()
	wantCounts(t, f2, map[string]int64{"a": 1, "b": 1, "cc": 1})
	if tailRecords != 1 {
		t.Fatalf("tail replay = %d, want 1 (dd was torn)", tailRecords)
	}
}

// TestRecoverPartialSnapshotTemp simulates a crash while the snapshot file
// was still being written: the .tmp must be ignored (recovery picks the
// previous snapshot) and cleaned up.
func TestRecoverPartialSnapshotTemp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, f, _ := reopen(t, dir)
	appendN(t, s, f, "a")
	doCheckpoint(t, s, f)
	appendN(t, s, f, "b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A half-written snapshot 2 that never got renamed.
	tmp := filepath.Join(dir, "snap-0000000000000002.sks.tmp")
	if err := os.WriteFile(tmp, []byte("SKS1\x01\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, f2, tail := reopen(t, dir)
	defer s2.Close()
	wantCounts(t, f2, map[string]int64{"a": 1, "b": 1})
	if s2.Seq() != 1 {
		t.Fatalf("recovered snapshot seq = %d, want 1", s2.Seq())
	}
	if tail != 1 {
		t.Fatalf("tail replay = %d, want 1", tail)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp snapshot not cleaned up: %v", err)
	}
}

// TestRecoverInterruptedBetweenRenameAndDeletion simulates a checkpoint that
// crashed after publishing the snapshot but before deleting the segments it
// covers: recovery must use the snapshot, replay only the newer tail (the
// stale segments' events are already inside the snapshot and must not be
// double-counted), and delete the stale files.
func TestRecoverInterruptedBetweenRenameAndDeletion(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, f, _ := reopen(t, dir)
	appendN(t, s, f, "a", "b", "a")

	// Copy the covered segment aside before the checkpoint deletes it...
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg1 := segs[0]
	data, err := os.ReadFile(seg1.Path)
	if err != nil {
		t.Fatal(err)
	}
	doCheckpoint(t, s, f)
	appendN(t, s, f, "c")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and put it back, as if the deletion never ran.
	if err := os.WriteFile(seg1.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, f2, tail := reopen(t, dir)
	defer s2.Close()
	wantCounts(t, f2, map[string]int64{"a": 2, "b": 1, "c": 1})
	if tail != 1 {
		t.Fatalf("tail replay = %d, want 1 — the resurrected covered segment must not replay", tail)
	}
	if _, err := os.Stat(seg1.Path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale covered segment not cleaned up")
	}
}

// TestRecoverCorruptNewestSnapshotFallsBack damages the newest snapshot
// after it was renamed into place but before its checkpoint deleted any
// segments: recovery must reject it on the checksum and fall back to the
// previous snapshot plus the full tail.
func TestRecoverCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, f, _ := reopen(t, dir)
	appendN(t, s, f, "a")
	doCheckpoint(t, s, f)
	appendN(t, s, f, "b")

	// Second checkpoint: keep everything it would delete (the covered
	// segments and the superseded snapshot 1), then corrupt its own snapshot
	// — the combined "crashed after rename, damaged file" case.
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	saved := make(map[string][]byte)
	for _, sg := range segs {
		data, err := os.ReadFile(sg.Path)
		if err != nil {
			t.Fatal(err)
		}
		saved[sg.Path] = data
	}
	snap1 := filepath.Join(dir, "snap-0000000000000001.sks")
	snap1Data, err := os.ReadFile(snap1)
	if err != nil {
		t.Fatal(err)
	}
	saved[snap1] = snap1Data
	doCheckpoint(t, s, f)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for path, data := range saved {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap2 := filepath.Join(dir, "snap-0000000000000002.sks")
	data, err := os.ReadFile(snap2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snap2, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, f2, tail := reopen(t, dir)
	defer s2.Close()
	wantCounts(t, f2, map[string]int64{"a": 1, "b": 1})
	if s2.Seq() != 1 {
		t.Fatalf("recovered snapshot seq = %d, want fallback to 1", s2.Seq())
	}
	if tail != 1 {
		t.Fatalf("tail replay = %d, want 1 (the b record)", tail)
	}
	// The corrupt snapshot must be pruned so it cannot shadow future ones.
	for _, name := range listFiles(t, dir) {
		if strings.Contains(name, "0000000000000002.sks") {
			t.Fatalf("corrupt snapshot still present: %v", listFiles(t, dir))
		}
	}
}

// TestRecoverFreshAndEmpty: an empty directory and a directory with only an
// empty log must both come up cleanly.
func TestRecoverFreshAndEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, f, tail := reopen(t, dir)
	if tail != 0 || len(f.counts) != 0 {
		t.Fatalf("fresh dir replayed %d records", tail)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, tail2 := reopen(t, dir)
	defer s2.Close()
	if tail2 != 0 {
		t.Fatalf("empty log replayed %d records", tail2)
	}
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestCheckpointKeepsDenseProfile: a directory checkpointed by the retired
// dense-id profile — testdata/dense-ce8033a, written at commit ce8033a by
// Build(8, WithWAL) with a Checkpoint between its events — holds a kind-0
// snapshot. Every way to open it refuses with errors.ErrUnsupported and
// that commit's name rather than fall back past the snapshot (which would
// drop the state it holds), and leaves every file byte for byte as it was.
// The refusal matches the public sprofile.ErrBadSnapshot too.
func TestCheckpointKeepsDenseProfile(t *testing.T) {
	fixture := dirFiles(t, filepath.Join("testdata", "dense-ce8033a"))
	if len(fixture) != 2 {
		t.Fatalf("fixture holds %d files, want a snapshot and a segment", len(fixture))
	}
	for _, open := range []struct {
		name string
		open func(dir string) (io.Closer, error)
	}{
		{"checkpoint.Open", func(dir string) (io.Closer, error) {
			return checkpoint.Open(dir, checkpoint.Options{})
		}},
		{"BuildKeyed", func(dir string) (io.Closer, error) {
			return sprofile.BuildKeyed[string](8, sprofile.WithWAL(dir))
		}},
		{"server.New", func(dir string) (io.Closer, error) {
			return server.New(server.Config{Capacity: 8, WALPath: dir})
		}},
		{"NewKeyedFollower", func(dir string) (io.Closer, error) {
			// The mirror is not empty, so the follower contacts no leader.
			return sprofile.NewKeyedFollower(sprofile.FollowerConfig{Capacity: 8, Leader: "http://127.0.0.1:1", Dir: dir})
		}},
	} {
		dir := t.TempDir()
		for name, data := range fixture {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := open.open(dir)
		if err == nil {
			c.Close()
			t.Fatalf("%s opened a directory holding a dense-id snapshot", open.name)
		}
		if !errors.Is(err, errors.ErrUnsupported) || !errors.Is(err, checkpoint.ErrBadSnapshot) ||
			!errors.Is(err, sprofile.ErrBadSnapshot) || !strings.Contains(err.Error(), "ce8033a") {
			t.Fatalf("%s = %v, want ErrBadSnapshot and errors.ErrUnsupported naming commit ce8033a", open.name, err)
		}
		if got := dirFiles(t, dir); !maps.EqualFunc(got, fixture, bytes.Equal) {
			t.Fatalf("%s changed the directory: %d files, want the fixture's %d unchanged", open.name, len(got), len(fixture))
		}
	}
}

// TestRecoverRefusesWhenOnlySnapshotDamaged: once a checkpoint has deleted
// the segments it covers, damaging its snapshot must make recovery fail
// loudly — the surviving segments' headers record that they depend on it, so
// silently replaying only the tail (and losing everything the snapshot held)
// would be data loss masquerading as success.
func TestRecoverRefusesWhenOnlySnapshotDamaged(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, f, _ := reopen(t, dir)
	appendN(t, s, f, "a", "b")
	doCheckpoint(t, s, f)
	appendN(t, s, f, "c")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap1 := filepath.Join(dir, "snap-0000000000000001.sks")
	data, err := os.ReadFile(snap1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snap1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Open(dir, checkpoint.Options{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open with damaged sole snapshot = %v, want ErrCorrupt", err)
	}
	// The damaged snapshot must still be on disk for forensics.
	if _, err := os.Stat(snap1); err != nil {
		t.Fatalf("damaged snapshot was deleted: %v", err)
	}
}
