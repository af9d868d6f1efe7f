package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sprofile/internal/core"
)

func addRec(key string) Record { return Record{Key: key, Action: core.ActionAdd} }

func collectDir(t *testing.T, dir string) []string {
	t.Helper()
	var keys []string
	if _, err := ReplayDir(dir, func(r Record) error {
		keys = append(keys, r.Key)
		return nil
	}); err != nil {
		t.Fatalf("ReplayDir: %v", err)
	}
	return keys
}

func TestDirAppendRotateReplay(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Options{}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if _, err := d.Append(addRec(k)); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := d.Rotate(7)
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 1 {
		t.Fatalf("sealed segment %d, want 1", sealed)
	}
	if d.SegmentID() != 2 {
		t.Fatalf("current segment %d, want 2", d.SegmentID())
	}
	if _, err := d.Append(addRec("c")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].ID != 1 || segs[1].ID != 2 {
		t.Fatalf("segments = %+v, want ids 1,2", segs)
	}
	if segs[0].SnapSeq != 0 || segs[1].SnapSeq != 7 {
		t.Fatalf("snap seqs = %d,%d, want 0,7", segs[0].SnapSeq, segs[1].SnapSeq)
	}
	if got := collectDir(t, dir); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("replayed %v, want [a b c]", got)
	}
}

func TestDirReopenAppendsToTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Options{}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(addRec("a")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	tail := segs[len(segs)-1]
	d2, err := OpenDir(dir, Options{}, &tail, tail.ID, tail.SnapSeq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Append(addRec("b")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collectDir(t, dir); len(got) != 2 || got[1] != "b" {
		t.Fatalf("replayed %v, want [a b]", got)
	}
}

// TestDirTornTailTruncated simulates a crash mid-append: the torn bytes must
// be both invisible to replay and physically removed before new appends, so
// later records stay reachable.
func TestDirTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Options{}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"alpha", "beta"} {
		if _, err := d.Append(addRec(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	tail := segs[0]
	// Tear the final record: chop two bytes off the file.
	if err := os.Truncate(tail.Path, tail.Size-2); err != nil {
		t.Fatal(err)
	}
	if got := collectDir(t, dir); len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("replayed %v, want [alpha]", got)
	}

	segs, _ = ListSegments(dir)
	tail = segs[0]
	d2, err := OpenDir(dir, Options{}, &tail, tail.ID, tail.SnapSeq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Append(addRec("gamma")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	got := collectDir(t, dir)
	if len(got) != 2 || got[0] != "alpha" || got[1] != "gamma" {
		t.Fatalf("replayed %v, want [alpha gamma]", got)
	}
}

// TestDirTornHeaderRecreated simulates a crash during rotation, before the
// new segment's header reached the disk: the stub is recreated in place.
func TestDirTornHeaderRecreated(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Options{}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(addRec("a")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A two-byte stub of segment 2: not even the magic survived.
	if err := os.WriteFile(filepath.Join(dir, SegmentName(2)), []byte("SW"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || !segs[1].Torn {
		t.Fatalf("segments = %+v, want torn tail", segs)
	}
	tail := segs[1]
	d2, err := OpenDir(dir, Options{}, &tail, tail.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.SegmentID() != 2 {
		t.Fatalf("recreated segment id %d, want 2", d2.SegmentID())
	}
	if _, err := d2.Append(addRec("b")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collectDir(t, dir); len(got) != 2 || got[1] != "b" {
		t.Fatalf("replayed %v, want [a b]", got)
	}
}

func TestDirDropThrough(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Options{}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Append(addRec("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Rotate(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.DropThrough(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].ID != 3 || segs[1].ID != 4 {
		t.Fatalf("segments after drop = %+v, want ids 3,4", segs)
	}
	if got := collectDir(t, dir); len(got) != 1 {
		t.Fatalf("replayed %v, want one record (segment 3's)", got)
	}
}

// TestReplaySegmentSealedTornIsCorrupt: a torn record inside a sealed (non
// final) segment is corruption, not a crash artifact, and must be reported.
func TestReplaySegmentSealedTornIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Options{}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(addRec("abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	if err := os.Truncate(segs[0].Path, segs[0].Size-2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySegment(segs[0].Path, false, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sealed torn segment replay = %v, want ErrCorrupt", err)
	}
}

// legacyLog is a single-file SWL1 log holding one add of "a": the retired
// format's magic followed by the record stream.
var legacyLog = []byte{'S', 'W', 'L', '1', 1, 'a', 0}

// TestRefuseLegacy covers every leftover of the retired single-file log: each
// is refused with errors.ErrUnsupported, names the last commit that can
// read it, and stays byte for byte as it was.
func TestRefuseLegacy(t *testing.T) {
	refused := func(t *testing.T, err error, leftover string) {
		t.Helper()
		if !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("got %v, want errors.ErrUnsupported", err)
		}
		if !strings.Contains(err.Error(), "3727a8a") || !strings.Contains(err.Error(), leftover) {
			t.Fatalf("error %q must name the leftover %s and commit 3727a8a", err, leftover)
		}
		if data, rerr := os.ReadFile(leftover); rerr != nil || !bytes.Equal(data, legacyLog) {
			t.Fatalf("leftover %s changed: %q, %v", leftover, data, rerr)
		}
	}

	t.Run("file_at_path", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "events.wal")
		if err := os.WriteFile(path, legacyLog, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, RefuseLegacy(path), path)
	})

	// The staging file of a migration that crashed after moving the log
	// aside, with or without the directory it was headed for.
	t.Run("staging_file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "events.wal")
		if err := os.WriteFile(path+".legacy", legacyLog, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, RefuseLegacy(path), path+".legacy")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		refused(t, RefuseLegacy(path), path+".legacy")
	})

	// A migrated log: the file became segment 1 of a directory, header and
	// all. Every reader of segment headers refuses it.
	t.Run("segment_header", func(t *testing.T) {
		dir := t.TempDir()
		seg := filepath.Join(dir, SegmentName(1))
		if err := os.WriteFile(seg, legacyLog, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := RefuseLegacy(dir); err != nil {
			t.Fatalf("RefuseLegacy(dir) = %v; segment headers are checked by ListSegments", err)
		}
		_, err := ListSegments(dir)
		refused(t, err, seg)
		_, err = ReplaySegment(seg, true, func(Record) error { return nil })
		refused(t, err, seg)
		var dec StreamDecoder
		if err := dec.Feed(legacyLog, func(Record) error { return nil }); !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("StreamDecoder.Feed = %v, want errors.ErrUnsupported", err)
		}
	})

	t.Run("not_a_log", func(t *testing.T) {
		dir := t.TempDir()
		if err := RefuseLegacy(filepath.Join(dir, "absent")); err != nil {
			t.Fatalf("missing path: %v", err)
		}
		if err := RefuseLegacy(dir); err != nil {
			t.Fatalf("directory: %v", err)
		}
		path := filepath.Join(dir, "notes.txt")
		if err := os.WriteFile(path, []byte("not a wal file"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := RefuseLegacy(path); !errors.Is(err, ErrCorrupt) || errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("non-WAL file: got %v, want ErrCorrupt only", err)
		}
	})
}
