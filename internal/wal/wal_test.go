package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sprofile/internal/core"
)

// segmentPath returns the file of segment id in dir.
func segmentPath(dir string, id uint64) string { return filepath.Join(dir, SegmentName(id)) }

// replaySegmentRecords replays one segment, tolerating a torn tail, and
// returns its records.
func replaySegmentRecords(t *testing.T, path string) []Record {
	t.Helper()
	var recs []Record
	if _, err := ReplaySegment(path, true, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("ReplaySegment(%s): %v", path, err)
	}
	return recs
}

// mustAppend appends single-event records to d.
func mustAppend(t testing.TB, d *Dir, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := d.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// appendRaw appends bytes to a file behind the writer's back, the way a
// crash mid write or a damaged disk leaves them.
func appendRaw(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAndReplay(t *testing.T) {
	d, dir := openTestDir(t, Options{})
	records := []Record{
		{Key: "video-1", Action: core.ActionAdd},
		{Key: "video-1", Action: core.ActionAdd},
		{Key: "user:alice", Action: core.ActionRemove},
		{Key: "video-2", Action: core.ActionAdd},
	}
	mustAppend(t, d, records...)
	if d.Appended() != uint64(len(records)) {
		t.Fatalf("Appended() = %d", d.Appended())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := replaySegmentRecords(t, segmentPath(dir, 1))
	if len(replayed) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(records))
	}
	for i := range records {
		if replayed[i] != records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, replayed[i], records[i])
		}
	}
}

func TestAppendValidation(t *testing.T) {
	d, _ := openTestDir(t, Options{})
	defer d.Close()
	if _, err := d.Append(Record{Key: "", Action: core.ActionAdd}); err == nil {
		t.Fatalf("accepted empty key")
	}
	if _, err := d.Append(Record{Key: "x", Action: 0}); err == nil {
		t.Fatalf("accepted invalid action")
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	d, _ := openTestDir(t, Options{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(Record{Key: "x", Action: core.ActionAdd}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log: %v", err)
	}
	if _, err := d.AppendBatch([]BatchEntry{{Key: "x", Adds: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendBatch on closed log: %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync on closed log: %v", err)
	}
	if _, err := d.Rotate(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate on closed log: %v", err)
	}
	// Closing twice is fine.
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestTornTailIsIgnored(t *testing.T) {
	d, dir := openTestDir(t, Options{})
	mustAppend(t, d, Record{Key: "complete-1", Action: core.ActionAdd}, Record{Key: "complete-2", Action: core.ActionRemove})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid write: keyLen=10 but only 3 bytes of key follow,
	// and no action byte.
	path := segmentPath(dir, 1)
	appendRaw(t, path, []byte{10, 'c', 'u', 't'})

	recs := replaySegmentRecords(t, path)
	if len(recs) != 2 || recs[0].Key != "complete-1" || recs[1].Key != "complete-2" {
		t.Fatalf("replayed %+v", recs)
	}
}

func TestCorruptHeaderAndRecords(t *testing.T) {
	dir := t.TempDir()
	replay := func(path string) (int, error) {
		return ReplaySegment(path, false, func(Record) error { return nil })
	}

	badHeader := filepath.Join(dir, "badheader.seg")
	if err := os.WriteFile(badHeader, []byte("NOPE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replay(badHeader); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad header error %v", err)
	}

	// A sealed segment whose header is cut short is corruption.
	truncatedHeader := filepath.Join(dir, "short.seg")
	if err := os.WriteFile(truncatedHeader, []byte("SW"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replay(truncatedHeader); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header error %v", err)
	}

	// A record with an absurd key length in the middle is corruption, not a
	// clean truncation — even in the tail segment, where a torn record is
	// tolerated.
	d, logDir := openTestDir(t, Options{})
	mustAppend(t, d, Record{Key: "fine", Action: core.ActionAdd})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	badRecord := segmentPath(logDir, 1)
	// keyLen uvarint far beyond MaxKeyLen.
	appendRaw(t, badRecord, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	n, err := ReplaySegment(badRecord, true, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd key length error %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records before corruption, want 1", n)
	}

	// So is a batch entry whose counts pass the bound no writer journals.
	d, logDir = openTestDir(t, Options{})
	mustAppend(t, d, Record{Key: "fine", Action: core.ActionAdd})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	badBatch := segmentPath(logDir, 1)
	appendRaw(t, badBatch, append(binary.AppendUvarint([]byte{0, 1, 1, 'x'}, core.MaxMagnitude+1), 0))
	n, err = ReplaySegment(badBatch, true, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) || n != 1 {
		t.Fatalf("batch entry past the bound: replayed %d records, error %v; want 1 and ErrCorrupt", n, err)
	}
}

func TestReplayCallbackErrorStops(t *testing.T) {
	d, dir := openTestDir(t, Options{})
	mustAppend(t, d, Record{Key: "a", Action: core.ActionAdd}, Record{Key: "b", Action: core.ActionAdd})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	sentinel := errors.New("stop")
	n, err := ReplaySegment(segmentPath(dir, 1), true, func(r Record) error {
		if r.Key == "b" {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 1 {
		t.Fatalf("ReplaySegment = %d, %v", n, err)
	}
}

func TestSyncEvery(t *testing.T) {
	d, dir := openTestDir(t, Options{SyncEvery: 2})
	// The second append crosses the threshold and asks its caller to Sync;
	// after that Sync a crash (no Close) must still leave both records
	// durable on disk.
	due, err := d.Append(Record{Key: "a", Action: core.ActionAdd})
	if err != nil || due {
		t.Fatalf("first append: due=%v err=%v", due, err)
	}
	due, err = d.Append(Record{Key: "b", Action: core.ActionAdd})
	if err != nil || !due {
		t.Fatalf("second append: due=%v err=%v", due, err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Do not close; replay from the same file.
	if recs := replaySegmentRecords(t, segmentPath(dir, 1)); len(recs) != 2 {
		t.Fatalf("replayed %d records after the due sync, want 2", len(recs))
	}
	d.Close()
}

func TestReplayRebuildsProfileState(t *testing.T) {
	d, dir := openTestDir(t, Options{})
	mustAppend(t, d,
		Record{Key: "x", Action: core.ActionAdd},
		Record{Key: "x", Action: core.ActionAdd},
		Record{Key: "y", Action: core.ActionAdd},
		Record{Key: "x", Action: core.ActionRemove},
	)
	if _, err := d.AppendBatch([]BatchEntry{{Key: "y", Adds: 3, Removes: 1}, {Key: "z", Adds: 2, Removes: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int64{}
	for _, r := range replaySegmentRecords(t, segmentPath(dir, 1)) {
		if r.Batch {
			counts[r.Key] += int64(r.Adds) - int64(r.Removes)
		} else {
			counts[r.Key] += int64(r.Action)
		}
	}
	if counts["x"] != 1 || counts["y"] != 3 || counts["z"] != 0 {
		t.Fatalf("rebuilt counts = %v", counts)
	}
}
