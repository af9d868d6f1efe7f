package wal

import (
	"os"
	"testing"

	"sprofile/internal/core"
)

func openTestDir(t *testing.T, opts Options) (*Dir, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenDir(dir, opts, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d, dir
}

func TestAppendBatchRoundTrip(t *testing.T) {
	d, dir := openTestDir(t, Options{})
	entries := []BatchEntry{
		{Key: "alpha", Adds: 3, Removes: 1},
		{Key: "beta", Adds: 0, Removes: 2},
		{Key: "gamma", Adds: 4, Removes: 4}, // cancelled out, still recorded
	}
	if _, err := d.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	// Interleave a single-event record to prove the two framings coexist.
	if _, err := d.Append(Record{Key: "delta", Action: core.ActionAdd}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	n, err := ReplayDir(dir, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d records, want 4", n)
	}
	want := []Record{
		{Key: "alpha", Batch: true, Adds: 3, Removes: 1},
		{Key: "beta", Batch: true, Removes: 2},
		{Key: "gamma", Batch: true, Adds: 4, Removes: 4},
		{Key: "delta", Action: core.ActionAdd},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestAppendBatchValidates(t *testing.T) {
	d, dir := openTestDir(t, Options{})
	if _, err := d.AppendBatch([]BatchEntry{{Key: "", Adds: 1}}); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := d.AppendBatch([]BatchEntry{{Key: "x"}}); err == nil {
		t.Fatal("zero-count entry accepted")
	}
	// A key the read path would reject as corrupt must never be written:
	// journaling it would poison the log for every later replay.
	huge := string(make([]byte, MaxKeyLen+1))
	if _, err := d.AppendBatch([]BatchEntry{{Key: huge, Adds: 1}}); err == nil {
		t.Fatal("oversized key accepted by AppendBatch")
	}
	if _, err := d.Append(Record{Key: huge, Action: core.ActionAdd}); err == nil {
		t.Fatal("oversized key accepted by Append")
	}
	// Neither are counts past the bound a profile takes in one delta.
	for _, e := range []BatchEntry{{Key: "x", Adds: core.MaxMagnitude + 1}, {Key: "x", Removes: 1 << 63}} {
		if _, err := d.AppendBatch([]BatchEntry{e}); err == nil {
			t.Fatalf("entry %+v accepted", e)
		}
	}
	// Rejected batches must leave the stream clean for later appends.
	if _, err := d.AppendBatch([]BatchEntry{{Key: "ok", Adds: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayDir(dir, func(Record) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("replayed %d records (%v), want exactly the valid one", n, err)
	}
}

func TestAppendBatchSyncEveryCountsEntries(t *testing.T) {
	d, _ := openTestDir(t, Options{SyncEvery: 4})
	due, err := d.AppendBatch([]BatchEntry{{Key: "a", Adds: 1}, {Key: "b", Adds: 1}})
	if err != nil || due {
		t.Fatalf("2 entries: due=%v err=%v", due, err)
	}
	due, err = d.AppendBatch([]BatchEntry{{Key: "c", Adds: 1}, {Key: "d", Adds: 1}})
	if err != nil || !due {
		t.Fatalf("4 entries total: due=%v err=%v", due, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBatchOneFsync(t *testing.T) {
	d, _ := openTestDir(t, Options{})
	base := d.Fsyncs()
	if _, err := d.AppendBatch([]BatchEntry{
		{Key: "a", Adds: 100}, {Key: "b", Adds: 50, Removes: 10}, {Key: "c", Removes: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.Fsyncs(); got != base {
		t.Fatalf("append issued %d fsyncs", got-base)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.Fsyncs() - base; got != 1 {
		t.Fatalf("batch cost %d fsyncs, want 1", got)
	}
	// A second Sync with nothing new appended is group-commit deduplicated.
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.Fsyncs() - base; got != 1 {
		t.Fatalf("idempotent sync fsynced again: %d total", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornBatchTruncatedOnReopen(t *testing.T) {
	d, dir := openTestDir(t, Options{})
	if _, err := d.AppendBatch([]BatchEntry{{Key: "keep", Adds: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear a batch record onto the tail by hand.
	segs, err := ListSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[0].Path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 3, 1, 'x', 5}) // 3 entries promised, first one torn
	f.Close()

	segs, err = ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(dir, Options{}, &segs[0], segs[0].ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Append(Record{Key: "after", Action: core.ActionAdd}); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	if _, err := ReplayDir(dir, func(r Record) error {
		keys = append(keys, r.Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "keep" || keys[1] != "after" {
		t.Fatalf("recovered keys %v, want [keep after]", keys)
	}
}
