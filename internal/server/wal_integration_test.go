package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sprofile/internal/wal"
)

func TestServerWALRecovery(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "events.wal")

	// First server lifetime: ingest a handful of events.
	s1, err := New(Config{Capacity: 100, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	resp, out := postEvents(t, ts1, `[
		{"object":"video-1","action":"add"},
		{"object":"video-1","action":"add"},
		{"object":"video-2","action":"add"},
		{"object":"video-2","action":"remove"}
	]`)
	if resp.StatusCode != http.StatusOK || out.Applied != 4 {
		t.Fatalf("ingest = %d %+v", resp.StatusCode, out)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if s1.Replayed() != 0 {
		t.Fatalf("first lifetime replayed %d records", s1.Replayed())
	}

	// Second lifetime: the profile must be rebuilt from the log.
	s2, err := New(Config{Capacity: 100, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The body was one chunk, journaled as its coalesced entries: video-1
	// (+2) and video-2 (+1 -1).
	if s2.Replayed() != 2 {
		t.Fatalf("second lifetime replayed %d records, want 2", s2.Replayed())
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	res := mustQuery(t, ts2, `{"mode":true,"count":["video-2"]}`)
	if res.Mode.Key != "video-1" || res.Mode.Frequency != 2 {
		t.Fatalf("mode after recovery = %+v", res.Mode)
	}
	if res.Counts[0].Frequency != 0 {
		t.Fatalf("count(video-2) after recovery = %+v", res.Counts[0])
	}

	// New events after recovery keep appending to the same log.
	postEvents(t, ts2, `[{"object":"video-3","action":"add"}]`)
	ts2.Close()
	s2.Close()

	s3, err := New(Config{Capacity: 100, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Replayed() != 3 {
		t.Fatalf("third lifetime replayed %d records, want 3", s3.Replayed())
	}
}

func TestServerWALRejectedEventsNotLogged(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "events.wal")
	s, err := New(Config{Capacity: 100, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	// The remove of an unknown object is rejected; the preceding add in the
	// same batch is applied and must be logged.
	postEvents(t, ts, `[
		{"object":"kept","action":"add"},
		{"object":"ghost","action":"remove"}
	]`)
	ts.Close()
	s.Close()

	s2, err := New(Config{Capacity: 100, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Replayed() != 1 {
		t.Fatalf("replayed %d records, want 1 (only the accepted event)", s2.Replayed())
	}
}

func TestServerWithoutWALHasNoLog(t *testing.T) {
	s, err := New(Config{Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.Replayed() != 0 {
		t.Fatalf("Replayed() = %d without a WAL", s.Replayed())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close without WAL: %v", err)
	}
}

func TestServerWALCorruptLogFailsStartup(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "corrupt.wal")
	if err := os.WriteFile(walPath, []byte("not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Capacity: 10, WALPath: walPath}); err == nil {
		t.Fatalf("startup succeeded with a corrupt WAL")
	}
}

// TestServerRefusesLegacyWAL: startup refuses every leftover of the retired
// single-file SWL1 log — the log at the WAL path, the staging file of an
// interrupted migration, and an SWL1-headered segment — with
// errors.ErrUnsupported and the last commit that can still migrate it.
func TestServerRefusesLegacyWAL(t *testing.T) {
	swl1 := []byte{'S', 'W', 'L', '1', 1, 'a', 0} // one add of "a"
	for name, leftover := range map[string]func(walPath string) string{
		"file at path":   func(walPath string) string { return walPath },
		"staging file":   func(walPath string) string { return walPath + ".legacy" },
		"segment header": func(walPath string) string { return filepath.Join(walPath, wal.SegmentName(1)) },
	} {
		walPath := filepath.Join(t.TempDir(), "events.wal")
		file := leftover(walPath)
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, swl1, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Capacity: 10, WALPath: walPath})
		if err == nil {
			s.Close()
			t.Fatalf("%s: startup succeeded on an SWL1 leftover", name)
		}
		if !errors.Is(err, errors.ErrUnsupported) || !strings.Contains(err.Error(), "3727a8a") {
			t.Fatalf("%s: New = %v, want errors.ErrUnsupported naming commit 3727a8a", name, err)
		}
	}
}

// TestServerCheckpointEndpoint drives the admin checkpoint across a restart:
// after POST /v1/admin/checkpoint, a new server lifetime must restore from
// the snapshot and replay only the events ingested after it.
func TestServerCheckpointEndpoint(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "events.wal")

	s1, err := New(Config{Capacity: 100, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	if resp, out := postEvents(t, ts1, `[
		{"object":"video-1","action":"add"},
		{"object":"video-1","action":"add"},
		{"object":"video-2","action":"add"}
	]`); resp.StatusCode != http.StatusOK || out.Applied != 3 {
		t.Fatalf("ingest = %d %+v", resp.StatusCode, out)
	}

	resp, err := http.Post(ts1.URL+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status = %d", resp.StatusCode)
	}
	// GET must be rejected.
	getResp, err := http.Get(ts1.URL + "/v1/admin/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET checkpoint status = %d, want 405", getResp.StatusCode)
	}

	if resp, out := postEvents(t, ts1, `{"object":"video-3","action":"add"}`); resp.StatusCode != http.StatusOK || out.Applied != 1 {
		t.Fatalf("tail ingest = %d %+v", resp.StatusCode, out)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Capacity: 100, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Replayed() != 1 {
		t.Fatalf("second lifetime replayed %d records, want 1 (only video-3)", s2.Replayed())
	}
	rec := s2.Recovery()
	if rec.SnapshotSeq != 1 || rec.SnapshotObjects != 2 || rec.SnapshotEvents != 3 {
		t.Fatalf("Recovery = %+v, want snapshot 1 with 2 objects / 3 events", rec)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	res := mustQuery(t, ts2, `{"count":["video-1"],"summary":true}`)
	if res.Counts[0].Frequency != 2 {
		t.Fatalf("recovered count(video-1) = %d, want 2", res.Counts[0].Frequency)
	}
	if got := res.Summary.Total; got != 4 {
		t.Fatalf("recovered total = %v, want 4", got)
	}
}

// TestServerCheckpointConfigValidation: checkpoint cadences without a WAL
// must be rejected at construction.
func TestServerCheckpointConfigValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 10, CheckpointEvery: time.Minute}); err == nil {
		t.Fatal("CheckpointEvery without WALPath accepted")
	}
	if _, err := New(Config{Capacity: 10, CheckpointBytes: 1024}); err == nil {
		t.Fatal("CheckpointBytes without WALPath accepted")
	}
	s, err := New(Config{
		Capacity:        10,
		WALPath:         filepath.Join(t.TempDir(), "w.wal"),
		CheckpointEvery: time.Minute,
		CheckpointBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCheckpointWithoutWAL: the admin endpoint on a WAL-less server
// reports a client error instead of crashing.
func TestServerCheckpointWithoutWAL(t *testing.T) {
	s, err := New(Config{Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("checkpoint without WAL status = %d, want 422", resp.StatusCode)
	}
}
