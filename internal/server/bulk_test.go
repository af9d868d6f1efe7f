package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

func postBulk(t *testing.T, ts *httptest.Server, body string) (*http.Response, eventsResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/events/bulk", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out eventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, out
}

func TestBulkIngestsNDJSON(t *testing.T) {
	ts := newTestServer(t, 100)
	body := strings.Join([]string{
		`{"object":"alice","action":"add"}`,
		``, // blank lines are skipped
		`{"object":"bob","action":"add"}`,
		`{"object":"alice","action":"add"}`,
		`{"object":"alice","action":"add"}`,
		`{"object":"bob","action":"remove"}`,
	}, "\n")
	resp, out := postBulk(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out.Error)
	}
	if out.Applied != 5 {
		t.Fatalf("applied %d events, want 5", out.Applied)
	}
	if f := countOf(t, ts, "alice"); f != 3 {
		t.Fatalf("alice at %d, want 3", f)
	}
	if f := countOf(t, ts, "bob"); f != 0 {
		t.Fatalf("bob at %d, want 0", f)
	}
}

func TestBulkChunksLargeStreams(t *testing.T) {
	// MaxBatch 8 forces several ApplyBatch chunks inside one request.
	s, err := New(Config{Capacity: 100, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var sb strings.Builder
	const n = 100
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `{"object":"hot","action":"add"}`+"\n")
	}
	resp, out := postBulk(t, ts, sb.String())
	if resp.StatusCode != http.StatusOK || out.Applied != n {
		t.Fatalf("status %d applied %d (%s), want %d", resp.StatusCode, out.Applied, out.Error, n)
	}
	if f := countOf(t, ts, "hot"); f != n {
		t.Fatalf("hot at %d, want %d", f, n)
	}
}

func TestBulkRejectsBadLines(t *testing.T) {
	ts := newTestServer(t, 100)
	for _, tc := range []struct {
		name, body, wantErr string
		wantApplied         int
	}{
		// The valid first line sits in the same (never-flushed) chunk as the
		// bad line, so it is not applied: decode errors reject the pending
		// chunk whole.
		{"bad json", `{"object":"a","action":"add"}` + "\n" + `{nope}`, "line 2", 0},
		{"unknown field", `{"object":"a","wat":1}`, "line 1", 0},
		{"empty object", `{"object":"","action":"add"}`, "empty object", 0},
		{"bad action", `{"object":"a","action":"sideways"}`, "unknown action", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := postBulk(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if !strings.Contains(out.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", out.Error, tc.wantErr)
			}
			if out.Applied != tc.wantApplied {
				t.Fatalf("applied %d, want %d", out.Applied, tc.wantApplied)
			}
		})
	}
	// An object key the WAL could not journal is refused up front with its
	// line number, instead of poisoning a configured log.
	huge := strings.Repeat("k", (1<<20)+1)
	resp2, out2 := postBulk(t, ts, `{"object":"`+huge+`","action":"add"}`)
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(out2.Error, "exceeds") {
		t.Fatalf("oversized key: status %d error %q", resp2.StatusCode, out2.Error)
	}
	// The same bound applies to the per-event endpoint.
	resp3, out3 := postEvents(t, ts, `{"object":"`+huge+`","action":"add"}`)
	if resp3.StatusCode != http.StatusBadRequest || !strings.Contains(out3.Error, "exceeds") {
		t.Fatalf("oversized key per-event: status %d error %q", resp3.StatusCode, out3.Error)
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/events/bulk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

func TestBulkRemoveUnknownKey(t *testing.T) {
	ts := newTestServer(t, 100)
	resp, out := postBulk(t, ts, `{"object":"ghost","action":"remove"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%s)", resp.StatusCode, out.Error)
	}
}

// TestBulkDurable round-trips a bulk ingest through a WAL restart.
func TestBulkDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := New(Config{Capacity: 100, WALPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	body := strings.Join([]string{
		`{"object":"alice","action":"add"}`,
		`{"object":"alice","action":"add"}`,
		`{"object":"bob","action":"add"}`,
	}, "\n")
	resp, out := postBulk(t, ts, body)
	if resp.StatusCode != http.StatusOK || out.Applied != 3 {
		t.Fatalf("status %d applied %d (%s)", resp.StatusCode, out.Applied, out.Error)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Capacity: 100, WALPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if f := countOf(t, ts2, "alice"); f != 2 {
		t.Fatalf("alice recovered at %d, want 2", f)
	}
}
