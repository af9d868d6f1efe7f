package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sprofile/internal/failpoint"
)

// newWALServer builds a leader with a WAL in a temp dir; the caller owns
// Close (some tests Shutdown instead).
func newWALServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Capacity == 0 {
		cfg.Capacity = 64
	}
	if cfg.WALPath == "" {
		cfg.WALPath = t.TempDir() + "/wal"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp, out
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDegradedModeEntryAndRecovery drives the full state machine: healthy →
// (persistent fsync failure) → degraded read-only → (disk recovers) →
// healthy, asserting the wire contract at every step.
func TestDegradedModeEntryAndRecovery(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	s, ts := newWALServer(t, Config{})
	defer s.Close()

	// Healthy baseline.
	if resp, out := postJSON(t, ts.URL+"/v1/events", `{"object":"a","action":"add"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy write = %d %+v", resp.StatusCode, out)
	}

	// The disk goes bad: every fsync fails until further notice.
	if err := failpoint.Enable("wal.sync", "error(enospc)"); err != nil {
		t.Fatal(err)
	}
	// The write that hits the failing fsync reports the append failure (the
	// event reached memory but not the log).
	if resp, _ := postJSON(t, ts.URL+"/v1/events", `{"object":"b","action":"add"}`); resp.StatusCode == http.StatusOK {
		t.Fatalf("write over failing fsync reported success")
	}

	// Every subsequent write is refused up front: 503, code degraded,
	// Retry-After, nothing applied.
	resp, out := postJSON(t, ts.URL+"/v1/events", `{"object":"c","action":"add"}`)
	if resp.StatusCode != http.StatusServiceUnavailable || out["code"] != "degraded" {
		t.Fatalf("degraded write = %d %+v, want 503 code=degraded", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded rejection missing Retry-After")
	}

	// Satellite: admin flush and checkpoint report the degradation, not a
	// misleading wal_append/checkpoint error.
	for _, path := range []string{"/v1/admin/flush", "/v1/admin/checkpoint"} {
		resp, out := postJSON(t, ts.URL+path, "")
		if resp.StatusCode != http.StatusServiceUnavailable || out["code"] != "degraded" {
			t.Fatalf("%s while degraded = %d %+v, want 503 code=degraded", path, resp.StatusCode, out)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s while degraded missing Retry-After", path)
		}
	}

	// Reads keep serving from the intact in-memory profile.
	if resp, _, errRes := postQuery(t, ts, `{"summary":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("read while degraded = %d %+v", resp.StatusCode, errRes)
	}

	// /healthz and the gauge report the impairment.
	var health map[string]any
	getJSON(t, ts, "/healthz", &health)
	if health["status"] != "degraded" || health["degraded"] != true {
		t.Fatalf("healthz while degraded = %+v", health)
	}
	if health["wal_error"] == nil {
		t.Fatalf("healthz while degraded missing wal_error: %+v", health)
	}
	if !strings.Contains(scrape(t, ts), "sprofile_degraded 1") {
		t.Fatalf("metrics do not report sprofile_degraded 1 while degraded")
	}

	// The disk recovers; the probe must roll the log and restore write
	// service well within the advertised 5s bound.
	failpoint.DisableAll()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, out := postJSON(t, ts.URL+"/v1/events", `{"object":"d","action":"add"}`)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes still refused 5s after the fault cleared: %d %+v", resp.StatusCode, out)
		}
		time.Sleep(50 * time.Millisecond)
	}
	getJSON(t, ts, "/healthz", &health)
	if health["status"] != "ok" || health["degraded"] != false {
		t.Fatalf("healthz after recovery = %+v", health)
	}
	if !strings.Contains(scrape(t, ts), "sprofile_degraded 0") {
		t.Fatalf("metrics do not report sprofile_degraded 0 after recovery")
	}
}

// TestShedGate fills the admission gate with a request that is parked on a
// held-open bulk body and asserts the next request is shed — while /healthz
// stays exempt.
func TestShedGate(t *testing.T) {
	s, err := New(Config{Capacity: 16, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/events/bulk", "application/x-ndjson", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()

	// Wait for the parked request to occupy the only slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("parked request never occupied the in-flight slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"summary":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || out["code"] != "shed" {
		t.Fatalf("request at capacity = %d %+v, want 503 code=shed", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed rejection missing Retry-After")
	}

	// Liveness and scraping bypass the gate.
	for _, path := range []string{"/healthz", "/metrics"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("%s while at capacity = %d, want 200", path, r2.StatusCode)
		}
	}

	// Release the parked request; the slot frees and service resumes.
	pw.Close()
	<-done
	r3, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"summary":true}`))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("request after release = %d, want 200", r3.StatusCode)
	}
}

// TestPanicRecovery mounts a panicking route behind the full middleware chain
// and asserts the client sees a clean 500 instead of a torn connection.
func TestPanicRecovery(t *testing.T) {
	s, err := New(Config{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	before := mPanics.Value()
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || out["code"] != "internal" {
		t.Fatalf("panicking route = %d %+v, want 500 code=internal", resp.StatusCode, out)
	}
	if got := mPanics.Value(); got != before+1 {
		t.Fatalf("sprofile_http_panics_total = %v, want %v", got, before+1)
	}

	// The server survives: the next request is served normally.
	r2, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"summary":true}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("request after panic = %d, want 200", r2.StatusCode)
	}
}

// TestWithDeadline pins the deadline wrapper's wire shape: a lapsed route
// answers 503 with code "deadline".
func TestWithDeadline(t *testing.T) {
	s, err := New(Config{Capacity: 16, RequestTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	slow := s.withDeadline(s.requestTimeout, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	rec := httptest.NewRecorder()
	slow.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/slow", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("lapsed route status = %d, want 503", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("lapsed route body %q: %v", rec.Body.String(), err)
	}
	if out["code"] != "deadline" {
		t.Fatalf("lapsed route code = %v, want deadline", out["code"])
	}

	// Negative RequestTimeout disables deadlines: the same slow handler,
	// wrapped through a disabled server, runs to completion.
	s2, err := New(Config{Capacity: 16, RequestTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	unbounded := s2.withDeadline(10*time.Millisecond, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	rec2 := httptest.NewRecorder()
	unbounded.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/slow", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("disabled deadline still timed out: %d", rec2.Code)
	}
}

// TestFailpointAdminEndpoint exercises the debug-gated runtime injection
// surface, and that the route does not exist without the gate.
func TestFailpointAdminEndpoint(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	s, ts := newWALServer(t, Config{DebugFailpoints: true})
	defer s.Close()

	// Arm a site over the wire.
	resp, out := postJSON(t, ts.URL+"/v1/admin/failpoint", `{"site":"wal.sync","spec":"error(eio):count=1"}`)
	if resp.StatusCode != http.StatusOK || out["armed"] != true {
		t.Fatalf("arming failpoint = %d %+v", resp.StatusCode, out)
	}

	// The armed site is listed.
	var sites []map[string]any
	getJSON(t, ts, "/v1/admin/failpoint", &sites)
	if len(sites) != 1 || sites[0]["site"] != "wal.sync" {
		t.Fatalf("failpoint list = %+v", sites)
	}

	// It fires: the next write's fsync fails once, degrading the node; the
	// probe then recovers it without operator action.
	if resp, _ := postJSON(t, ts.URL+"/v1/events", `{"object":"a","action":"add"}`); resp.StatusCode == http.StatusOK {
		t.Fatalf("write over armed failpoint succeeded")
	}

	// A malformed spec is a 400, not a 500.
	if resp, _ := postJSON(t, ts.URL+"/v1/admin/failpoint", `{"site":"x","spec":"nonsense(spec"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", resp.StatusCode)
	}

	// DELETE disarms everything.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/failpoint", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE failpoints = %d", dresp.StatusCode)
	}
	if got := failpoint.List(); len(got) != 0 {
		t.Fatalf("failpoints after DELETE: %+v", got)
	}

	// Without the gate the route does not exist.
	s2, ts2 := newWALServer(t, Config{})
	defer s2.Close()
	r2, err := http.Get(ts2.URL + "/v1/admin/failpoint")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("failpoint route without DebugFailpoints = %d, want 404", r2.StatusCode)
	}
}

// TestShutdownDrainOrder proves Shutdown settles the data plane: a final
// checkpoint is taken, and a restart replays nothing while reproducing every
// acknowledged event.
func TestShutdownDrainOrder(t *testing.T) {
	dir := t.TempDir() + "/wal"
	s, ts := newWALServer(t, Config{WALPath: dir})
	for i := 0; i < 3; i++ {
		if resp, out := postJSON(t, ts.URL+"/v1/events", `{"object":"k","action":"add"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("write = %d %+v", resp.StatusCode, out)
		}
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s2, err := New(Config{Capacity: 64, WALPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if replayed := s2.Replayed(); replayed != 0 {
		t.Fatalf("replayed %d entries after a drained shutdown, want 0 (final checkpoint covers the log)", replayed)
	}
	f, err := s2.prof().Count("k")
	if err != nil || f != 3 {
		t.Fatalf("Count(k) after restart = %d, %v; want 3", f, err)
	}
}
