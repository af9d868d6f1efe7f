package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sprofile"
)

// newAsyncTestServer builds a server in async-ingest mode. The publish
// interval is kept short so tests that only read (without flushing) still
// converge quickly.
func newAsyncTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.AsyncIngest = true
	if cfg.AsyncFlushInterval == 0 {
		cfg.AsyncFlushInterval = time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postFlush(t *testing.T, ts *httptest.Server) (*http.Response, errorResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/admin/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out errorResponse
	decodeBody(t, resp, &out)
	return resp, out
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncServerIngestFlushRead pins the async read-your-write contract over
// HTTP: events POSTed, a flush barrier, then exact statistics.
func TestAsyncServerIngestFlushRead(t *testing.T) {
	_, ts := newAsyncTestServer(t, Config{Capacity: 100, Shards: 4})
	resp, out := postEvents(t, ts, `[
		{"object":"a","action":"add"},
		{"object":"a","action":"add"},
		{"object":"b","action":"add"}
	]`)
	if resp.StatusCode != http.StatusOK || out.Applied != 3 {
		t.Fatalf("events = %d %+v", resp.StatusCode, out)
	}
	if resp, ferr := postFlush(t, ts); resp.StatusCode != http.StatusOK || ferr.Error != "" {
		t.Fatalf("flush = %d %+v", resp.StatusCode, ferr)
	}
	var count entryResponse
	if resp := getJSON(t, ts, "/v1/stats/count?object=a", &count); resp.StatusCode != http.StatusOK {
		t.Fatalf("count status = %d", resp.StatusCode)
	}
	if count.Frequency != 2 {
		t.Fatalf("count(a) = %d, want 2", count.Frequency)
	}
	var mode entryResponse
	getJSON(t, ts, "/v1/stats/mode", &mode)
	if mode.Object != "a" || mode.Frequency != 2 {
		t.Fatalf("mode = %+v, want a@2", mode)
	}
}

// TestAsyncServerBulk drives the NDJSON fast path through the async plane.
func TestAsyncServerBulk(t *testing.T) {
	_, ts := newAsyncTestServer(t, Config{Capacity: 64, Shards: 2, MaxBatch: 16})
	var b strings.Builder
	for i := 0; i < 100; i++ {
		b.WriteString(`{"object":"k`)
		b.WriteString(string(rune('a' + i%8)))
		b.WriteString(`","action":"add"}` + "\n")
	}
	resp, err := http.Post(ts.URL+"/v1/events/bulk", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var out eventsResponse
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK || out.Applied != 100 {
		t.Fatalf("bulk = %d %+v", resp.StatusCode, out)
	}
	postFlush(t, ts)
	var summary map[string]any
	getJSON(t, ts, "/v1/stats/summary", &summary)
	if got := summary["total"].(float64); got != 100 {
		t.Fatalf("total = %v, want 100", got)
	}
}

// TestAsyncServerDeferredErrorOnFlush pins where stream-dependent errors
// surface in async mode: the enqueue is acknowledged, the flush reports the
// taxonomy class.
func TestAsyncServerDeferredErrorOnFlush(t *testing.T) {
	_, ts := newAsyncTestServer(t, Config{Capacity: 16, AsyncFlushInterval: time.Hour})
	resp, out := postEvents(t, ts, `{"object":"ghost","action":"remove"}`)
	if resp.StatusCode != http.StatusOK || out.Applied != 1 {
		t.Fatalf("async remove enqueue = %d %+v, want accepted", resp.StatusCode, out)
	}
	fresp, ferr := postFlush(t, ts)
	if fresp.StatusCode != http.StatusNotFound || ferr.Code != "unknown_key" {
		t.Fatalf("flush = %d %+v, want 404 unknown_key", fresp.StatusCode, ferr)
	}
	// The error was consumed; the next flush is clean.
	if fresp, ferr := postFlush(t, ts); fresp.StatusCode != http.StatusOK || ferr.Error != "" {
		t.Fatalf("second flush = %d %+v, want clean", fresp.StatusCode, ferr)
	}
}

// TestAsyncServerFailingEventKeepsTheRest pins that a deferred failure
// costs only its own event: the request's other events share the failing
// one's drained batch, were acknowledged, and must all land.
func TestAsyncServerFailingEventKeepsTheRest(t *testing.T) {
	_, ts := newAsyncTestServer(t, Config{Capacity: 128, Shards: 1, AsyncFlushInterval: time.Hour})
	const rounds = 20
	for i := 0; i < rounds; i++ {
		a, c := fmt.Sprintf("a%d", i), fmt.Sprintf("c%d", i)
		postEvents(t, ts, `{"object":"`+a+`","action":"add"}`)
		if fresp, ferr := postFlush(t, ts); fresp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: seeding flush = %d %+v", i, fresp.StatusCode, ferr)
		}
		resp, out := postEvents(t, ts, `[{"object":"`+a+`","action":"remove"},`+
			`{"object":"ghost","action":"remove"},{"object":"`+c+`","action":"add"}]`)
		if resp.StatusCode != http.StatusOK || out.Applied != 3 {
			t.Fatalf("round %d: events = %d %+v, want 200 applied 3", i, resp.StatusCode, out)
		}
		if fresp, ferr := postFlush(t, ts); fresp.StatusCode != http.StatusNotFound || ferr.Code != "unknown_key" {
			t.Fatalf("round %d: flush = %d %+v, want 404 unknown_key", i, fresp.StatusCode, ferr)
		}
	}
	for i := 0; i < rounds; i++ {
		for object, want := range map[string]int64{fmt.Sprintf("a%d", i): 0, fmt.Sprintf("c%d", i): 1} {
			var count entryResponse
			getJSON(t, ts, "/v1/stats/count?object="+object, &count)
			if count.Frequency != want {
				t.Fatalf("count(%s) = %d, want %d", object, count.Frequency, want)
			}
		}
	}
}

// TestAsyncServerHealthAndCheckpoint verifies the async health section and
// that a checkpoint taken through HTTP covers everything acknowledged before
// it (flush-before-snapshot), surviving a restart.
func TestAsyncServerHealthAndCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	srv, ts := newAsyncTestServer(t, Config{Capacity: 32, Shards: 2, WALPath: dir})
	for i := 0; i < 3; i++ {
		postEvents(t, ts, `{"object":"x","action":"add"}`)
	}
	var health healthResponse
	getJSON(t, ts, "/healthz", &health)
	if health.Async == nil {
		t.Fatalf("healthz has no async section: %+v", health)
	}
	if health.Async.Shards != 2 {
		t.Fatalf("async shards = %d, want 2", health.Async.Shards)
	}
	resp, err := http.Post(ts.URL+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status = %d", resp.StatusCode)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := New(Config{Capacity: 32, Shards: 2, WALPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	ts2 := httptest.NewServer(reopened)
	defer ts2.Close()
	var count entryResponse
	getJSON(t, ts2, "/v1/stats/count?object=x", &count)
	if count.Frequency != 3 {
		t.Fatalf("restored count(x) = %d, want 3", count.Frequency)
	}
}

// TestAsyncServerConcurrentIngest hammers the async server from several HTTP
// clients and checks the exact total after a flush — the plane's ordering
// and the 429 taxonomy are both live.
func TestAsyncServerConcurrentIngest(t *testing.T) {
	_, ts := newAsyncTestServer(t, Config{Capacity: 64, Shards: 4})
	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/events", "application/json",
					strings.NewReader(`{"object":"obj","action":"add"}`))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					mu.Lock()
					accepted++
					mu.Unlock()
				case http.StatusTooManyRequests:
					// Backpressure: rejected events are never applied.
				default:
					t.Errorf("status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	postFlush(t, ts)
	var count entryResponse
	getJSON(t, ts, "/v1/stats/count?object=obj", &count)
	if int(count.Frequency) != accepted {
		t.Fatalf("count = %d, want %d accepted", count.Frequency, accepted)
	}
}

// TestAsyncServerRejectsFollower pins the config validation: a follower
// ingests nothing locally, so async ingest is refused.
func TestAsyncServerRejectsFollower(t *testing.T) {
	_, err := New(Config{Capacity: 8, AsyncIngest: true, Follow: "http://localhost:1", WALPath: t.TempDir()})
	if err == nil {
		t.Fatal("New accepted AsyncIngest + Follow")
	}
}

// TestFlushOnSyncServer: without async ingest the endpoint degrades to a WAL
// sync and still reports flushed.
func TestFlushOnSyncServer(t *testing.T) {
	ts := newTestServer(t, 8)
	resp, out := postFlush(t, ts)
	if resp.StatusCode != http.StatusOK || out.Error != "" {
		t.Fatalf("flush on sync server = %d %+v", resp.StatusCode, out)
	}
}

// TestBackpressureWire pins the ErrBackpressure wire mapping without having
// to win a race against the appliers: status, code, and the Retry-After hint.
func TestBackpressureWire(t *testing.T) {
	status, code := errorCode(sprofile.ErrBackpressure)
	if status != http.StatusTooManyRequests || code != "backpressure" {
		t.Fatalf("errorCode(ErrBackpressure) = %d %q, want 429 backpressure", status, code)
	}
	rec := httptest.NewRecorder()
	writeProfileError(rec, sprofile.ErrBackpressure)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("writeProfileError status = %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1", rec.Header().Get("Retry-After"))
	}
}
