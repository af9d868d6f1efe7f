package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T, capacity int) *httptest.Server {
	t.Helper()
	s, err := New(Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func postEvents(t *testing.T, ts *httptest.Server, body string) (*http.Response, eventsResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
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

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Fatalf("New accepted zero capacity")
	}
	if _, err := New(Config{Capacity: -5}); err == nil {
		t.Fatalf("New accepted negative capacity")
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, 10)
	var out map[string]any
	resp := getJSON(t, ts, "/healthz", &out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, out)
	}
	if _, ok := out["uptime_seconds"].(float64); !ok {
		t.Fatalf("healthz missing uptime_seconds: %+v", out)
	}
	if v, ok := out["version"].(string); !ok || v == "" {
		t.Fatalf("healthz missing version: %+v", out)
	}
}

// TestFlushOnSyncServer: POST /v1/admin/flush syncs the WAL and reports
// flushed, on a server with a WAL and on one without.
func TestFlushOnSyncServer(t *testing.T) {
	_, walTS := newWALServer(t, Config{})
	for _, ts := range []*httptest.Server{newTestServer(t, 8), walTS} {
		if resp, out := postEvents(t, ts, `{"object":"k","action":"add"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("write = %d %+v", resp.StatusCode, out)
		}
		if resp, out := postJSON(t, ts.URL+"/v1/admin/flush", ""); resp.StatusCode != http.StatusOK || out["flushed"] != true {
			t.Fatalf("flush = %d %+v", resp.StatusCode, out)
		}
	}
}

func TestIngestAndStats(t *testing.T) {
	ts := newTestServer(t, 100)
	events := `[
		{"object":"video-1","action":"add"},
		{"object":"video-1","action":"add"},
		{"object":"video-1","action":"add"},
		{"object":"video-2","action":"add"},
		{"object":"video-2","action":"add"},
		{"object":"video-3","action":"add"},
		{"object":"video-3","action":"remove"}
	]`
	resp, out := postEvents(t, ts, events)
	if resp.StatusCode != http.StatusOK || out.Applied != 7 {
		t.Fatalf("events: %d, %+v", resp.StatusCode, out)
	}

	res := mustQuery(t, ts, `{"mode":true,"top_k":2,"count":["video-2","never-seen"],
		"median":true,"quantiles":[1],"distribution":true}`)
	if res.Mode.Key != "video-1" || res.Mode.Frequency != 3 {
		t.Fatalf("mode = %+v", res.Mode)
	}
	if len(res.TopK) != 2 {
		t.Fatalf("top = %+v", res.TopK)
	}
	if res.TopK[0].Key != "video-1" || res.TopK[0].Frequency != 3 {
		t.Fatalf("top[0] = %+v", res.TopK[0])
	}
	if res.TopK[1].Key != "video-2" || res.TopK[1].Frequency != 2 {
		t.Fatalf("top[1] = %+v", res.TopK[1])
	}
	if res.Counts[0].Frequency != 2 {
		t.Fatalf("count = %+v", res.Counts[0])
	}
	if res.Counts[1].Frequency != 0 {
		t.Fatalf("count of unknown object = %+v", res.Counts[1])
	}
	if res.Median == nil {
		t.Fatalf("median missing: %+v", res)
	}
	if res.Quantiles[0].Frequency != 3 {
		t.Fatalf("quantile(1) = %+v", res.Quantiles[0])
	}
	if len(res.Distribution) == 0 {
		t.Fatalf("distribution = %+v", res.Distribution)
	}
	// tracked rides with the summary and only with it.
	if res.Tracked != nil {
		t.Fatalf("tracked = %d without the summary selected", *res.Tracked)
	}

	res = mustQuery(t, ts, `{"summary": true}`)
	if res.Tracked == nil || *res.Tracked != 3 {
		t.Fatalf("summary tracked = %v, want 3", res.Tracked)
	}
	if res.Summary.Total != 5 {
		t.Fatalf("summary total = %v, want 5", res.Summary.Total)
	}
}

func TestIngestValidation(t *testing.T) {
	ts := newTestServer(t, 10)

	resp, _ := postEvents(t, ts, `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid JSON accepted: %d", resp.StatusCode)
	}

	resp, out := postEvents(t, ts, `[{"object":"","action":"add"}]`)
	if resp.StatusCode != http.StatusBadRequest || out.Applied != 0 {
		t.Fatalf("empty object accepted: %d %+v", resp.StatusCode, out)
	}

	resp, out = postEvents(t, ts, `[{"object":"a","action":"maybe"}]`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad action accepted: %d %+v", resp.StatusCode, out)
	}

	// Removing an object that was never added resolves to ErrUnknownKey:
	// 404 with the unknown_key taxonomy code.
	resp, out = postEvents(t, ts, `[{"object":"ghost","action":"remove"}]`)
	if resp.StatusCode != http.StatusNotFound || out.Code != "unknown_key" {
		t.Fatalf("remove of unknown object: %d %+v", resp.StatusCode, out)
	}

	// One body is one chunk: an invalid event rejects the whole body, and
	// the valid events before it are not applied either.
	resp, out = postEvents(t, ts, `[
		{"object":"a","action":"add"},
		{"object":"b","action":"add"},
		{"object":"c","action":"nope"}
	]`)
	if resp.StatusCode != http.StatusBadRequest || out.Code != "invalid_action" || out.Applied != 0 {
		t.Fatalf("partial batch: %d %+v, want 400 invalid_action with 0 applied", resp.StatusCode, out)
	}
	for _, object := range []string{"a", "b"} {
		if f := countOf(t, ts, object); f != 0 {
			t.Fatalf("count(%s) = %d after a rejected body, want 0", object, f)
		}
	}
}

func TestSingleEventForm(t *testing.T) {
	ts := newTestServer(t, 10)
	// The package doc promises "one event or a batch": the single-object
	// form must be accepted, not bounced with a misleading array error.
	resp, out := postEvents(t, ts, `{"object":"solo","action":"add"}`)
	if resp.StatusCode != http.StatusOK || out.Applied != 1 {
		t.Fatalf("single event = %d %+v", resp.StatusCode, out)
	}
	resp, out = postEvents(t, ts, `[{"object":"solo","action":"add"}]`)
	if resp.StatusCode != http.StatusOK || out.Applied != 1 {
		t.Fatalf("array event = %d %+v", resp.StatusCode, out)
	}
	if f := countOf(t, ts, "solo"); f != 2 {
		t.Fatalf("count after both forms = %d", f)
	}
	// A single malformed object is still rejected.
	resp, _ = postEvents(t, ts, `{"object":"solo","action":"add","extra":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}
	resp, _ = postEvents(t, ts, `{"object":"solo"`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated object accepted: %d", resp.StatusCode)
	}
}

func TestMinBottomMajority(t *testing.T) {
	ts := newTestServer(t, 4)
	resp, out := postEvents(t, ts, `[
		{"object":"a","action":"add"},
		{"object":"a","action":"add"},
		{"object":"a","action":"add"},
		{"object":"b","action":"add"}
	]`)
	if resp.StatusCode != http.StatusOK || out.Applied != 4 {
		t.Fatalf("ingest = %d %+v", resp.StatusCode, out)
	}

	res := mustQuery(t, ts, `{"min":true,"bottom_k":3,"majority":true}`)
	// Two of four slots are untracked, so the minimum frequency is zero with
	// two ties.
	if res.Min.Frequency != 0 || res.Min.Ties != 2 {
		t.Fatalf("min = %+v, want frequency 0 with 2 ties", res.Min)
	}
	if bottom := res.BottomK; len(bottom) != 3 || bottom[0].Frequency != 0 || bottom[2].Frequency != 1 {
		t.Fatalf("bottom = %+v", bottom)
	}
	if resp, _, errRes := postQuery(t, ts, `{"bottom_k":-1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bottom_k -1 = %d %+v", resp.StatusCode, errRes)
	}

	// a holds 3 of 4 counts: a strict majority.
	if maj := res.Majority; !maj.Majority || maj.Key != "a" || maj.Frequency != 3 {
		t.Fatalf("majority = %+v", maj)
	}

	// Level the counts: no strict majority any more.
	postEvents(t, ts, `[{"object":"b","action":"add"},{"object":"b","action":"add"}]`)
	if maj := mustQuery(t, ts, `{"majority":true}`).Majority; maj.Majority {
		t.Fatalf("majority after levelling = %+v, want none", maj)
	}
}

// TestParallelIngestAndQuery hammers the mutex-free hot path from many
// goroutines — writers on disjoint keys, readers asking for every statistic
// and the export — and then verifies no update was lost. With -race this doubles as the
// server-layer concurrency conformance test.
func TestParallelIngestAndQuery(t *testing.T) {
	ts := newTestServer(t, 1000)
	const writers = 8
	const readers = 4
	const perWriter = 60
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				body := fmt.Sprintf(`{"object":"w%d-%d","action":"add"}`, w, i%10)
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("writer %d: status %d", w, resp.StatusCode)
					return
				}
			}
			errCh <- nil
		}(w)
	}
	// Each read is a query (POST) or the export (GET, empty body).
	reads := []string{
		`{"mode":true}`, `{"min":true}`, `{"top_k":5}`, `{"bottom_k":5}`,
		`{"median":true}`, `{"quantiles":[0.9]}`, `{"majority":true}`,
		`{"distribution":true}`, `{"summary":true}`, "",
	}
	for rdr := 0; rdr < readers; rdr++ {
		go func(rdr int) {
			for i := 0; i < 40; i++ {
				read := reads[(rdr+i)%len(reads)]
				var resp *http.Response
				var err error
				if read == "" {
					resp, err = http.Get(ts.URL + "/v1/export")
				} else {
					resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(read))
				}
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("reader: %q -> %d", read, resp.StatusCode)
					return
				}
			}
			errCh <- nil
		}(rdr)
	}
	for i := 0; i < writers+readers; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	summary := mustQuery(t, ts, `{"summary":true}`).Summary
	if got := summary.Adds; got != writers*perWriter {
		t.Fatalf("adds = %v, want %d", got, writers*perWriter)
	}
	if got := summary.Total; got != writers*perWriter {
		t.Fatalf("total = %v, want %d", got, writers*perWriter)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	ts := newTestServer(t, 2)
	postEvents(t, ts, `[{"object":"a","action":"add"},{"object":"b","action":"add"}]`)
	resp, out := postEvents(t, ts, `[{"object":"c","action":"add"}]`)
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-capacity add: %d %+v", resp.StatusCode, out)
	}
}

func TestBatchLimit(t *testing.T) {
	s, err := New(Config{Capacity: 10, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := `[
		{"object":"a","action":"add"},
		{"object":"b","action":"add"},
		{"object":"c","action":"add"}
	]`
	resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch accepted: %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, 10)
	resp, err := http.Post(ts.URL+"/healthz", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/events = %d, want 405", resp.StatusCode)
	}
}

// TestFormerStatsRoutesAnswer404 pins that POST /v1/query is the only read
// route: no path of the single-statistic GET routes it replaced is served,
// and their requests count under the "other" route label.
func TestFormerStatsRoutesAnswer404(t *testing.T) {
	ts := newTestServer(t, 10)
	postEvents(t, ts, `[{"object":"a","action":"add"}]`)
	for _, path := range []string{
		"/v1/stats/mode", "/v1/stats/min", "/v1/stats/top?k=2", "/v1/stats/bottom?k=2",
		"/v1/stats/count?object=a", "/v1/stats/median", "/v1/stats/quantile?q=0.5",
		"/v1/stats/majority", "/v1/stats/distribution", "/v1/stats/summary",
		"/v1/stats/rank?object=a",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		if label := routeLabel(strings.SplitN(path, "?", 2)[0]); label != "other" {
			t.Errorf("route label of %s = %q, want other", path, label)
		}
	}
}

// TestQueryParamValidation: k and q are query-document fields. A negative
// or mistyped k and a mistyped q are refused with 400; a q outside [0, 1]
// is clamped, as the Quantile getter clamps it.
func TestQueryParamValidation(t *testing.T) {
	ts := newTestServer(t, 10)
	postEvents(t, ts, `[{"object":"a","action":"add"}]`)
	for _, body := range []string{
		`{"top_k":-1}`,
		`{"top_k":"abc"}`,
		`{"quantiles":["abc"]}`,
		// k is bounded by MaxBatch (default 10 000), like the query lists.
		`{"top_k":10001}`,
		`{"bottom_k":10001}`,
	} {
		if resp, _, errRes := postQuery(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /v1/query %s = %d %+v, want 400", body, resp.StatusCode, errRes)
		}
	}
	if q := mustQuery(t, ts, `{"quantiles":[2]}`).Quantiles[0]; q.Q != 2 || q.Frequency != 1 {
		t.Fatalf("q = 2 answered %+v, want the q = 1 entry", q)
	}
	// k = MaxBatch answers, clamped to the capacity of 10.
	res := mustQuery(t, ts, `{"top_k":10000,"bottom_k":10000}`)
	if len(res.TopK) != 10 || len(res.BottomK) != 10 {
		t.Fatalf("k = MaxBatch answered %d top and %d bottom entries, want 10 each", len(res.TopK), len(res.BottomK))
	}
}

func TestConcurrentClients(t *testing.T) {
	ts := newTestServer(t, 1000)
	const clients = 8
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(id int) {
			for i := 0; i < 50; i++ {
				body := fmt.Sprintf(`[{"object":"user-%d-%d","action":"add"}]`, id, i%20)
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if i%10 == 0 {
					r, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"mode":true}`))
					if err != nil {
						errCh <- err
						return
					}
					r.Body.Close()
				}
			}
			errCh <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if got := mustQuery(t, ts, `{"summary":true}`).Summary.Adds; got != clients*50 {
		t.Fatalf("adds = %v, want %d", got, clients*50)
	}
}

// TestDecodersRejectTrailingData pins that every request decoder reads
// exactly one JSON value: a second value or trailing garbage is a 400 with
// the code other malformed bodies get, and nothing of the body is applied.
// Trailing whitespace stays accepted.
func TestDecodersRejectTrailingData(t *testing.T) {
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"ndjson line with two events", "/v1/events/bulk",
			`{"object":"a","action":"add"} {"object":"b","action":"add"}` + "\n", http.StatusBadRequest},
		{"events array then array", "/v1/events",
			`[{"object":"a","action":"add"}] [{"object":"b","action":"add"}]`, http.StatusBadRequest},
		{"event then garbage", "/v1/events", `{"object":"a","action":"add"} garbage`, http.StatusBadRequest},
		{"event then closing bracket", "/v1/events", `{"object":"a","action":"add"}]`, http.StatusBadRequest},
		{"query then query", "/v1/query", `{"summary":true} {"mode":true}`, http.StatusBadRequest},
		{"import then garbage", "/v1/import", `{"objects":[{"object":"a","frequency":2}]} x`, http.StatusBadRequest},
		{"ndjson line with trailing space", "/v1/events/bulk", "{\"object\":\"a\",\"action\":\"add\"} \t\n", http.StatusOK},
		{"events with trailing newline", "/v1/events", "[{\"object\":\"a\",\"action\":\"add\"}]\r\n ", http.StatusOK},
		{"query with trailing newline", "/v1/query", "{\"summary\":true}\n", http.StatusOK},
		{"import with trailing newline", "/v1/import", "{\"objects\":[{\"object\":\"a\",\"frequency\":2}]}\n", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTestServer(t, 8)
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var out errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d %+v, want %d", resp.StatusCode, out, tc.status)
			}
			summary := mustQuery(t, ts, `{"summary":true}`).Summary
			if tc.status != http.StatusOK {
				if out.Code != "bad_request" {
					t.Fatalf("code = %q, want bad_request", out.Code)
				}
				if total := summary.Total; total != 0 {
					t.Fatalf("rejected body applied %v events", total)
				}
			}
		})
	}
}
