package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sprofile"
)

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, sprofile.KeyedQueryResult[string], errorResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res sprofile.KeyedQueryResult[string]
	var errRes errorResponse
	var decodeErr error
	if resp.StatusCode == http.StatusOK {
		decodeErr = json.NewDecoder(resp.Body).Decode(&res)
	} else {
		decodeErr = json.NewDecoder(resp.Body).Decode(&errRes)
	}
	if decodeErr != nil {
		t.Fatalf("decoding /v1/query response: %v", decodeErr)
	}
	return resp, res, errRes
}

// mustQuery posts a composite query and fails the test unless it answers 200.
func mustQuery(t *testing.T, ts *httptest.Server, body string) sprofile.KeyedQueryResult[string] {
	t.Helper()
	resp, res, errRes := postQuery(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/query %s = %d %+v", body, resp.StatusCode, errRes)
	}
	return res
}

// countOf reads one key's count through POST /v1/query.
func countOf(t *testing.T, ts *httptest.Server, key string) int64 {
	t.Helper()
	body, err := json.Marshal(sprofile.KeyedQuery[string]{Count: []string{key}})
	if err != nil {
		t.Fatal(err)
	}
	return mustQuery(t, ts, string(body)).Counts[0].Frequency
}

// TestQueryEndpoint drives one composite query through POST /v1/query and
// checks every requested statistic against the ingested truth.
func TestQueryEndpoint(t *testing.T) {
	ts := newTestServer(t, 10)
	for _, body := range []string{
		`[{"object":"a","action":"add"},{"object":"a","action":"add"},{"object":"a","action":"add"}]`,
		`[{"object":"b","action":"add"},{"object":"b","action":"add"}]`,
		`[{"object":"c","action":"add"}]`,
	} {
		resp, out := postEvents(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding events: %d %+v", resp.StatusCode, out)
		}
	}

	resp, res, _ := postQuery(t, ts, `{
		"count": ["a", "ghost"],
		"mode": true,
		"min": true,
		"top_k": 2,
		"median": true,
		"quantiles": [0, 1],
		"majority": true,
		"distribution": true,
		"summary": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if len(res.Counts) != 2 || res.Counts[0].Key != "a" || res.Counts[0].Frequency != 3 {
		t.Fatalf("counts = %+v", res.Counts)
	}
	if res.Counts[1].Key != "ghost" || res.Counts[1].Frequency != 0 {
		t.Fatalf("unknown key count = %+v, want frequency 0", res.Counts[1])
	}
	if res.Mode == nil || res.Mode.Key != "a" || res.Mode.Frequency != 3 || res.Mode.Ties != 1 {
		t.Fatalf("mode = %+v", res.Mode)
	}
	if res.Min == nil || res.Min.Frequency != 0 {
		t.Fatalf("min = %+v", res.Min)
	}
	if len(res.TopK) != 2 || res.TopK[0].Key != "a" || res.TopK[1].Key != "b" {
		t.Fatalf("top_k = %+v", res.TopK)
	}
	if len(res.Quantiles) != 2 || res.Quantiles[0].Q != 0 || res.Quantiles[1].Frequency != 3 {
		t.Fatalf("quantiles = %+v", res.Quantiles)
	}
	if res.Majority == nil || res.Majority.Majority {
		t.Fatalf("majority = %+v, want present and false", res.Majority)
	}
	if res.Median == nil || len(res.Distribution) == 0 || res.Summary == nil {
		t.Fatalf("median/distribution/summary missing: %+v", res)
	}
	if res.Summary.Total != 6 {
		t.Fatalf("summary total = %d, want 6", res.Summary.Total)
	}
	// The distribution and the summary must describe the same cut.
	var total int64
	for _, fc := range res.Distribution {
		total += fc.Freq * int64(fc.Count)
	}
	if total != res.Summary.Total {
		t.Fatalf("distribution sums to %d but summary total is %d", total, res.Summary.Total)
	}
}

// TestQueryEndpointErrors pins the taxonomy → status code mapping of the
// query endpoint and its neighbours.
func TestQueryEndpointErrors(t *testing.T) {
	ts := newTestServer(t, 4)

	// Malformed JSON and unknown fields are plain bad requests.
	resp, _, errRes := postQuery(t, ts, `{"modes": true}`)
	if resp.StatusCode != http.StatusBadRequest || errRes.Code != "bad_request" {
		t.Fatalf("unknown field: %d %+v", resp.StatusCode, errRes)
	}

	// A malformed selection is invalid_query.
	resp, _, errRes = postQuery(t, ts, `{"top_k": -1}`)
	if resp.StatusCode != http.StatusBadRequest || errRes.Code != "invalid_query" {
		t.Fatalf("negative top_k: %d %+v", resp.StatusCode, errRes)
	}
	resp, _, errRes = postQuery(t, ts, `{"kth_largest": [99]}`)
	if resp.StatusCode != http.StatusBadRequest || errRes.Code != "invalid_query" {
		t.Fatalf("kth_largest out of range: %d %+v", resp.StatusCode, errRes)
	}

	// GET is not allowed.
	getResp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status %d", getResp.StatusCode)
	}

	// Strict violation: removing a known key at frequency zero is 409.
	for _, body := range []string{
		`[{"object":"a","action":"add"}]`,
		`[{"object":"a","action":"remove"}]`,
		`[{"object":"a","action":"remove"}]`,
	} {
		resp, out := postEvents(t, ts, body)
		if out.Error != "" && resp.StatusCode != http.StatusConflict {
			t.Fatalf("expected 409 strict violation, got %d %+v", resp.StatusCode, out)
		}
		if resp.StatusCode == http.StatusConflict && out.Code != "strict_violation" {
			t.Fatalf("conflict code = %q, want strict_violation", out.Code)
		}
	}
}

// TestQueryEndpointBoundsTopK: top_k and bottom_k size the answer and are
// bounded by MaxBatch like the query lists, so one request cannot ask for an
// unbounded amount of work under every stripe and shard lock.
func TestQueryEndpointBoundsTopK(t *testing.T) {
	s, err := New(Config{Capacity: 16, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	postEvents(t, ts, `[{"object":"a","action":"add"},{"object":"b","action":"add"}]`)

	for _, field := range []string{"top_k", "bottom_k"} {
		resp, _, errRes := postQuery(t, ts, `{"`+field+`": 5}`)
		if resp.StatusCode != http.StatusBadRequest || errRes.Code != "bad_request" {
			t.Fatalf("%s = MaxBatch+1: %d %+v, want 400 bad_request", field, resp.StatusCode, errRes)
		}
		resp, res, _ := postQuery(t, ts, `{"`+field+`": 4}`)
		if resp.StatusCode != http.StatusOK || len(res.TopK)+len(res.BottomK) != 4 {
			t.Fatalf("%s = MaxBatch: %d %+v, want 200 with 4 entries", field, resp.StatusCode, res)
		}
	}
}

// TestQueryEndpointAtomicUnderIngest hammers the server with concurrent
// ingest while issuing composite queries, and requires every answer to be
// internally consistent — invariants that only hold when all statistics come
// from one cut.
func TestQueryEndpointAtomicUnderIngest(t *testing.T) {
	ts := newTestServer(t, 64)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := []string{"w", "x", "y", "z"}
			for i := 0; !stop.Load(); i++ {
				key := keys[(i+g)%len(keys)]
				resp, err := http.Post(ts.URL+"/v1/events", "application/json",
					strings.NewReader(`{"object":"`+key+`","action":"add"}`))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		resp, res, errRes := postQuery(t, ts, `{"mode":true,"min":true,"top_k":1,"quantiles":[1],"distribution":true,"summary":true}`)
		if resp.StatusCode != http.StatusOK {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("query status %d: %+v", resp.StatusCode, errRes)
		}
		if res.Mode.Frequency != res.Summary.MaxFrequency {
			t.Errorf("mode %d != summary max %d (different cuts)", res.Mode.Frequency, res.Summary.MaxFrequency)
		}
		if res.TopK[0].Frequency != res.Mode.Frequency {
			t.Errorf("top_k[0] %d != mode %d", res.TopK[0].Frequency, res.Mode.Frequency)
		}
		if res.Quantiles[0].Frequency != res.Summary.MaxFrequency {
			t.Errorf("q=1 %d != summary max %d", res.Quantiles[0].Frequency, res.Summary.MaxFrequency)
		}
		var total int64
		for _, fc := range res.Distribution {
			total += fc.Freq * int64(fc.Count)
		}
		if total != res.Summary.Total {
			t.Errorf("distribution sums to %d but summary total is %d", total, res.Summary.Total)
		}
	}
	stop.Store(true)
	wg.Wait()
}
