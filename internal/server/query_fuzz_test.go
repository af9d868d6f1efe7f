package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sprofile"
)

// queryErrorCodes is every code a 4xx answer may carry: the taxonomy codes
// of errorCode and the request-level codes of statusCode.
var queryErrorCodes = map[string]bool{
	"unknown_key": true, "invalid_query": true,
	"invalid_action": true, "out_of_range": true, "strict_violation": true,
	"empty_profile": true, "unprocessable": true, "bad_request": true,
	"method_not_allowed": true,
}

// FuzzQueryDocument posts arbitrary bytes as a POST /v1/query document to a
// fixed small server and holds the endpoint to four laws:
//
//   - it never panics and never answers 5xx;
//   - every 4xx carries a taxonomy or request code;
//   - a 200 was earned: the body strictly decodes (no unknown fields, one
//     value) to a KeyedQuery within the query limits, and the answer
//     decodes to a KeyedQueryResult;
//   - re-posting the query's canonical re-encoding returns a byte-identical
//     answer, so the decoder saw exactly the query the bytes spell.
//
// The seeds are the documents of query_test.go plus trailing-data and
// malformed cases.
func FuzzQueryDocument(f *testing.F) {
	const limit = 8
	s, err := New(Config{Capacity: 16, MaxBatch: limit})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	seed := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader([]byte(`[
		{"object":"a","action":"add"},{"object":"a","action":"add"},{"object":"a","action":"add"},
		{"object":"b","action":"add"},{"object":"b","action":"add"},{"object":"c","action":"add"}]`)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, seed)
	if rec.Code != http.StatusOK {
		f.Fatalf("seeding events: %d %s", rec.Code, rec.Body)
	}

	for _, doc := range []string{
		`{"count": ["a", "ghost"], "mode": true, "min": true, "top_k": 2, "median": true,
		  "quantiles": [0, 1], "majority": true, "distribution": true, "summary": true}`,
		`{"modes": true}`,
		`{"top_k": -1}`,
		`{"kth_largest": [99]}`,
		`{"top_k": 5}`,
		`{"bottom_k": 9}`,
		`{"mode":true,"min":true,"top_k":1,"quantiles":[1],"distribution":true,"summary":true}`,
		`{"summary":true} {"mode":true}`,
		`{"quantiles": [0.5, 1.5]}`,
		`{"count": ["é", "a"], "TOP_K": 1}`,
		`null`,
		`{}`,
		``,
		`[`,
	} {
		f.Add([]byte(doc))
	}

	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(body)
		switch {
		case rec.Code >= 500:
			t.Fatalf("5xx for %q: %d %s", body, rec.Code, rec.Body)
		case rec.Code >= 400:
			var out errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || !queryErrorCodes[out.Code] {
				t.Fatalf("%d for %q carries no taxonomy or request code: %s", rec.Code, body, rec.Body)
			}
			return
		case rec.Code != http.StatusOK:
			t.Fatalf("unexpected status %d for %q", rec.Code, body)
		}

		var q sprofile.KeyedQuery[string]
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			t.Fatalf("200 for a body that does not decode strictly: %q: %v", body, err)
		}
		if _, err := dec.Token(); !errors.Is(err, io.EOF) {
			t.Fatalf("200 for a body with data after the query: %q", body)
		}
		for _, n := range []int{len(q.Count), len(q.Quantiles), len(q.KthLargest), q.TopK, q.BottomK} {
			if n > limit {
				t.Fatalf("200 for a query over the %d-entry limit: %q", limit, body)
			}
		}
		var res sprofile.KeyedQueryResult[string]
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("200 answer does not decode: %v: %s", err, rec.Body)
		}

		canonical, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		again := post(canonical)
		if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("re-encoded query answered differently:\n body %q\n canonical %s\n first %s\n again %d %s",
				body, canonical, rec.Body, again.Code, again.Body)
		}
	})
}
