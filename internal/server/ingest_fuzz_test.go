package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sprofile"
)

// The write-route fuzzer's vocabulary: five keys against a capacity of three,
// so cap_exceeded and recycling both occur, the empty key, every action
// spelling the server accepts and one it rejects.
var (
	fuzzKeys    = []string{"a", "b", "c", "d", "e", ""}
	fuzzActions = []string{"add", "remove", "+", "-", "1", "-1", "bogus"}
)

// ingestErrorCodes is every code a rejected write may carry: the taxonomy
// codes a chunk's validation or apply step produces and the request-level
// bad_request.
var ingestErrorCodes = map[string]bool{
	"invalid_action": true, "out_of_range": true, "unknown_key": true,
	"strict_violation": true, "cap_exceeded": true, "bad_request": true,
}

// FuzzIngestRoutes is a differential fuzzer for the write routes. Each input
// becomes up to 32 events, two bytes per event. They are posted as one JSON
// array to /v1/events on one fresh server and as NDJSON to /v1/events/bulk
// on another, both with Capacity 3 and Shards 1. The reference is
// BuildKeyed[string](3, WithSharding(1)) with one ApplyBatch when every event
// is valid, and nothing applied otherwise. The laws:
//
//   - no panic, and no 5xx but the 507 cap_exceeded of a full profile;
//   - every rejection carries a known code;
//   - both routes agree on status, code and applied, and match the
//     reference: the first invalid event's class with nothing applied, or
//     the reference's own applied count and error class;
//   - both servers and the reference end in the same state, read as the
//     counts of the alphabet, the distribution and the summary.
func FuzzIngestRoutes(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 0, 0, 1, 2, 2, 4},       // a a b c: all valid, one key repeated
		{0, 0, 1, 0, 2, 0, 3, 0},       // four keys into three slots: cap_exceeded
		{0, 0, 0, 1, 1, 0, 2, 0, 3, 0}, // a cancels out, so d recycles its slot
		{1, 1, 0, 0},                   // remove of an unknown key
		{0, 0, 0, 1, 0, 3},             // a below zero: a strict violation
		{0, 0, 1, 6, 2, 0},             // a bad action mid-body
		{0, 0, 5, 0},                   // an empty key
		{5, 6},                         // an empty key with a bad action
		{0, 0, 0, 1, 0, 1, 0, 0},       // a dips below zero but nets to zero
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events := make([]Event, 0, 32)
		for i := 0; i+1 < len(data) && len(events) < 32; i += 2 {
			events = append(events, Event{
				Object: fuzzKeys[int(data[i])%len(fuzzKeys)],
				Action: fuzzActions[int(data[i+1])%len(fuzzActions)],
			})
		}
		ref, err := sprofile.BuildKeyed[string](3, sprofile.WithSharding(1))
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		want, wantStatus := eventsResponse{}, http.StatusOK
		tuples := make([]sprofile.KeyedTuple[string], 0, len(events))
		valid := true
		for _, e := range events {
			tu, err := parseEvent(e.Object, e.Action)
			if err != nil {
				wantStatus, want.Code = errorCode(err)
				valid = false
				break
			}
			tuples = append(tuples, tu)
		}
		if valid {
			n, err := ref.ApplyBatch(tuples)
			want.Applied = n
			if err != nil {
				wantStatus, want.Code = errorCode(err)
			}
		}
		refState, err := ref.QueryKeys(fuzzStateQuery)
		if err != nil {
			t.Fatal(err)
		}

		var array, ndjson bytes.Buffer
		if err := json.NewEncoder(&array).Encode(events); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&ndjson)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
		for _, route := range []struct {
			path string
			body []byte
		}{{"/v1/events", array.Bytes()}, {"/v1/events/bulk", ndjson.Bytes()}} {
			s, err := New(Config{Capacity: 3, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.path, bytes.NewReader(route.body)))
			var got eventsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s answered %d with an undecodable body: %s", route.path, rec.Code, rec.Body)
			}
			switch {
			case rec.Code >= 500 && (rec.Code != http.StatusInsufficientStorage || got.Code != "cap_exceeded"):
				t.Fatalf("%s answered %d for %q: %s", route.path, rec.Code, events, rec.Body)
			case rec.Code >= 400 && !ingestErrorCodes[got.Code]:
				t.Fatalf("%s answered %d with unknown code %q", route.path, rec.Code, got.Code)
			}
			if rec.Code != wantStatus || got.Code != want.Code || got.Applied != want.Applied {
				t.Fatalf("%s for %q = %d %+v, want %d with code %q and %d applied",
					route.path, events, rec.Code, got, wantStatus, want.Code, want.Applied)
			}
			state := httptest.NewRecorder()
			s.ServeHTTP(state, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(fuzzStateBody)))
			var gotState sprofile.KeyedQueryResult[string]
			if err := json.Unmarshal(state.Body.Bytes(), &gotState); err != nil || state.Code != http.StatusOK {
				t.Fatalf("state query after %s = %d %s", route.path, state.Code, state.Body)
			}
			if !reflect.DeepEqual(gotState, refState) {
				t.Fatalf("%s for %q left state\n %+v\nwant the reference's\n %+v", route.path, events, gotState, refState)
			}
		}
	})
}

// fuzzStateQuery reads a profile's whole state over the fuzz alphabet;
// fuzzStateBody is its wire form.
var (
	fuzzStateQuery = sprofile.KeyedQuery[string]{Count: fuzzKeys, Distribution: true, Summary: true}
	fuzzStateBody  = func() string {
		b, err := json.Marshal(fuzzStateQuery)
		if err != nil {
			panic(err)
		}
		return string(b)
	}()
)
