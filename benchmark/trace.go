package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the index of the span that caused this one, or -1. Self is
// the duration minus the time the span's children cover.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write stores them when the run ends. A nil
// tracer records nothing, which is how untraced runs stay untraced.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a span and returns its index (-1 on a nil tracer).
func (t *tracer) record(name string, req uint64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return len(t.spans) - 1
}

// sdkOps names the spans recorded around the client SDK calls of the live
// phase.
var sdkOps = map[string]bool{"client.send_events": true, "client.bulk_ingest": true, "client.query": true}

// finish links every server.serve span to the SDK call span of its request
// and computes self times. Call it once recording has stopped.
func (t *tracer) finish() {
	client := map[uint64]int{}
	for i, s := range t.spans {
		if sdkOps[s.Name] {
			client[s.Req] = i
		}
	}
	children := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == "server.serve" {
			if p, ok := client[s.Req]; ok {
				s.Parent = p
			}
		}
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - children[i]
	}
}

// selfTotal sums the self time of the spans with the given name, optionally
// only those of the requests in reqs.
func (t *tracer) selfTotal(name string, reqs map[uint64]bool) (n int, total time.Duration) {
	for _, s := range t.spans {
		if s.Name == name && (reqs == nil || reqs[s.Req]) {
			n++
			total += time.Duration(s.Self)
		}
	}
	return n, total
}

// write stores the spans as JSON in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// headerRequestID joins a client span to the server.serve span of the same
// request.
const headerRequestID = "X-Bench-Request-Id"

type reqIDKey struct{}

// withRequestID tags ctx so the tracing transport sends the id.
func withRequestID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// idTransport adds the request id header to traced requests.
type idTransport struct{ next http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(reqIDKey{}).(uint64)
	if !ok {
		return t.next.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(headerRequestID, strconv.FormatUint(id, 10))
	return t.next.RoundTrip(r)
}

// serveSpans wraps the server's handler and records a server.serve span for
// every request that carries a request id.
func serveSpans(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := r.Header.Get(headerRequestID)
		if raw == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		id, _ := strconv.ParseUint(raw, 10, 64)
		t.record("server.serve", id, -1, start, time.Now())
	})
}
