package server

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sprofile"
	"sprofile/internal/metrics"
)

// serverStart anchors /healthz's uptime_seconds.
var serverStart = time.Now()

// HTTP and query plane families. Requests are labeled by the routing table's
// own patterns (an unknown path renders as "other", so path cardinality is
// bounded by the API surface); the query histogram is labeled by the set of
// statistics the composite query selected, bounded by the vec's cardinality
// cap.
var (
	mHTTPRequests = metrics.Default().CounterVec("sprofile_http_requests_total",
		"HTTP requests served, by method, route and status class.",
		"method", "route", "status")
	mHTTPSeconds = metrics.Default().HistogramVec("sprofile_http_request_seconds",
		"End-to-end request latency by route.", metrics.LatencyBuckets(), "route")
	mQuerySeconds = metrics.Default().HistogramVec("sprofile_query_seconds",
		"Composite query evaluation latency, labeled by the selected statistic set.",
		metrics.LatencyBuckets(), "stats")
	mQueryStatistics = metrics.Default().CounterVec("sprofile_query_statistics_total",
		"How often each statistic was selected across composite queries.", "stat")
)

// knownRoutes is the closed set of route labels; it must track routes().
var knownRoutes = map[string]bool{
	"/healthz": true, "/metrics": true,
	"/v1/events": true, "/v1/events/bulk": true, "/v1/query": true,
	"/v1/admin/checkpoint": true, "/v1/admin/flush": true, "/v1/admin/promote": true,
	"/v1/admin/failpoint": true, "/v1/export": true, "/v1/import": true,
	"/v1/replication/snapshot": true, "/v1/replication/wal": true,
}

func routeLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	return "other"
}

// statusRecorder captures the status a handler wrote (200 when it only wrote
// a body, net/http's implicit default).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// instrument wraps the routed mux: one counter bump and one latency
// observation per request, labeled by the routing table's pattern.
func (s *Server) instrument(next http.Handler, w http.ResponseWriter, r *http.Request) {
	route := routeLabel(r.URL.Path)
	rec := &statusRecorder{ResponseWriter: w}
	start := time.Now()
	next.ServeHTTP(rec, r)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	mHTTPRequests.With(r.Method, route, strconv.Itoa(rec.status)).Inc()
	mHTTPSeconds.With(route).ObserveSince(start)
}

// queryStatNames lists which statistics q selects, in a canonical order, for
// the per-statistic counters and the statistic-set histogram label.
func queryStatNames(q sprofile.KeyedQuery[string]) []string {
	var names []string
	if len(q.Count) > 0 {
		names = append(names, "count")
	}
	if q.Mode {
		names = append(names, "mode")
	}
	if q.Min {
		names = append(names, "min")
	}
	if q.TopK > 0 {
		names = append(names, "top_k")
	}
	if q.BottomK > 0 {
		names = append(names, "bottom_k")
	}
	if len(q.KthLargest) > 0 {
		names = append(names, "kth_largest")
	}
	if q.Median {
		names = append(names, "median")
	}
	if len(q.Quantiles) > 0 {
		names = append(names, "quantiles")
	}
	if q.Majority {
		names = append(names, "majority")
	}
	if q.Distribution {
		names = append(names, "distribution")
	}
	if q.Summary {
		names = append(names, "summary")
	}
	sort.Strings(names)
	return names
}

// observeQuery records one composite query evaluation.
func observeQuery(q sprofile.KeyedQuery[string], start time.Time) {
	names := queryStatNames(q)
	for _, n := range names {
		mQueryStatistics.With(n).Inc()
	}
	label := "none"
	if len(names) > 0 {
		label = strings.Join(names, "+")
	}
	mQuerySeconds.With(label).ObserveSince(start)
}
