package sprofile

import (
	"io"
	"net/http"
	"sync"

	"sprofile/internal/metrics"
)

// Build identity, stamped by the linker:
//
//	go build -ldflags "-X sprofile.Version=v1.2.3 -X sprofile.Commit=abc1234"
//
// Unstamped builds report "dev"/"unknown" — still a valid build_info series,
// so dashboards can tell stamped deployments from ad-hoc binaries.
var (
	Version = "dev"
	Commit  = "unknown"
)

// MetricsContentType is the Content-Type of WriteMetrics' output (Prometheus
// text exposition format v0.0.4).
const MetricsContentType = metrics.ContentType

// WriteMetrics renders every registered metric family — ingest, WAL,
// checkpoint, replication, query plane, HTTP server and Go
// runtime — in Prometheus text exposition format. Embedders mount it wherever
// their scrape endpoint lives; the bundled server serves it at GET /metrics.
func WriteMetrics(w io.Writer) error { return metrics.Default().Write(w) }

// MetricsHandler returns an http.Handler serving WriteMetrics with the right
// Content-Type — a ready-made GET /metrics endpoint for embedders that run
// their own mux.
func MetricsHandler() http.Handler { return metrics.Default().Handler() }

// SetMetricsEnabled switches every instrumentation point in the library on or
// off at runtime. Disabled, each would-be update is one atomic load and a
// branch; collected values freeze rather than reset.
func SetMetricsEnabled(on bool) { metrics.SetEnabled(on) }

// MetricsEnabled reports whether instrumentation points currently record.
func MetricsEnabled() bool { return metrics.Enabled() }

// Keyed ingest families. The batch path records at batch granularity; the
// single-event paths count inside stripe locks they already hold, so the
// lock-free hot paths never gain an instrumentation branch beyond one atomic.
var (
	mIngestEvents = metrics.Default().CounterVec("sprofile_ingest_events_total",
		"Keyed events accepted, by ingest path.", "path")
	mIngestEventsSingle = mIngestEvents.With("keyed_event")
	mIngestEventsBatch  = mIngestEvents.With("keyed_batch")
	mIngestBatchEvents  = metrics.Default().Histogram("sprofile_ingest_batch_events",
		"Events per keyed ApplyBatch call (pre-coalescing).", metrics.SizeBuckets())
	mIngestBatchKeys = metrics.Default().Counter("sprofile_ingest_batch_distinct_keys_total",
		"Distinct keys per keyed batch, summed — rate against events for the keyed coalescing ratio.")
)

// Replica-side replication families. The counters live in
// internal/replication next to the code that moves the bytes; these gauges
// need the KeyedFollower's Status (lag arithmetic, promote handling), so they
// aggregate over live followers per scrape.
var (
	mReplRebootstraps = metrics.Default().Counter("sprofile_replication_rebootstraps_total",
		"Replica rebuilds from a fresh leader snapshot (mirror wiped and re-bootstrapped).")
	mReplLagBytes = metrics.Default().Gauge("sprofile_replication_lag_bytes",
		"Worst byte lag across live followers; -1 means one or more whole segments behind.")
	mReplStaleness = metrics.Default().Gauge("sprofile_replication_staleness_seconds",
		"Worst staleness bound across live followers (doubt, not confirmed lag).")
	mReplCaughtUp = metrics.Default().Gauge("sprofile_replication_caught_up",
		"1 when every live follower covers the leader's append position, else 0.")
)

// followerLive tracks every open KeyedFollower for the scrape hook above.
var followerLive struct {
	sync.Mutex
	next uint64
	set  map[uint64]func() ReplicationStatus
}

func registerFollower(status func() ReplicationStatus) (unregister func()) {
	followerLive.Lock()
	defer followerLive.Unlock()
	if followerLive.set == nil {
		followerLive.set = make(map[uint64]func() ReplicationStatus)
	}
	followerLive.next++
	id := followerLive.next
	followerLive.set[id] = status
	return func() {
		followerLive.Lock()
		delete(followerLive.set, id)
		followerLive.Unlock()
	}
}

func scrapeFollowers() {
	followerLive.Lock()
	status := make([]func() ReplicationStatus, 0, len(followerLive.set))
	for _, f := range followerLive.set {
		status = append(status, f)
	}
	followerLive.Unlock()
	if len(status) == 0 {
		return // leave the gauges at their last values; no follower to report
	}
	var lag, staleMs int64
	caughtUp := true
	for _, f := range status {
		st := f()
		if st.Role == "leader" { // promoted: permanently caught up
			continue
		}
		if st.LagBytes < 0 || lag < 0 {
			lag = -1 // whole segments behind dominates any byte figure
		} else if st.LagBytes > lag {
			lag = st.LagBytes
		}
		if st.StalenessMs > staleMs {
			staleMs = st.StalenessMs
		}
		if !st.CaughtUp {
			caughtUp = false
		}
	}
	mReplLagBytes.Set(float64(lag))
	mReplStaleness.Set(float64(staleMs) / 1e3)
	if caughtUp {
		mReplCaughtUp.Set(1)
	} else {
		mReplCaughtUp.Set(0)
	}
}

func init() {
	metrics.Default().OnScrape(scrapeFollowers)
	metrics.Default().GaugeVec("sprofile_build_info",
		"Build identity; the value is always 1, the labels carry it.",
		"version", "commit").With(Version, Commit).Set(1)
}
