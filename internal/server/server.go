// Package server exposes a keyed S-Profile over HTTP, realising the paper's
// claim that the profiler "can be plugged into most of log streams in many
// systems": producers POST (object, action) events as they happen, and
// dashboards or alerting jobs query the statistics — mode, top-K, quantiles,
// the whole frequency distribution — at any time, each answered in constant
// time from the maintained profile.
//
// The API is deliberately small and JSON-only:
//
//	POST /v1/events              one event or a batch of events
//	POST /v1/events/bulk         NDJSON stream of events
//	POST /v1/query               one composite multi-statistic query,
//	                             answered atomically from one cut
//	POST /v1/admin/checkpoint    snapshot the profile and truncate the WAL
//	POST /v1/admin/flush         durability barrier: sync the WAL
//	GET  /v1/export              every tracked object and its frequency
//	POST /v1/import              add an export document's counts
//	GET  /healthz                liveness probe
//
// Writes: /v1/events and /v1/events/bulk validate their events and apply
// them through ApplyBatch in chunks of at most MaxBatch; one /v1/events body
// is one chunk. An invalid event (bad action, empty or oversized object)
// rejects its whole chunk with 400 and its taxonomy code, while earlier
// chunks stay applied. Strict non-negativity is checked on each key's net
// delta within a chunk, and a key that fails to apply leaves only itself
// unapplied ("applied" counts the rest). /v1/import validates every entry
// first (a frequency past core.MaxMagnitude refuses the document) and then
// applies each as one ApplyDelta of its frequency, so its cost does not
// grow with the frequencies; a failing entry, one that would take the
// profile's adds past the bound among them, leaves only itself unapplied.
// Every write route answers only after its group-commit fsync.
//
// Reads: POST /v1/query is the one read route; every statistic, the number
// of tracked keys included, is a field of one QueryKeys answer.
//
// Concurrency: the server holds no lock of its own. Handlers call a
// sprofile.KeyedConcurrent directly — a chunk locks its keys' stripes and
// shards one stripe at a time, a query quiesces every stripe for its one
// cut — so requests for different keys proceed in parallel and readers are
// never blocked behind a writer's fsync. A concurrent reader may observe a
// chunk partially applied; every answer is still one consistent cut.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sprofile"
	"sprofile/internal/replication"
	"sprofile/internal/wal"
)

// Config parameterises a Server.
type Config struct {
	// Capacity is the maximum number of concurrently tracked objects. Up
	// front it costs 8 bytes per 4096 slots for the id map's chunk
	// pointers. The dense profile's rank arrays cost 12 bytes per
	// materialised id: each shard materialises the ids its keys use, low
	// ids first, and grows geometrically. Each tracked object then costs 23
	// to 33 bytes in the id map (an index slot at 3/8 to 3/4 load plus a
	// 12-byte key-table entry, allocated 4096 ids at a time), plus its key's
	// bytes in a pointer-free page, plus 4 bytes while its count is zero.
	Capacity int
	// Shards sets how many independently locked profile shards (and id-mapper
	// stripes, kept aligned with them) the dense-id space is split across.
	// Zero selects one shard per CPU — the right default now that ingestion
	// runs concurrently; use 1 to force a single lock domain.
	Shards int
	// MaxBatch bounds how many events one POST may carry; zero selects the
	// default of 10 000.
	MaxBatch int
	// WALPath, when non-empty, makes ingested events durable: they are
	// appended to a write-ahead log directory at this path and replayed
	// into the profile when the server starts. A single-file log left at
	// this path by an older version is refused, and so are its migration
	// leftovers (see README "Persistence & recovery").
	WALPath string
	// CheckpointEvery, when positive, checkpoints the profile on that
	// cadence: a snapshot is written into the WAL directory and the log
	// segments it covers are deleted, bounding restart time and disk use.
	// Requires WALPath. Zero disables time-triggered checkpoints; manual
	// ones via POST /v1/admin/checkpoint always work.
	CheckpointEvery time.Duration
	// CheckpointBytes, when positive, additionally checkpoints whenever the
	// WAL tail grows past this many bytes. Requires WALPath.
	CheckpointBytes int64
	// Follow, when non-empty, starts the server as a read-only follower of
	// the leader at this base URL: WALPath becomes the local mirror directory
	// (bootstrapped from the leader's snapshot, then tailed continuously),
	// reads are served locally with a staleness watermark, and writes are
	// refused with 503 + a leader hint until POST /v1/admin/promote turns the
	// replica into a leader. Requires WALPath.
	Follow string
	// FollowPoll is the long-poll wait asked of the leader per tail fetch;
	// zero selects the sprofile default (20s).
	FollowPoll time.Duration
	// MaxInFlight bounds concurrently served requests; excess requests are
	// shed at admission with 503 code "shed" and a Retry-After instead of
	// queueing. Zero selects the default (1024); negative disables the gate.
	// /healthz and /metrics are exempt so probes and scrapes still answer
	// under overload.
	MaxInFlight int
	// RequestTimeout is the per-route response deadline; a lapsed route
	// answers 503 code "deadline". Zero selects the default (15s); negative
	// disables deadlines. Streaming routes (bulk ingest, export/import,
	// replication transfers) are never bounded, and the replication
	// long-poll route gets the long-poll window plus slack.
	RequestTimeout time.Duration
	// DebugFailpoints registers POST /v1/admin/failpoint, the runtime
	// fault-injection surface. For chaos rigs and tests only — never enable
	// it on a production node.
	DebugFailpoints bool
}

// Server is the HTTP facade over a concurrent keyed profile. It is safe for
// concurrent use with no server-level mutex: all synchronisation lives in
// the profile's stripe and shard locks, so the ingest and query hot paths
// never serialise on each other.
type Server struct {
	profile  *sprofile.KeyedConcurrent[string]
	follower *sprofile.KeyedFollower // non-nil in follower mode (stays set after promote)
	leader   string                  // leader base URL (follower mode)
	walPath  string
	maxBatch int
	mux      *http.ServeMux

	// Request-plane guard rails (middleware.go).
	inflight        chan struct{} // admission gate; nil disables shedding
	requestTimeout  time.Duration // per-route deadline; <= 0 disables
	debugFailpoints bool          // register /v1/admin/failpoint

	// Degraded read-only mode (degrade.go).
	degraded        atomic.Bool
	degradeStop     chan struct{}
	degradeDone     chan struct{}
	degradeStopOnce sync.Once
}

// initGuards sizes the admission gate and deadlines from cfg; shared by the
// leader and follower constructors.
func (s *Server) initGuards(cfg Config) {
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = defaultMaxInFlight
	}
	if maxInFlight > 0 {
		s.inflight = make(chan struct{}, maxInFlight)
	}
	s.requestTimeout = cfg.RequestTimeout
	if s.requestTimeout == 0 {
		s.requestTimeout = defaultRequestTimeout
	}
	s.debugFailpoints = cfg.DebugFailpoints
}

// prof resolves the profile serving this request. In leader mode it is fixed;
// in follower mode it is the replica behind an atomic pointer, which swaps on
// rebootstrap and on promote — handlers therefore resolve it per request and
// never cache it across requests.
func (s *Server) prof() *sprofile.KeyedConcurrent[string] {
	if s.follower != nil {
		return s.follower.Profile()
	}
	return s.profile
}

// readOnly reports whether this server must refuse writes (an unpromoted
// follower: its profile is driven by the leader's WAL, and a local write
// would silently diverge from it).
func (s *Server) readOnly() bool {
	return s.follower != nil && !s.follower.Promoted()
}

// errConfig is the package's construction-time sentinel: every invalid
// Config combination New refuses wraps it, so embedders can errors.Is for
// the whole class. It never crosses the wire — by the time the server
// serves, the configuration was valid.
var errConfig = errors.New("server: invalid configuration")

// New returns a Server with the given configuration. When Config.WALPath is
// set, any events already in the log are replayed into the profile before the
// server starts accepting requests.
func New(cfg Config) (*Server, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("%w: capacity must be positive, got %d", errConfig, cfg.Capacity)
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 10_000
	}
	// BuildKeyed enforces strict non-negative counts (recycling keyed
	// profiles require them) and aligns the mapper stripes with the shards;
	// its default when WithSharding is absent is one shard per CPU, which is
	// exactly what Config.Shards <= 0 selects.
	var buildOpts []sprofile.BuildOption
	if cfg.Shards > 0 {
		buildOpts = append(buildOpts, sprofile.WithSharding(cfg.Shards))
	}
	if cfg.Follow != "" {
		return newFollowerServer(cfg, buildOpts, maxBatch)
	}
	if cfg.WALPath != "" {
		buildOpts = append(buildOpts, sprofile.WithWAL(cfg.WALPath))
	}
	if cfg.CheckpointEvery > 0 || cfg.CheckpointBytes > 0 {
		if cfg.WALPath == "" {
			return nil, fmt.Errorf("%w: checkpointing requires a WAL path", errConfig)
		}
		buildOpts = append(buildOpts, sprofile.WithCheckpoints(sprofile.CheckpointPolicy{
			Every:      cfg.CheckpointEvery,
			EveryBytes: cfg.CheckpointBytes,
		}))
	}
	keyed, err := sprofile.BuildKeyed[string](cfg.Capacity, buildOpts...)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		profile:  keyed,
		walPath:  cfg.WALPath,
		maxBatch: maxBatch,
		mux:      http.NewServeMux(),
	}
	s.initGuards(cfg)
	s.routes()
	s.startDegradeWatcher()
	return s, nil
}

// newFollowerServer builds the read-only replica variant of New: the profile
// is a KeyedFollower continuously mirroring cfg.Follow into cfg.WALPath.
func newFollowerServer(cfg Config, buildOpts []sprofile.BuildOption, maxBatch int) (*Server, error) {
	if cfg.WALPath == "" {
		return nil, fmt.Errorf("%w: follower mode requires a WAL path for the local mirror", errConfig)
	}
	// Checkpoint options only make sense on a leader; they take effect when
	// (if) this follower is promoted.
	var promoteOpts []sprofile.BuildOption
	if cfg.CheckpointEvery > 0 || cfg.CheckpointBytes > 0 {
		promoteOpts = append(promoteOpts, sprofile.WithCheckpoints(sprofile.CheckpointPolicy{
			Every:      cfg.CheckpointEvery,
			EveryBytes: cfg.CheckpointBytes,
		}))
	}
	kf, err := sprofile.NewKeyedFollower(sprofile.FollowerConfig{
		Capacity: cfg.Capacity,
		Leader:   cfg.Follow,
		Dir:      cfg.WALPath,
		LongPoll: cfg.FollowPoll,
		Build:    buildOpts,
		Promote:  promoteOpts,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	kf.Start()
	s := &Server{
		follower: kf,
		leader:   cfg.Follow,
		walPath:  cfg.WALPath,
		maxBatch: maxBatch,
		mux:      http.NewServeMux(),
	}
	s.initGuards(cfg)
	s.routes()
	s.startDegradeWatcher()
	return s, nil
}

// Replayed returns the number of WAL tail entries replayed at startup (one
// per single-event record, one per key of a batch record) — with
// checkpointing, only the entries after the last snapshot.
func (s *Server) Replayed() int { return s.prof().Replayed() }

// Recovery returns the startup recovery breakdown: how much state the
// checkpoint snapshot restored outright and how much log tail was replayed.
func (s *Server) Recovery() sprofile.RecoveryStats { return s.prof().Recovery() }

// Close stops background checkpointing and closes the write-ahead log, if
// one is configured. In follower mode it stops the replication loop and
// closes the mirror.
func (s *Server) Close() error {
	s.stopDegradeWatcher()
	if s.follower != nil {
		return s.follower.Close()
	}
	return s.prof().Close()
}

// Shutdown is the drain-ordered stop. The listener half — stop accepting,
// drain in-flight requests with a timeout — belongs to the http.Server
// wrapping this handler (call its Shutdown first); this half then settles
// the data plane in order: take a final checkpoint, which covers every
// acknowledged event, so the next start replays (almost) nothing, then
// close the WAL. The final checkpoint is skipped when ctx is already done
// or the node is degraded (the checkpoint would only fail against the sick
// disk); every later step still runs. The first error is returned, but an
// error never short-circuits the close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopDegradeWatcher()
	if s.follower != nil {
		return s.follower.Close()
	}
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if _, ok := s.prof().WALStats(); ok && ctx.Err() == nil && !s.degradedNow() {
		record(s.prof().Checkpoint())
	}
	record(s.Close())
	return firstErr
}

// HeaderMaxStaleness is the request header a reader sets to demand freshness:
// a follower whose staleness watermark exceeds this many milliseconds refuses
// the read with 503 stale_read instead of answering from stale state. Leaders
// always satisfy any bound.
const HeaderMaxStaleness = "X-Sprofile-Max-Staleness-Ms"

// ServeHTTP implements http.Handler. Every request passes through the metrics
// middleware (request counter + latency histogram by route, outermost so shed
// and timed-out requests are still observed), then the admission gate and
// panic recovery (middleware.go); a max-staleness demand is enforced before
// routing, so it guards every read endpoint uniformly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.instrument(http.HandlerFunc(s.serveAdmitted), w, r)
}

func (s *Server) serveRouted(w http.ResponseWriter, r *http.Request) {
	if raw := r.Header.Get(HeaderMaxStaleness); raw != "" {
		bound, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || bound < 0 {
			writeError(w, http.StatusBadRequest, "%s must be a non-negative integer, got %q", HeaderMaxStaleness, raw)
			return
		}
		if s.readOnly() {
			if st := s.follower.Status(); st.StalenessMs > bound {
				w.Header().Set("Retry-After", "1")
				w.Header().Set(replication.HeaderLeader, s.leader)
				writeJSON(w, http.StatusServiceUnavailable, errorResponse{
					Error: fmt.Sprintf("%v: %dms behind, caller demands %dms", sprofile.ErrStaleRead, st.StalenessMs, bound),
					Code:  "stale_read",
				})
				return
			}
		}
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.Handle("/metrics", sprofile.MetricsHandler())
	s.mux.Handle("/v1/events", s.deadlineFunc(s.handleEvents))
	// Bulk ingest streams an unbounded NDJSON body; a deadline would also
	// buffer the (tiny) response, and legitimate loads can run long.
	s.mux.HandleFunc("/v1/events/bulk", s.handleBulk)
	s.mux.Handle("/v1/query", s.deadlineFunc(s.handleQuery))
	s.mux.Handle("/v1/admin/checkpoint", s.deadlineFunc(s.handleCheckpoint))
	s.mux.Handle("/v1/admin/flush", s.deadlineFunc(s.handleFlush))
	if s.debugFailpoints {
		s.mux.Handle("/v1/admin/failpoint", s.deadlineFunc(s.handleFailpoint))
	}
	s.registerExportRoutes()
	s.registerReplicationRoutes()
}

// Event is the JSON wire form of one log tuple.
type Event struct {
	Object string `json:"object"`
	Action string `json:"action"`
}

// eventsResponse reports how a POST /v1/events batch was processed.
type eventsResponse struct {
	Applied int    `json:"applied"`
	Error   string `json:"error,omitempty"`
	Code    string `json:"code,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable error class; see errorCode for the
	// closed set. The Go client SDK maps it back onto the sprofile error
	// taxonomy, so errors.Is works across the wire.
	Code string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is written can only be logged by the
	// http server; the status code is already on the wire.
	_ = json.NewEncoder(w).Encode(v)
}

// errorCode maps an error returned by the profile onto the HTTP status and
// the wire error code of its taxonomy class. Every handler funnels profile
// errors through this one mapping, so the same errors.Is class always yields
// the same status:
//
//	invalid_query, invalid_action, out_of_range → 400 Bad Request
//	unknown_key                                 → 404 Not Found
//	strict_violation                            → 409 Conflict
//	empty_profile                               → 422 Unprocessable Entity
//	cap_exceeded                                → 507 Insufficient Storage
//	wal_append (applied but not journaled)      → 500 Internal Server Error
//	read_only, stale_read (replication)         → 503 Service Unavailable
//	degraded (WAL I/O failure, writes refused)  → 503 Service Unavailable
//	shed (admission gate at max in-flight)      → 503 Service Unavailable
func errorCode(err error) (int, string) {
	switch {
	case errors.Is(err, sprofile.ErrDegraded):
		return http.StatusServiceUnavailable, "degraded"
	case errors.Is(err, sprofile.ErrShed):
		return http.StatusServiceUnavailable, "shed"
	case errors.Is(err, sprofile.ErrReadOnly):
		return http.StatusServiceUnavailable, "read_only"
	case errors.Is(err, sprofile.ErrStaleRead):
		return http.StatusServiceUnavailable, "stale_read"
	case errors.Is(err, sprofile.ErrWALAppend):
		return http.StatusInternalServerError, "wal_append"
	case errors.Is(err, sprofile.ErrCapExceeded):
		return http.StatusInsufficientStorage, "cap_exceeded"
	case errors.Is(err, sprofile.ErrUnknownKey):
		return http.StatusNotFound, "unknown_key"
	case errors.Is(err, sprofile.ErrInvalidQuery):
		return http.StatusBadRequest, "invalid_query"
	case errors.Is(err, sprofile.ErrInvalidAction):
		return http.StatusBadRequest, "invalid_action"
	case errors.Is(err, sprofile.ErrOutOfRange):
		return http.StatusBadRequest, "out_of_range"
	case errors.Is(err, sprofile.ErrStrictViolation):
		return http.StatusConflict, "strict_violation"
	case errors.Is(err, sprofile.ErrEmptyProfile):
		return http.StatusUnprocessableEntity, "empty_profile"
	default:
		return http.StatusUnprocessableEntity, "unprocessable"
	}
}

// statusCode names the request-level (non-taxonomy) error classes by status.
func statusCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "unprocessable"
	}
}

// writeError reports a request-level failure (malformed body, bad parameter,
// wrong method) whose class is implied by the status code.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: statusCode(status)})
}

// setRetryHint attaches a Retry-After to transient rejections: shedding
// clears as soon as an in-flight request finishes, and degradation as soon
// as the recovery probe rolls the log — both within the header's minimum
// expressible hint (one second).
func setRetryHint(w http.ResponseWriter, err error) {
	if errors.Is(err, sprofile.ErrDegraded) || errors.Is(err, sprofile.ErrShed) {
		w.Header().Set("Retry-After", "1")
	}
}

// writeProfileError reports a profile operation failure through the taxonomy
// mapping of errorCode.
func writeProfileError(w http.ResponseWriter, err error) {
	status, code := errorCode(err)
	setRetryHint(w, err)
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

// rejectReadOnly refuses a write on an unpromoted follower: 503 with a
// Retry-After and the leader's URL in X-Sprofile-Leader, so a client can fail
// over immediately instead of waiting out the retry.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if !s.readOnly() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set(replication.HeaderLeader, s.leader)
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error: fmt.Sprintf("%v; this is a follower of %s", sprofile.ErrReadOnly, s.leader),
		Code:  "read_only",
	})
	return true
}

// role names what this node currently is: "standalone" (no WAL), "leader"
// (WAL-backed, writable), or "follower" (read-only replica).
func (s *Server) role() string {
	if s.readOnly() {
		return "follower"
	}
	if _, ok := s.prof().WALStats(); ok {
		return "leader"
	}
	return "standalone"
}

// replicationStatus returns the staleness watermark this node attaches to
// answers, or nil when it is standalone.
func (s *Server) replicationStatus() *sprofile.ReplicationStatus {
	if s.follower != nil {
		st := s.follower.Status()
		return &st
	}
	if st, ok := s.prof().LeaderReplicationStatus(); ok {
		return &st
	}
	return nil
}

// healthWAL is the wal object inside the /healthz document.
type healthWAL struct {
	Segment             uint64 `json:"segment"`
	Offset              int64  `json:"offset"`
	Segments            int    `json:"segments"`
	Fsyncs              uint64 `json:"fsyncs"`
	TailBytes           int64  `json:"tail_bytes"`
	SnapshotSeq         uint64 `json:"snapshot_seq"`
	LastCheckpointAgeMs int64  `json:"last_checkpoint_age_ms"` // -1 = never checkpointed
}

// healthResponse is the full /healthz document; see the README for the
// schema. WAL and Replication are omitted on nodes that have neither.
type healthResponse struct {
	Status          string                      `json:"status"`
	Role            string                      `json:"role"`
	UptimeSeconds   float64                     `json:"uptime_seconds"`
	Version         string                      `json:"version"`
	Commit          string                      `json:"commit"`
	Degraded        bool                        `json:"degraded"`
	WALError        string                      `json:"wal_error,omitempty"`
	CheckpointError string                      `json:"checkpoint_error,omitempty"`
	ReplicationErr  string                      `json:"replication_error,omitempty"`
	WAL             *healthWAL                  `json:"wal,omitempty"`
	Replication     *sprofile.ReplicationStatus `json:"replication,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := healthResponse{
		Status:        "ok",
		Role:          s.role(),
		UptimeSeconds: time.Since(serverStart).Seconds(),
		Version:       sprofile.Version,
		Commit:        sprofile.Commit,
	}
	p := s.prof()
	if s.degradedNow() {
		// Writes are refused (503 degraded) while the recovery probe tries
		// to roll the log; reads keep serving, so the node stays "live" for
		// probes but the status names the impairment.
		resp.Status = "degraded"
		resp.Degraded = true
	}
	if err := p.WALError(); err != nil {
		resp.WALError = err.Error()
	}
	if err := p.CheckpointError(); err != nil {
		// The server keeps serving — the profile and the unreclaimed log
		// tail are intact — but the operator should know the last background
		// checkpoint failed (e.g. a full disk).
		resp.CheckpointError = err.Error()
	}
	if s.follower != nil {
		if err := s.follower.LastError(); err != nil {
			resp.ReplicationErr = err.Error()
		}
	}
	if ws, ok := p.WALStats(); ok {
		hw := &healthWAL{
			Segment:             ws.Segment,
			Offset:              ws.Offset,
			Segments:            ws.Segments,
			Fsyncs:              ws.Fsyncs,
			TailBytes:           ws.TailBytes,
			SnapshotSeq:         ws.SnapshotSeq,
			LastCheckpointAgeMs: -1,
		}
		if !ws.LastCheckpoint.IsZero() {
			hw.LastCheckpointAgeMs = time.Since(ws.LastCheckpoint).Milliseconds()
		}
		resp.WAL = hw
	}
	resp.Replication = s.replicationStatus()
	writeJSON(w, http.StatusOK, resp)
}

// handleCheckpoint snapshots the profile into the WAL directory and deletes
// the log segments the snapshot covers. Readers are never blocked; writers
// pause only while the in-memory state is captured.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		// Degraded: the checkpoint would rotate onto the failed log and
		// report the WAL fault as its own; 503 degraded + Retry-After names
		// the real condition instead of a misleading checkpoint error.
		return
	}
	if err := s.prof().Checkpoint(); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "checkpoint failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"checkpointed": true})
}

// handleFlush syncs the WAL: a barrier callers may use unconditionally
// before reading their writes back. Every acknowledged write is already
// applied, visible and (with a WAL) fsynced, so for a caller's own
// acknowledged writes it adds nothing.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		// Degraded: the sync would just re-report the sticky WAL fault as a
		// 500 wal_append; 503 degraded + Retry-After is the actionable truth.
		return
	}
	if err := s.prof().Sync(); err != nil {
		writeProfileError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"flushed": true})
}

// decodeEvents accepts either a single {object, action} event or a JSON
// array of them, as the package doc promises. The body is buffered first so
// the two forms can be distinguished by their leading token.
func decodeEvents(r *http.Request, maxBatch int) ([]Event, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var batch []Event
		if err := strictDecode(trimmed, &batch); err != nil {
			return nil, fmt.Errorf("invalid event array: %w", err)
		}
		if len(batch) > maxBatch {
			return nil, fmt.Errorf("%w: batch of %d events exceeds limit %d", sprofile.ErrOutOfRange, len(batch), maxBatch)
		}
		return batch, nil
	}
	var single Event
	if err := strictDecode(trimmed, &single); err != nil {
		return nil, fmt.Errorf("body must be one {object, action} event or a JSON array of them: %w", err)
	}
	return []Event{single}, nil
}

// strictDecode unmarshals data into v, rejecting unknown fields and any
// data after the value.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return decodeOnly(dec, v)
}

// errTrailingData rejects a body or line holding more than one JSON value.
var errTrailingData = errors.New("unexpected data after the JSON value")

// decodeOnly decodes the one JSON value dec reads into v. Only whitespace
// may follow it: a second value or trailing garbage is an error, never
// silently dropped.
func decodeOnly(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil:
		return errTrailingData
	default:
		// Garbage that is not a token, or a body read failing after the
		// value; either way the value is not all the body holds.
		return fmt.Errorf("%w: %v", errTrailingData, err)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		return
	}
	events, err := decodeEvents(r, s.maxBatch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	in := s.startIngest()
	defer in.close()
	for _, e := range events {
		t, err := parseEvent(e.Object, e.Action)
		if err == nil {
			err = in.push(t)
		}
		if err != nil {
			in.fail(w, err)
			return
		}
	}
	if err := in.flush(); err != nil {
		in.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, eventsResponse{Applied: in.applied})
}

// chunkScratch is the pooled per-request buffer set of the event routes:
// the event chunk handed to ApplyBatch and, once the bulk route has used
// it, the NDJSON line scanner's initial buffer. Pooling keeps the streaming
// decode free of per-event allocations beyond the decoded key strings.
type chunkScratch struct {
	line   []byte
	events []sprofile.KeyedTuple[string]
}

var chunkPool = sync.Pool{
	New: func() any { return new(chunkScratch) },
}

// maxBulkLine bounds one NDJSON line. It is deliberately larger than the
// per-object limit so an oversized key is reported as a per-line 400 (with
// its line number) instead of an opaque scanner failure; checkObject
// enforces the real bound.
const maxBulkLine = 4 << 20

// checkObject rejects object keys the write-ahead log could not journal —
// appending one would fail after the in-memory update and report a
// divergence, so the front door refuses it outright (whether or not a WAL
// is configured, for consistency).
func checkObject(object string) error {
	if object == "" {
		return fmt.Errorf("%w: event with empty object", sprofile.ErrOutOfRange)
	}
	if len(object) > wal.MaxKeyLen {
		return fmt.Errorf("object of %d bytes exceeds the %d-byte limit: %w", len(object), wal.MaxKeyLen, sprofile.ErrOutOfRange)
	}
	return nil
}

// parseEvent is the validation every write route applies to one wire event.
// Its errors carry their taxonomy class, which errorCode turns into a 400
// with that class's wire code.
func parseEvent(object, action string) (sprofile.KeyedTuple[string], error) {
	if err := checkObject(object); err != nil {
		return sprofile.KeyedTuple[string]{}, err
	}
	switch action {
	case "add", "+", "1":
		return sprofile.KeyedTuple[string]{Key: object, Action: sprofile.ActionAdd}, nil
	case "remove", "-", "-1":
		return sprofile.KeyedTuple[string]{Key: object, Action: sprofile.ActionRemove}, nil
	}
	return sprofile.KeyedTuple[string]{}, fmt.Errorf("%w: unknown action %q (want \"add\" or \"remove\")", sprofile.ErrInvalidAction, action)
}

// ingest is one write request's pass through the shared chunk applier:
// validated events fill a chunk, and each full chunk, then the last one,
// goes through ApplyBatch. applied counts the events in effect.
type ingest struct {
	s       *Server
	sc      *chunkScratch
	applied int
}

func (s *Server) startIngest() *ingest {
	return &ingest{s: s, sc: chunkPool.Get().(*chunkScratch)}
}

// close returns the scratch to the pool, zeroing the chunk's whole backing
// array so it does not pin the last chunk's key strings.
func (in *ingest) close() {
	clear(in.sc.events[:cap(in.sc.events)])
	in.sc.events = in.sc.events[:0]
	chunkPool.Put(in.sc)
}

// push buffers one validated event, applying the chunk once it holds
// MaxBatch events.
func (in *ingest) push(t sprofile.KeyedTuple[string]) error {
	in.sc.events = append(in.sc.events, t)
	if len(in.sc.events) < in.s.maxBatch {
		return nil
	}
	return in.flush()
}

// flush applies the pending chunk.
func (in *ingest) flush() error {
	n, err := in.s.prof().ApplyBatch(in.sc.events)
	in.applied += n
	in.sc.events = in.sc.events[:0]
	return err
}

// fail answers a write that stopped on err, an invalid event or a chunk's
// apply failure.
func (in *ingest) fail(w http.ResponseWriter, err error) { writeIngestError(w, in.applied, err) }

// writeIngestError answers a write that stopped on err, with err's taxonomy
// status and code and the number of events applied before it.
func writeIngestError(w http.ResponseWriter, applied int, err error) {
	status, code := errorCode(err)
	setRetryHint(w, err)
	writeJSON(w, status, eventsResponse{Applied: applied, Error: err.Error(), Code: code})
}

// writeBadRequest answers a write whose body could not be read as valid
// events, with the number of events applied before it.
func writeBadRequest(w http.ResponseWriter, applied int, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, eventsResponse{Applied: applied, Error: fmt.Sprintf(format, args...), Code: statusCode(http.StatusBadRequest)})
}

// handleBulk ingests an NDJSON stream — one {"object", "action"} event per
// line — through the shared chunk applier: each chunk is coalesced into net
// per-key deltas, applied with one stripe-lock acquisition per stripe and
// one block walk per distinct key, and (with a WAL) journaled as one batch
// record per stripe with one group-commit fsync. Blank lines are skipped. A
// decode error names the failing line.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		return
	}
	in := s.startIngest()
	defer in.close()
	if in.sc.line == nil {
		in.sc.line = make([]byte, 64<<10)
	}
	scanner := bufio.NewScanner(r.Body)
	scanner.Buffer(in.sc.line, maxBulkLine)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		data := bytes.TrimSpace(scanner.Bytes())
		if len(data) == 0 {
			continue
		}
		var e Event
		if err := strictDecode(data, &e); err != nil {
			writeBadRequest(w, in.applied, "line %d: %v", lineNo, err)
			return
		}
		t, err := parseEvent(e.Object, e.Action)
		if err != nil {
			in.fail(w, fmt.Errorf("line %d: %w", lineNo, err))
			return
		}
		if err := in.push(t); err != nil {
			in.fail(w, err)
			return
		}
	}
	if err := scanner.Err(); err != nil {
		// Apply nothing further: the partial chunk may be mid-stream garbage.
		writeBadRequest(w, in.applied, "reading stream at line %d: %v", lineNo, err)
		return
	}
	if err := in.flush(); err != nil {
		in.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, eventsResponse{Applied: in.applied})
}
