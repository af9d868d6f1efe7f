// Package client is the typed Go SDK for the sprofile HTTP server
// (internal/server, run as cmd/sprofiled). It covers the whole wire surface:
// single-event and batched ingestion, the streaming NDJSON bulk path, and
// the one read call, Query, which sends an atomic multi-statistic
// sprofile.KeyedQuery to POST /v1/query: every statistic, a single key's
// count included, is a field of its answer.
//
// Errors mirror the library's taxonomy across the wire: the server tags
// every error response with a machine-readable code, and the client maps it
// back, so
//
//	err := c.Remove(ctx, "ghost")
//	if errors.Is(err, sprofile.ErrUnknownKey) { ... }
//
// works against a remote profile exactly as against a local one at the
// class level (ErrOutOfRange, ErrStrictViolation, ErrCapExceeded, ...); the
// wire carries one code per response, so sentinels finer than a class
// (ErrObjectRange vs ErrBadRank) do not survive the round trip. The full
// *APIError (HTTP status, code, server message) stays available via
// errors.As.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sprofile"
	"sprofile/internal/failpoint"
)

// Event is the JSON wire form of one log event, matching the server's
// POST /v1/events document.
type Event struct {
	Object string `json:"object"`
	Action string `json:"action"`
}

// Wire action strings accepted by the server.
const (
	ActionAdd    = "add"
	ActionRemove = "remove"
)

// APIError is an error response from the server: the HTTP status, the
// machine-readable taxonomy code and the server's message. Its Unwrap maps
// the code back onto the sprofile error taxonomy, so errors.Is against
// sentinels like sprofile.ErrUnknownKey works across the wire.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	// Applied reports how many events of an ingest request took effect
	// before the failure (zero for non-ingest requests).
	Applied int
	// RetryAfter is the server's Retry-After hint (zero when absent). With
	// WithRetry the client honors it: the backoff before the next attempt is
	// at least this long, still capped by RetryPolicy.MaxDelay.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("sprofile client: %s (http %d, code %s)", e.Message, e.StatusCode, e.Code)
	}
	return fmt.Sprintf("sprofile client: %s (http %d)", e.Message, e.StatusCode)
}

// codeToErr maps wire error codes back onto the library's taxonomy roots.
// The wire carries one code per response, so only the class survives the
// errConfig is the construction-time sentinel every invalid New argument or
// option wraps, so callers can errors.Is for the whole misconfiguration
// class. It is never produced by a round trip.
var errConfig = errors.New("sprofile client: invalid configuration")

// round trip: fine-grained sentinels below a class (ErrObjectRange vs
// ErrBadRank under ErrOutOfRange) cannot be distinguished remotely.
// invalid_query maps to both of its classes because Query validation always
// wraps an out-of-range argument alongside ErrInvalidQuery.
var codeToErr = map[string]error{
	"out_of_range":     sprofile.ErrOutOfRange,
	"unknown_key":      sprofile.ErrUnknownKey,
	"strict_violation": sprofile.ErrStrictViolation,
	"empty_profile":    sprofile.ErrEmptyProfile,
	"cap_exceeded":     sprofile.ErrCapExceeded,
	"invalid_action":   sprofile.ErrInvalidAction,
	"invalid_query":    errors.Join(sprofile.ErrInvalidQuery, sprofile.ErrOutOfRange),
	"wal_append":       sprofile.ErrWALAppend,
	"read_only":        sprofile.ErrReadOnly,
	"stale_read":       sprofile.ErrStaleRead,
	"degraded":         sprofile.ErrDegraded,
	"shed":             sprofile.ErrShed,
}

// Unwrap resolves the wire code to its sprofile taxonomy class (nil for
// request-level codes like bad_request, which have no library counterpart).
func (e *APIError) Unwrap() error { return codeToErr[e.Code] }

// Client is a typed HTTP client for one sprofile server — or, with
// WithFollowers, for a replicated deployment: writes always go to the leader,
// reads round-robin across the followers and fall back to the leader when the
// chosen follower is unreachable, too stale, or otherwise failing.
type Client struct {
	base string
	hc   *http.Client

	retry        RetryPolicy
	retryOn      bool
	followers    []string
	next         atomic.Uint32 // round-robin cursor over followers
	maxStaleness time.Duration // >0: demanded on every read via header
}

// HeaderMaxStaleness is the request header carrying a read's freshness
// demand in milliseconds; it mirrors the server-side constant.
const HeaderMaxStaleness = "X-Sprofile-Max-Staleness-Ms"

// RetryPolicy bounds the automatic retries of WithRetry. Zero fields select
// the defaults noted on each.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per target (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 50ms);
	// it doubles per attempt with 50–100% jitter.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 3
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 2 * time.Second
}

func (p RetryPolicy) delay(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.maxDelay()
	d := base << attempt
	if d > max || d <= 0 {
		d = max
	}
	// Full jitter over the upper half: uniform in [d/2, d). Decorrelates
	// client herds without ever collapsing the backoff to zero.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient uses hc for every request instead of http.DefaultClient;
// set timeouts and transports there.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry retries transiently failing requests with jittered exponential
// backoff. Reads retry on connection errors and on 429/502/503/504 answers
// (except read_only and stale_read, which a same-node retry cannot heal —
// those trigger leader fallback instead when followers are configured; the
// degraded and shed codes ARE read-retryable). Writes retry only on
// connection-refused, where the request provably never reached a server —
// anything later and a non-idempotent ingest could be applied twice, and a
// degraded node may refuse writes indefinitely. A Retry-After hint (503
// shed/degraded, or a rate-limiting proxy's 429) raises the backoff to at
// least the hinted wait, capped by RetryPolicy.MaxDelay. Context
// cancellation always stops the retry loop.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry, c.retryOn = p, true }
}

// WithFollowers routes reads across the given follower base URLs
// round-robin; the construction-time base URL remains the leader, serving
// every write and the fallback for reads whose follower failed. Statistics
// read from a follower may trail the leader by its replication lag — demand a
// bound with WithMaxStaleness when it matters.
func WithFollowers(urls ...string) Option {
	return func(c *Client) {
		for _, u := range urls {
			c.followers = append(c.followers, strings.TrimRight(u, "/"))
		}
	}
}

// WithMaxStaleness attaches a freshness demand to every read: a follower
// whose staleness watermark exceeds d refuses with sprofile.ErrStaleRead
// (and the client falls back to the leader, which always satisfies it).
func WithMaxStaleness(d time.Duration) Option {
	return func(c *Client) { c.maxStaleness = d }
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("sprofile client: invalid base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("%w: base URL %q needs a scheme and host", errConfig, baseURL)
	}
	// The default transport carries the "client.http" failpoint seam: a
	// no-op (one atomic load per request) until armed, at which point chaos
	// rigs inject latency, connection drops, truncated bodies and 5xx bursts
	// without a proxy. WithHTTPClient replaces it wholesale.
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{
		Transport: failpoint.RoundTripper("client.http", nil),
	}}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// wireError is the shape of every server error document (the ingest variant
// adds applied).
type wireError struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	Applied int    `json:"applied"`
}

// sendOnce issues one request against one base URL and decodes a JSON answer
// into out (when non-nil). Non-2xx responses become *APIError. Reads carry
// the client's max-staleness demand.
func (c *Client) sendOnce(ctx context.Context, method, base, path string, body io.Reader, contentType string, read bool, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if read && c.maxStaleness > 0 {
		req.Header.Set(HeaderMaxStaleness, strconv.FormatInt(c.maxStaleness.Milliseconds(), 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var we wireError
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if jsonErr := json.Unmarshal(data, &we); jsonErr != nil || we.Error == "" {
			we.Error = strings.TrimSpace(string(data))
			if we.Error == "" {
				we.Error = resp.Status
			}
		}
		ae := &APIError{StatusCode: resp.StatusCode, Code: we.Code, Message: we.Error, Applied: we.Applied}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
		return ae
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// transportFailure reports a request that died in transit (as opposed to a
// server answer or the caller's own context expiring).
func transportFailure(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// readRetryable classifies errors a repeat of the same idempotent read could
// heal: transport failures, a rate-limiting proxy's 429, and gateway-ish 5xx
// answers — including "shed" (a slot frees as soon as any request finishes)
// and "degraded" (reads are never refused on a degraded node, so seeing the
// code at all means a proxy or a mid-transition race; a retry is safe and
// cheap for an idempotent read). read_only and stale_read are excluded — the
// same node will keep giving the same answer; they are grounds for leader
// fallback, not same-node retry.
func readRetryable(err error) bool {
	if transportFailure(err) {
		return true
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.Code != "read_only" && ae.Code != "stale_read" {
		switch ae.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
	}
	return false
}

// writeRetryable is deliberately narrow: only connection-refused, where the
// request provably never reached a server. A write that failed any later
// could have been applied — retrying a non-idempotent ingest would double it.
// In particular "degraded" (503) is NOT write-retryable: the node may stay
// degraded indefinitely, and nothing was applied — callers should fail over
// or surface the error; only reads treat degraded as transient.
func writeRetryable(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue) && errors.Is(ue.Err, syscall.ECONNREFUSED)
}

// withRetry runs fn under the configured retry policy, backing off with
// jittered exponential delays between attempts while retryable(err) holds.
// A Retry-After hint (503 shed/degraded, or a rate-limiting proxy's 429)
// raises the backoff to at least the hinted wait, still capped by the
// policy's MaxDelay. Without WithRetry it runs fn exactly once.
func (c *Client) withRetry(ctx context.Context, retryable func(error) bool, fn func() error) error {
	attempts := 1
	if c.retryOn {
		attempts = c.retry.attempts()
	}
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.retry.nextDelay(a-1, err)):
			}
		}
		if err = fn(); err == nil || !retryable(err) {
			return err
		}
	}
	return err
}

// nextDelay is the backoff before retrying after err: the policy's jittered
// exponential delay, raised to the server's Retry-After hint when err carries
// a longer one, and always capped by the policy's MaxDelay (a server cannot
// park a client beyond what the caller configured).
func (p RetryPolicy) nextDelay(attempt int, err error) time.Duration {
	d := p.delay(attempt)
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
		if max := p.maxDelay(); d > max {
			d = max
		}
	}
	return d
}

// doRead routes one idempotent read, a JSON body POSTed to path:
// round-robin follower first (when configured), leader as fallback. Each target gets the full retry budget;
// any follower failure that is not the caller's own fault (4xx) falls
// through to the leader.
func (c *Client) doRead(ctx context.Context, path string, body []byte, out any) error {
	targets := []string{c.base}
	if len(c.followers) > 0 {
		i := int(c.next.Add(1)-1) % len(c.followers)
		targets = []string{c.followers[i], c.base}
	}
	var err error
	for ti, base := range targets {
		err = c.withRetry(ctx, readRetryable, func() error {
			return c.sendOnce(ctx, http.MethodPost, base, path, bytes.NewReader(body), "application/json", true, out)
		})
		if err == nil {
			return nil
		}
		if ti == len(targets)-1 || ctx.Err() != nil {
			return err
		}
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode < http.StatusInternalServerError {
			return err // the request itself is bad; the leader would agree
		}
	}
	return err
}

// doWrite sends one mutating request to the leader.
func (c *Client) doWrite(ctx context.Context, method, path string, body []byte, contentType string, out any) error {
	return c.withRetry(ctx, writeRetryable, func() error {
		var r io.Reader
		if body != nil {
			r = bytes.NewReader(body)
		}
		return c.sendOnce(ctx, method, c.base, path, r, contentType, false, out)
	})
}

func (c *Client) postJSON(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.doWrite(ctx, http.MethodPost, path, data, "application/json", out)
}

// appliedResponse mirrors the server's ingest answer.
type appliedResponse struct {
	Applied int `json:"applied"`
}

// Add ingests one add event for object.
func (c *Client) Add(ctx context.Context, object string) error {
	_, err := c.SendEvents(ctx, []Event{{Object: object, Action: ActionAdd}})
	return err
}

// Remove ingests one remove event for object.
func (c *Client) Remove(ctx context.Context, object string) error {
	_, err := c.SendEvents(ctx, []Event{{Object: object, Action: ActionRemove}})
	return err
}

// SendEvents posts a batch of events to /v1/events and returns how many were
// applied. On failure the returned count comes from the server's partial
// answer (also available as APIError.Applied).
func (c *Client) SendEvents(ctx context.Context, events []Event) (int, error) {
	var out appliedResponse
	err := c.postJSON(ctx, "/v1/events", events, &out)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) {
			return ae.Applied, err
		}
		return 0, err
	}
	return out.Applied, nil
}

// BulkIngest streams events to /v1/events/bulk as NDJSON — the server's
// delta-batched fast path — and returns how many were applied. The event
// slice is encoded incrementally, so arbitrarily large batches stream
// without buffering the whole document.
func (c *Client) BulkIngest(ctx context.Context, events []Event) (int, error) {
	pr, pw := io.Pipe()
	go func() {
		enc := json.NewEncoder(pw)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	return c.bulk(ctx, pr)
}

// BulkIngestReader streams raw NDJSON (one {"object","action"} document per
// line) from r to /v1/events/bulk; use it to pipe a prepared event log
// without re-encoding.
func (c *Client) BulkIngestReader(ctx context.Context, r io.Reader) (int, error) {
	return c.bulk(ctx, r)
}

func (c *Client) bulk(ctx context.Context, r io.Reader) (int, error) {
	var out appliedResponse
	err := c.sendOnce(ctx, http.MethodPost, c.base, "/v1/events/bulk", r, "application/x-ndjson", false, &out)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) {
			return ae.Applied, err
		}
		return 0, err
	}
	return out.Applied, nil
}

// Query executes ONE composite, atomic multi-statistic query via
// POST /v1/query: every statistic the KeyedQuery selects is answered from a
// single consistent cut of the server's profile — one round trip, one lock
// acquisition server-side, and no torn reads under concurrent ingest. It is
// the client's only read of the statistics; a single one is a query that
// selects only it, e.g. KeyedQuery{Count: []string{key}}.
//
// Query is a read: with WithFollowers it is routed to a follower (falling
// back to the leader), and the result's Replication field reports which
// node's cut answered and how stale it may be.
func (c *Client) Query(ctx context.Context, q sprofile.KeyedQuery[string]) (sprofile.KeyedQueryResult[string], error) {
	var out sprofile.KeyedQueryResult[string]
	data, err := json.Marshal(q)
	if err != nil {
		return out, err
	}
	err = c.doRead(ctx, "/v1/query", data, &out)
	return out, err
}

// Checkpoint asks the server to snapshot its profile and truncate the
// write-ahead log (POST /v1/admin/checkpoint).
func (c *Client) Checkpoint(ctx context.Context) error {
	return c.doWrite(ctx, http.MethodPost, "/v1/admin/checkpoint", nil, "", nil)
}

// Flush is the server's durability barrier (POST /v1/admin/flush): it syncs
// the write-ahead log. Every acknowledged event is already applied and
// visible to reads, and with a WAL already fsynced, so Flush before reading
// writes back is safe but never required.
func (c *Client) Flush(ctx context.Context) error {
	return c.doWrite(ctx, http.MethodPost, "/v1/admin/flush", nil, "", nil)
}

// WALHealth mirrors the "wal" section of /healthz: the durable log's append
// position and the observability counters behind it.
type WALHealth struct {
	Segment             uint64 `json:"segment"`
	Offset              int64  `json:"offset"`
	Segments            int    `json:"segments"`
	Fsyncs              uint64 `json:"fsyncs"`
	TailBytes           int64  `json:"tail_bytes"`
	SnapshotSeq         uint64 `json:"snapshot_seq"`
	LastCheckpointAgeMs int64  `json:"last_checkpoint_age_ms"` // -1 = never checkpointed
}

// Health probes GET /healthz; a non-empty CheckpointError or ReplicationError
// surfaces a background failure without failing the probe. WAL and
// Replication are nil on nodes that have neither.
type Health struct {
	Status           string                      `json:"status"`
	UptimeSeconds    float64                     `json:"uptime_seconds"`
	Version          string                      `json:"version"`
	Commit           string                      `json:"commit"`
	Role             string                      `json:"role"`
	Degraded         bool                        `json:"degraded"`
	WALError         string                      `json:"wal_error"`
	CheckpointError  string                      `json:"checkpoint_error"`
	ReplicationError string                      `json:"replication_error"`
	WAL              *WALHealth                  `json:"wal"`
	Replication      *sprofile.ReplicationStatus `json:"replication"`
}

// Healthz returns the server's liveness document. It probes the configured
// base URL only — point a dedicated Client at each node to monitor a fleet.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var out Health
	err := c.sendOnce(ctx, http.MethodGet, c.base, "/healthz", nil, "", false, &out)
	return out, err
}

// Metrics fetches the raw Prometheus text exposition from GET /metrics on
// the client's base URL, for tooling that relays or archives scrapes. The
// node answers from its own registry (metrics are per-process, never proxied
// to the leader), so fleet monitors should point one Client at each node,
// exactly as with Healthz.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	return string(data), nil
}

// Promote asks the node at the client's base URL to stop following and become
// the leader (POST /v1/admin/promote). It reports whether this call performed
// the transition: false with a nil error means the node already was (or
// always had been) a leader, so orchestrators can fire-and-retry safely.
func (c *Client) Promote(ctx context.Context) (bool, error) {
	var out struct {
		Promoted bool   `json:"promoted"`
		Role     string `json:"role"`
	}
	if err := c.doWrite(ctx, http.MethodPost, "/v1/admin/promote", nil, "", &out); err != nil {
		return false, err
	}
	return out.Promoted, nil
}
