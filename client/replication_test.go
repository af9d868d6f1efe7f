package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sprofile"
	"sprofile/internal/server"
)

// flakyServer answers failures times with the given status/code document,
// then succeeds with body. It counts every hit.
type flakyServer struct {
	failures int32
	status   int
	code     string
	body     string
	hits     atomic.Int32
}

func (f *flakyServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := f.hits.Add(1)
	if int(n) <= int(f.failures) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(f.status)
		json.NewEncoder(w).Encode(map[string]string{"error": "induced", "code": f.code})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(f.body))
}

func TestRetryHealsTransient503(t *testing.T) {
	fs := &flakyServer{failures: 2, status: http.StatusServiceUnavailable, code: "internal",
		body: `{"summary":{"total":2,"capacity":16},"tracked":1}`}
	ts := httptest.NewServer(fs)
	defer ts.Close()

	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), sprofile.KeyedQuery[string]{Summary: true})
	if err != nil || res.Summary == nil || res.Summary.Total != 2 {
		t.Fatalf("summary after two 503s = (%+v, %v)", res.Summary, err)
	}
	if got := fs.hits.Load(); got != 3 {
		t.Fatalf("server hit %d times, want 3", got)
	}
}

func TestRetryGivesUpAtCap(t *testing.T) {
	fs := &flakyServer{failures: 100, status: http.StatusServiceUnavailable, code: "internal"}
	ts := httptest.NewServer(fs)
	defer ts.Close()

	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(context.Background(), sprofile.KeyedQuery[string]{Summary: true})
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the final 503", err)
	}
	if got := fs.hits.Load(); got != 3 {
		t.Fatalf("server hit %d times, want exactly MaxAttempts", got)
	}
}

func TestNoRetryWithoutOptIn(t *testing.T) {
	fs := &flakyServer{failures: 1, status: http.StatusServiceUnavailable, code: "internal"}
	ts := httptest.NewServer(fs)
	defer ts.Close()

	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), sprofile.KeyedQuery[string]{Summary: true}); err == nil {
		t.Fatal("un-configured client retried its way past a 503")
	}
	if got := fs.hits.Load(); got != 1 {
		t.Fatalf("server hit %d times, want 1", got)
	}
}

func TestRetryRespectsContextCancellation(t *testing.T) {
	fs := &flakyServer{failures: 100, status: http.StatusServiceUnavailable, code: "internal"}
	ts := httptest.NewServer(fs)
	defer ts.Close()

	// A long backoff that cancellation must cut short.
	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Minute, MaxDelay: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err = c.Query(ctx, sprofile.KeyedQuery[string]{Summary: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s; the backoff did not yield", elapsed)
	}
	if got := fs.hits.Load(); got != 1 {
		t.Fatalf("server hit %d times after cancellation mid-backoff, want 1", got)
	}
}

func TestWritesDoNotRetryOnServerErrors(t *testing.T) {
	// A 503 on a write could mean "applied but the ack was lost"; the client
	// must not re-send a non-idempotent ingest.
	fs := &flakyServer{failures: 1, status: http.StatusServiceUnavailable, code: "internal",
		body: `{"applied":1}`}
	ts := httptest.NewServer(fs)
	defer ts.Close()

	c, err := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(context.Background(), "x"); err == nil {
		t.Fatal("write retried past a 503")
	}
	if got := fs.hits.Load(); got != 1 {
		t.Fatalf("server hit %d times for one write, want 1", got)
	}
}

func TestRetryPolicyDelayBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
	for attempt := 0; attempt < 10; attempt++ {
		want := 50 * time.Millisecond << attempt
		if want > 200*time.Millisecond || want <= 0 {
			want = 200 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			d := p.delay(attempt)
			if d < want/2 || d > want {
				t.Fatalf("delay(%d) = %s, want within [%s, %s]", attempt, d, want/2, want)
			}
		}
	}
}

// TestFollowerRoutingAndLeaderFallback runs a real leader+follower pair and
// checks the client's read path end to end: reads land on the follower and
// carry its watermark; writes land on the leader; when the follower dies,
// reads transparently fall back to the leader.
func TestFollowerRoutingAndLeaderFallback(t *testing.T) {
	leader, err := server.New(server.Config{Capacity: 64, WALPath: t.TempDir() + "/wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	lts := httptest.NewServer(leader)
	defer lts.Close()

	follower, err := server.New(server.Config{
		Capacity:   64,
		WALPath:    t.TempDir() + "/mirror",
		Follow:     lts.URL,
		FollowPoll: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower)
	defer fts.Close()

	c, err := New(lts.URL,
		WithFollowers(fts.URL),
		WithMaxStaleness(time.Minute),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Writes go to the leader even though a follower is configured.
	if _, err := c.SendEvents(ctx, []Event{
		{Object: "a", Action: ActionAdd}, {Object: "a", Action: ActionAdd}, {Object: "b", Action: ActionAdd},
	}); err != nil {
		t.Fatal(err)
	}

	// A composite query routes to the follower — the watermark says so — and
	// converges on the acked data within the poll cadence.
	var res sprofile.KeyedQueryResult[string]
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err = c.Query(ctx, sprofile.KeyedQuery[string]{Mode: true})
		if err == nil && res.Mode != nil && res.Mode.Key == "a" &&
			res.Replication != nil && res.Replication.Role == "follower" && res.Replication.CaughtUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: res=%+v repl=%+v err=%v", res.Mode, res.Replication, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if res.Mode.Frequency != 2 {
		t.Fatalf("mode via follower = %+v", res.Mode)
	}
	if res.Replication.Leader != lts.URL {
		t.Fatalf("watermark leader = %q, want %q", res.Replication.Leader, lts.URL)
	}

	// Kill the follower: the same read now falls back to the leader.
	fts.Close()
	res, err = c.Query(ctx, sprofile.KeyedQuery[string]{Mode: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replication == nil || res.Replication.Role != "leader" {
		t.Fatalf("post-fallback watermark = %+v, want the leader's", res.Replication)
	}

	// Health against the leader base reports the leader role and WAL section.
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "leader" || h.WAL == nil || h.WAL.Fsyncs == 0 {
		t.Fatalf("Healthz = %+v (wal %+v)", h, h.WAL)
	}
}

// TestStaleReadFallsBackToLeader pins that a follower refusing with
// stale_read does not fail the read — the leader answers instead — and that
// the wire codes map onto the sprofile error taxonomy.
func TestStaleReadFallsBackToLeader(t *testing.T) {
	staleDoc := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"replica is 12000ms stale","code":"stale_read"}`))
	}

	var followerHits, leaderHits atomic.Int32
	fol := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		followerHits.Add(1)
		if r.Header.Get(HeaderMaxStaleness) == "" {
			t.Error("read reached the follower without a max-staleness demand")
		}
		staleDoc(w)
	}))
	defer fol.Close()
	lead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		leaderHits.Add(1)
		w.Write([]byte(`{"summary":{"total":3,"capacity":64},"tracked":2}`))
	}))
	defer lead.Close()

	c, err := New(lead.URL, WithFollowers(fol.URL), WithMaxStaleness(time.Second),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), sprofile.KeyedQuery[string]{Summary: true})
	if err != nil || res.Summary == nil || res.Summary.Total != 3 {
		t.Fatalf("summary = (%+v, %v)", res.Summary, err)
	}
	// stale_read is not same-node-retryable: exactly one follower attempt,
	// then the leader.
	if followerHits.Load() != 1 || leaderHits.Load() != 1 {
		t.Fatalf("hits = follower %d, leader %d; want 1 and 1",
			followerHits.Load(), leaderHits.Load())
	}

	// Without a leader to fall back to, the taxonomy mapping surfaces.
	solo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { staleDoc(w) }))
	defer solo.Close()
	c2, err := New(solo.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c2.Query(context.Background(), sprofile.KeyedQuery[string]{Summary: true})
	if !errors.Is(err, sprofile.ErrStaleRead) {
		t.Fatalf("err = %v, want ErrStaleRead in its chain", err)
	}
}

// TestReadOnlyErrorMapping pins the write-rejection path: a follower refusing
// a write surfaces sprofile.ErrReadOnly through the client.
func TestReadOnlyErrorMapping(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"this node is a read-only follower","code":"read_only"}`))
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Add(context.Background(), "x")
	if !errors.Is(err, sprofile.ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly in its chain", err)
	}
}

// TestPromoteViaClient drives a failover through the SDK alone.
func TestPromoteViaClient(t *testing.T) {
	leader, err := server.New(server.Config{Capacity: 64, WALPath: t.TempDir() + "/wal"})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(leader)

	lc, err := New(lts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := lc.SendEvents(ctx, []Event{{Object: "k", Action: ActionAdd}}); err != nil {
		t.Fatal(err)
	}

	follower, err := server.New(server.Config{
		Capacity: 64, WALPath: t.TempDir() + "/mirror",
		Follow: lts.URL, FollowPoll: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower)
	defer fts.Close()

	deadline := time.Now().Add(10 * time.Second)
	for st := follower.Follower().Status(); !st.CaughtUp || st.Records < 1; st = follower.Follower().Status() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Promoting the leader is a no-op reporting false.
	if did, err := lc.Promote(ctx); err != nil || did {
		t.Fatalf("Promote(leader) = (%v, %v), want (false, nil)", did, err)
	}

	lts.Close()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	fc, err := New(fts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if did, err := fc.Promote(ctx); err != nil || !did {
		t.Fatalf("Promote(follower) = (%v, %v), want (true, nil)", did, err)
	}
	// Idempotent: a second promote reports false without error.
	if did, err := fc.Promote(ctx); err != nil || did {
		t.Fatalf("second Promote = (%v, %v), want (false, nil)", did, err)
	}

	// The promoted node holds the acked write and accepts new ones.
	n, err := count(ctx, fc, "k")
	if err != nil || n != 1 {
		t.Fatalf("count(k) after promote = (%d, %v)", n, err)
	}
	if err := fc.Add(ctx, "k"); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	h, err := fc.Healthz(ctx)
	if err != nil || h.Role != "leader" {
		t.Fatalf("Healthz after promote = (%+v, %v)", h, err)
	}
}
