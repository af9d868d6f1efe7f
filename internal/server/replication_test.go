package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sprofile"
)

// waitForCaughtUp polls the follower's watermark until it reports caught-up
// at the given leader position (or the deadline passes).
func waitForCaughtUp(t *testing.T, fs *Server, leaderSeg uint64, leaderOff int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := fs.Follower().Status()
		if st.CaughtUp && st.Segment == leaderSeg && st.Offset == leaderOff {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to %d:%d: %+v", leaderSeg, leaderOff, fs.Follower().Status())
}

// leaderPosition reads the leader's append position from its /healthz.
func leaderPosition(t *testing.T, ts *httptest.Server) (uint64, int64) {
	t.Helper()
	var h healthResponse
	getJSON(t, ts, "/healthz", &h)
	if h.WAL == nil {
		t.Fatalf("leader /healthz has no wal section: %+v", h)
	}
	return h.WAL.Segment, h.WAL.Offset
}

// TestServerReplicationFailover is the end-to-end story the replication
// subsystem exists for: a follower bootstraps from a live leader, converges,
// answers composite queries with a correct staleness watermark, refuses
// writes with a leader hint, survives the leader's death, and — after
// promotion — serves every write the dead leader ever acknowledged, plus new
// ones.
func TestServerReplicationFailover(t *testing.T) {
	leaderDir := t.TempDir() + "/leader-wal"
	followerDir := t.TempDir() + "/follower-wal"

	leader, err := New(Config{Capacity: 256, WALPath: leaderDir})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(leader)

	// Acked writes before the checkpoint...
	want := map[string]int64{}
	ingest := func(ts *httptest.Server, keys ...string) {
		t.Helper()
		var sb strings.Builder
		sb.WriteString("[")
		for i, k := range keys {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"object":%q,"action":"add"}`, k)
			want[k]++
		}
		sb.WriteString("]")
		resp, out := postEvents(t, ts, sb.String())
		if resp.StatusCode != http.StatusOK || out.Applied != len(keys) {
			t.Fatalf("ingest = %d %+v", resp.StatusCode, out)
		}
	}
	ingest(lts, "alpha", "beta", "alpha", "gamma")

	// ...a snapshot for the follower to bootstrap from...
	resp, err := http.Post(lts.URL+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint = %d", resp.StatusCode)
	}

	// ...and more acked writes in the tail after it.
	ingest(lts, "delta", "alpha", "delta")

	follower, err := New(Config{
		Capacity:   256,
		WALPath:    followerDir,
		Follow:     lts.URL,
		FollowPoll: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(follower)
	defer fts.Close()
	defer follower.Close()

	seg, off := leaderPosition(t, lts)
	waitForCaughtUp(t, follower, seg, off)

	// A composite query on the follower answers from the replica and carries
	// the follower's watermark.
	qresp, err := http.Post(fts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"count":["alpha","beta","gamma","delta"],"mode":true,"summary":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var qres sprofile.KeyedQueryResult[string]
	if err := json.NewDecoder(qresp.Body).Decode(&qres); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("follower query = %d", qresp.StatusCode)
	}
	for _, c := range qres.Counts {
		if c.Frequency != want[c.Key] {
			t.Fatalf("follower count(%s) = %d, want %d", c.Key, c.Frequency, want[c.Key])
		}
	}
	if qres.Mode == nil || qres.Mode.Key != "alpha" || qres.Mode.Frequency != 3 {
		t.Fatalf("follower mode = %+v", qres.Mode)
	}
	if qres.Replication == nil {
		t.Fatalf("follower query result has no replication watermark")
	}
	if qres.Replication.Role != "follower" || !qres.Replication.CaughtUp {
		t.Fatalf("follower watermark = %+v", qres.Replication)
	}
	if qres.Replication.Segment != seg || qres.Replication.Offset != off {
		t.Fatalf("follower watermark position = %d:%d, want %d:%d",
			qres.Replication.Segment, qres.Replication.Offset, seg, off)
	}
	if qres.Replication.Leader != lts.URL {
		t.Fatalf("follower watermark leader = %q, want %q", qres.Replication.Leader, lts.URL)
	}

	// The leader's own answers carry a leader watermark.
	var lq sprofile.KeyedQueryResult[string]
	lresp, err := http.Post(lts.URL+"/v1/query", "application/json", strings.NewReader(`{"mode":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(lresp.Body).Decode(&lq); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lq.Replication == nil || lq.Replication.Role != "leader" || lq.Replication.StalenessMs != 0 {
		t.Fatalf("leader watermark = %+v", lq.Replication)
	}

	// Writes to the follower are refused with the leader's address.
	wresp, wout := postEvents(t, fts, `[{"object":"nope","action":"add"}]`)
	if wresp.StatusCode != http.StatusServiceUnavailable || wout.Code != "read_only" {
		t.Fatalf("follower write = %d %+v", wresp.StatusCode, wout)
	}
	if wresp.Header.Get("Retry-After") == "" || wresp.Header.Get("X-Sprofile-Leader") != lts.URL {
		t.Fatalf("follower write rejection headers = %v", wresp.Header)
	}

	// A caught-up follower satisfies a generous staleness demand.
	req, _ := http.NewRequest(http.MethodPost, fts.URL+"/v1/query", strings.NewReader(`{"mode":true}`))
	req.Header.Set(HeaderMaxStaleness, "60000")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("fresh follower with 60s budget = %d", sresp.StatusCode)
	}

	// Health reflects the roles.
	var fh healthResponse
	getJSON(t, fts, "/healthz", &fh)
	if fh.Role != "follower" || fh.Replication == nil || !fh.Replication.CaughtUp {
		t.Fatalf("follower /healthz = %+v", fh)
	}
	var lh healthResponse
	getJSON(t, lts, "/healthz", &lh)
	if lh.Role != "leader" || lh.WAL == nil || lh.WAL.Fsyncs == 0 || lh.WAL.SnapshotSeq != 1 {
		t.Fatalf("leader /healthz = %+v (wal %+v)", lh, lh.WAL)
	}

	// Kill the leader. Every write above was acked (200 after fsync), and the
	// follower proved it held them all (caught-up at the leader's position).
	lts.Close()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	// With the leader gone the staleness watermark grows without bound; a
	// zero-tolerance read must now be refused.
	time.Sleep(10 * time.Millisecond)
	req, _ = http.NewRequest(http.MethodPost, fts.URL+"/v1/query", strings.NewReader(`{"mode":true}`))
	req.Header.Set(HeaderMaxStaleness, "0")
	sresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var serr errorResponse
	json.NewDecoder(sresp.Body).Decode(&serr)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusServiceUnavailable || serr.Code != "stale_read" {
		t.Fatalf("zero-tolerance read on orphaned follower = %d %+v", sresp.StatusCode, serr)
	}

	// Promote. The response and the health document flip to leader.
	presp, err := http.Post(fts.URL+"/v1/admin/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pout promoteResponse
	if err := json.NewDecoder(presp.Body).Decode(&pout); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK || !pout.Promoted || pout.Role != "leader" {
		t.Fatalf("promote = %d %+v", presp.StatusCode, pout)
	}
	getJSON(t, fts, "/healthz", &fh)
	if fh.Role != "leader" || fh.WAL == nil {
		t.Fatalf("promoted /healthz = %+v", fh)
	}

	// Zero acked writes lost: every count the dead leader acknowledged is
	// still answered, now by the promoted leader.
	for k, v := range want {
		if f := countOf(t, fts, k); f != v {
			t.Fatalf("after promote count(%s) = %d, want %d", k, f, v)
		}
	}

	// The promoted node accepts writes (appending to the very log it
	// mirrored) and satisfies any staleness bound.
	ingest(fts, "epsilon", "alpha")
	if f := countOf(t, fts, "alpha"); f != want["alpha"] {
		t.Fatalf("after promote+write count(alpha) = %d, want %d", f, want["alpha"])
	}
	req, _ = http.NewRequest(http.MethodPost, fts.URL+"/v1/query", strings.NewReader(`{"mode":true}`))
	req.Header.Set(HeaderMaxStaleness, "0")
	sresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("zero-tolerance read on promoted leader = %d", sresp.StatusCode)
	}

	// A promoted leader survives a restart over the same directory as an
	// ordinary durable server — the mirror was a real log all along.
	fts.Close()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reborn, err := New(Config{Capacity: 256, WALPath: followerDir})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	rts := httptest.NewServer(reborn)
	defer rts.Close()
	for k, v := range want {
		if f := countOf(t, rts, k); f != v {
			t.Fatalf("after restart count(%s) = %d, want %d", k, f, v)
		}
	}
}

// TestFollowerModeRequiresWAL pins the config contract.
func TestFollowerModeRequiresWAL(t *testing.T) {
	if _, err := New(Config{Capacity: 16, Follow: "http://localhost:1"}); err == nil {
		t.Fatal("follower mode without a WAL path was accepted")
	}
}

// TestReplicationFeedAbsentWithoutWAL pins that a memory-only server refuses
// to serve replication instead of panicking.
func TestReplicationFeedAbsentWithoutWAL(t *testing.T) {
	ts := newTestServer(t, 16)
	resp, err := http.Get(ts.URL + "/v1/replication/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("replication on memory-only server = %d", resp.StatusCode)
	}
}
