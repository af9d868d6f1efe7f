package replication_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"sprofile/internal/checkpoint"
	"sprofile/internal/core"
	"sprofile/internal/replication"
	"sprofile/internal/wal"
)

// counts is the minimal state machine both ends of the wire drive.
type counts struct {
	m       map[string]int64
	adds    uint64
	removes uint64
}

func newCounts() *counts { return &counts{m: make(map[string]int64)} }

func (c *counts) apply(rec wal.Record) error {
	if rec.Batch {
		c.m[rec.Key] += int64(rec.Adds) - int64(rec.Removes)
		c.adds += rec.Adds
		c.removes += rec.Removes
		return nil
	}
	if rec.Action == core.ActionAdd {
		c.m[rec.Key]++
		c.adds++
	} else {
		c.m[rec.Key]--
		c.removes++
	}
	return nil
}

func (c *counts) state() *checkpoint.State {
	st := &checkpoint.State{Capacity: 1 << 20, Adds: c.adds, Removes: c.removes}
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st.Keys = append(st.Keys, k)
		st.Freqs = append(st.Freqs, c.m[k])
	}
	return st
}

func (c *counts) restore(st *checkpoint.State) {
	for i, k := range st.Keys {
		c.m[k] = st.Freqs[i]
	}
	c.adds, c.removes = st.Adds, st.Removes
}

func (c *counts) equal(d *counts) bool {
	for k, v := range c.m {
		if v != 0 && d.m[k] != v {
			return false
		}
	}
	for k, v := range d.m {
		if v != 0 && c.m[k] != v {
			return false
		}
	}
	return true
}

// leaderHarness is a Store-backed leader with its replication endpoints on
// an httptest server.
type leaderHarness struct {
	t     *testing.T
	store *checkpoint.Store
	state *counts
	srv   *httptest.Server
}

func newLeader(t *testing.T) *leaderHarness {
	t.Helper()
	dir := t.TempDir()
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := newCounts()
	if s := store.TakeState(); s != nil {
		st.restore(s)
	}
	if _, err := store.ReplayTail(st.apply); err != nil {
		t.Fatal(err)
	}
	h := replication.NewHandler(replication.NewSource(store))
	mux := http.NewServeMux()
	h.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { store.Close() })
	return &leaderHarness{t: t, store: store, state: st, srv: srv}
}

func (l *leaderHarness) add(keys ...string) {
	l.t.Helper()
	for _, k := range keys {
		rec := wal.Record{Key: k, Action: core.ActionAdd}
		if _, err := l.store.Append(rec); err != nil {
			l.t.Fatal(err)
		}
		l.state.apply(rec)
	}
	if err := l.store.Sync(); err != nil {
		l.t.Fatal(err)
	}
}

func (l *leaderHarness) checkpoint() {
	l.t.Helper()
	if err := l.store.Checkpoint(func() (*checkpoint.State, uint64, error) {
		sealed, err := l.store.Rotate()
		if err != nil {
			return nil, 0, err
		}
		return l.state.state(), sealed, nil
	}); err != nil {
		l.t.Fatal(err)
	}
}

// followerHarness recovers a mirror directory read-only and arms a Follower.
type followerHarness struct {
	f     *replication.Follower
	state *counts
}

func newFollowerAt(t *testing.T, leader *leaderHarness, dir string) *followerHarness {
	t.Helper()
	ctx := context.Background()
	var pin string
	var localSeq uint64
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := newCounts()
	if s := store.TakeState(); s != nil {
		st.restore(s)
	} else {
		info, err := replication.Bootstrap(ctx, nil, leader.srv.URL, dir)
		if err != nil {
			t.Fatal(err)
		}
		pin = info.Pin
		store, err = checkpoint.Open(dir, checkpoint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s := store.TakeState(); s != nil {
			st.restore(s)
		}
	}
	localSeq, _ = store.SnapshotMeta()
	_, pos, err := store.ReplayTailReadOnly(st.apply)
	if err != nil {
		t.Fatal(err)
	}
	f, err := replication.NewFollower(replication.Config{
		Leader:       leader.srv.URL,
		Dir:          dir,
		Start:        pos,
		Apply:        st.apply,
		ChunkBytes:   48, // small chunks: cross record and header boundaries
		Pin:          pin,
		LocalSnapSeq: localSeq,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &followerHarness{f: f, state: st}
}

func TestFollowerConvergesAcrossCheckpoints(t *testing.T) {
	leader := newLeader(t)
	leader.add("a", "b", "a", "c")
	leader.checkpoint()
	leader.add("d", "d")

	dir := t.TempDir()
	fo := newFollowerAt(t, leader, dir)
	ctx := context.Background()
	if err := fo.f.CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if !leader.state.equal(fo.state) {
		t.Fatalf("follower state %v != leader state %v", fo.state.m, leader.state.m)
	}
	st := fo.f.Status()
	if !st.CaughtUp {
		t.Fatalf("follower not caught up: %+v", st)
	}
	if st.Written != leader.store.AppendPosition() {
		t.Fatalf("follower at %v, leader at %v", st.Written, leader.store.AppendPosition())
	}

	// More writes and another checkpoint while the follower keeps tailing.
	leader.add("e")
	leader.checkpoint()
	leader.add("f", "f", "f")
	if err := fo.f.CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp after checkpoint: %v", err)
	}
	if !leader.state.equal(fo.state) {
		t.Fatalf("follower diverged after checkpoint: %v vs %v", fo.state.m, leader.state.m)
	}

	// The follower's mirror must itself recover to the same state: reopen it
	// read-only and compare.
	if err := fo.f.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	re := newCounts()
	if s := store.TakeState(); s != nil {
		re.restore(s)
	}
	if _, _, err := store.ReplayTailReadOnly(re.apply); err != nil {
		t.Fatal(err)
	}
	if !leader.state.equal(re) {
		t.Fatalf("recovered mirror %v != leader %v", re.m, leader.state.m)
	}
}

func TestFollowerResumesFromMirror(t *testing.T) {
	leader := newLeader(t)
	leader.add("a", "b")

	dir := t.TempDir()
	fo := newFollowerAt(t, leader, dir)
	if err := fo.f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fo.f.Close(); err != nil {
		t.Fatal(err)
	}

	// New writes while the follower is down; a fresh follower over the same
	// mirror must resume from its position, not refetch history.
	leader.add("c", "d", "c")
	fo2 := newFollowerAt(t, leader, dir)
	if err := fo2.f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !leader.state.equal(fo2.state) {
		t.Fatalf("resumed follower %v != leader %v", fo2.state.m, leader.state.m)
	}
}

func TestFollowerPrunedBehindRequiresSnapshot(t *testing.T) {
	leader := newLeader(t)
	leader.add("a", "b")

	dir := t.TempDir()
	fo := newFollowerAt(t, leader, dir)
	if err := fo.f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fo.f.Close(); err != nil {
		t.Fatal(err)
	}

	// Two checkpoints while the follower sleeps: its segment is pruned.
	leader.add("c")
	leader.checkpoint()
	leader.add("d")
	leader.checkpoint()

	// Resuming blindly from the stale mirror (no re-bootstrap) must surface
	// ErrSnapshotRequired — the leader no longer holds those bytes.
	fo2 := newFollowerAtResume(t, leader, dir, replication.BootstrapInfo{})
	err := fo2.f.CatchUp(context.Background())
	if !errors.Is(err, replication.ErrSnapshotRequired) {
		t.Fatalf("CatchUp over pruned history: got %v, want ErrSnapshotRequired", err)
	}

	// Re-bootstrap: wipe and start over; the follower must converge.
	if err := replication.WipeMirror(dir); err != nil {
		t.Fatal(err)
	}
	fo3 := newFollowerAt(t, leader, dir)
	if err := fo3.f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !leader.state.equal(fo3.state) {
		t.Fatalf("rebootstrapped follower %v != leader %v", fo3.state.m, leader.state.m)
	}
}

func TestBootstrapPinSurvivesCheckpoint(t *testing.T) {
	leader := newLeader(t)
	leader.add("a")
	leader.checkpoint()
	leader.add("b")

	// Bootstrap takes the lease...
	dir := t.TempDir()
	info, err := replication.Bootstrap(context.Background(), nil, leader.srv.URL, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Pin == "" || info.SnapSeq != 1 {
		t.Fatalf("bootstrap info %+v, want pin and snapshot 1", info)
	}
	// ...then the leader checkpoints twice, which would normally prune the
	// tail the bootstrapped snapshot needs. The lease must hold it.
	leader.checkpoint()
	leader.add("c")
	leader.checkpoint()

	fo := newFollowerAtResume(t, leader, dir, info)
	if err := fo.f.CatchUp(context.Background()); err != nil {
		t.Fatalf("CatchUp with pinned tail: %v", err)
	}
	if !leader.state.equal(fo.state) {
		t.Fatalf("pinned bootstrap follower %v != leader %v", fo.state.m, leader.state.m)
	}
}

// newFollowerAtResume arms a follower over an already-bootstrapped mirror,
// carrying the bootstrap lease.
func newFollowerAtResume(t *testing.T, leader *leaderHarness, dir string, info replication.BootstrapInfo) *followerHarness {
	t.Helper()
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := newCounts()
	if s := store.TakeState(); s != nil {
		st.restore(s)
	}
	localSeq, _ := store.SnapshotMeta()
	_, pos, err := store.ReplayTailReadOnly(st.apply)
	if err != nil {
		t.Fatal(err)
	}
	f, err := replication.NewFollower(replication.Config{
		Leader:       leader.srv.URL,
		Dir:          dir,
		Start:        pos,
		Apply:        st.apply,
		ChunkBytes:   48,
		Pin:          info.Pin,
		LocalSnapSeq: localSeq,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &followerHarness{f: f, state: st}
}

func TestLongPollDeliversPromptly(t *testing.T) {
	leader := newLeader(t)
	dir := t.TempDir()
	fo := newFollowerAt(t, leader, dir)
	if err := fo.f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Start a long poll, then append: the poll must return with the bytes
	// well before its 5s window expires.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f2, err := replication.NewFollower(replication.Config{
			Leader:   leader.srv.URL,
			Dir:      t.TempDir(),
			Start:    wal.Position{Segment: 1}, // the leader's first segment
			Apply:    func(wal.Record) error { return nil },
			LongPoll: 5 * time.Second,
		})
		if err != nil {
			done <- err
			return
		}
		defer f2.Close()
		done <- f2.Poll(ctx)
	}()
	time.Sleep(100 * time.Millisecond)
	leader.add("x")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("long poll: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("long poll did not return after new bytes were appended")
	}
}
