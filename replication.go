package sprofile

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sprofile/internal/checkpoint"
	"sprofile/internal/replication"
)

// ReplicationStatus is the staleness watermark of a replicated profile: the
// WAL position the answering node has applied and how stale it may be
// relative to the leader. It rides on KeyedQueryResult and /healthz so every
// read can be judged against a freshness budget.
//
// On a leader, Segment/Offset are the append position and StalenessMs is 0.
// On a follower, StalenessMs is the wall-clock bound on how far behind the
// answer may be: time elapsed since the last instant the follower provably
// held every write the leader had acknowledged. It grows while the leader is
// unreachable — it measures doubt, not confirmed lag.
type ReplicationStatus struct {
	Role          string `json:"role"` // "leader" or "follower"
	Segment       uint64 `json:"segment"`
	Offset        int64  `json:"offset"`
	LeaderSegment uint64 `json:"leader_segment,omitempty"`
	LeaderOffset  int64  `json:"leader_offset,omitempty"`
	// LagBytes is the byte lag within the leader's current segment, or -1
	// when the follower is one or more whole segments behind.
	LagBytes    int64  `json:"lag_bytes"`
	StalenessMs int64  `json:"staleness_ms"`
	CaughtUp    bool   `json:"caught_up"`
	Leader      string `json:"leader,omitempty"` // leader base URL (followers)
	Records     uint64 `json:"records,omitempty"`
}

// WALStats is a point-in-time picture of a durable profile's log and
// checkpoint state, for health endpoints.
type WALStats struct {
	Segment        uint64    // current append segment id
	Offset         int64     // bytes of that segment on disk
	Segments       int       // segment files in the directory
	Fsyncs         uint64    // record-durability fsyncs issued
	TailBytes      int64     // log bytes not yet covered by a snapshot
	SnapshotSeq    uint64    // latest snapshot sequence (0 = none)
	LastCheckpoint time.Time // when that snapshot was published
}

// WALStats reports the durability layer's state; ok is false without
// WithWAL.
func (k *KeyedConcurrent[K]) WALStats() (stats WALStats, ok bool) {
	if k.store == nil {
		return WALStats{}, false
	}
	pos := k.store.AppendPosition()
	seq, _ := k.store.SnapshotMeta()
	return WALStats{
		Segment:        pos.Segment,
		Offset:         pos.Offset,
		Segments:       k.store.SegmentCount(),
		Fsyncs:         k.store.Fsyncs(),
		TailBytes:      k.store.TailBytes(),
		SnapshotSeq:    seq,
		LastCheckpoint: k.store.LastCheckpoint(),
	}, true
}

// replicationSource exposes the store to the internal replication handler;
// nil without WithWAL. (Internal: the server package reaches it through
// NewReplicationHandler-style glue, not application code.)
func (k *KeyedConcurrent[K]) replicationSource() *replication.Source {
	if k.store == nil {
		return nil
	}
	return replication.NewSource(k.store)
}

// ReplicationHandler returns the HTTP handler serving this profile's WAL to
// followers (GET /v1/replication/snapshot and GET /v1/replication/wal), or
// nil when the profile has no WAL to ship.
func (k *KeyedConcurrent[K]) ReplicationHandler() *replication.Handler {
	src := k.replicationSource()
	if src == nil {
		return nil
	}
	return replication.NewHandler(src)
}

// LeaderReplicationStatus is the watermark a WAL-backed leader attaches to
// its answers; ok is false without WithWAL.
func (k *KeyedConcurrent[K]) LeaderReplicationStatus() (st ReplicationStatus, ok bool) {
	if k.store == nil {
		return ReplicationStatus{}, false
	}
	pos := k.store.AppendPosition()
	return ReplicationStatus{
		Role:     "leader",
		Segment:  pos.Segment,
		Offset:   pos.Offset,
		CaughtUp: true,
	}, true
}

// FollowerConfig configures NewKeyedFollower.
type FollowerConfig struct {
	// Capacity is the profile capacity m, matching the leader's.
	Capacity int
	// Leader is the leader's base URL.
	Leader string
	// Dir is the local mirror directory.
	Dir string
	// HTTPClient overrides http.DefaultClient for replication traffic.
	HTTPClient *http.Client
	// LongPoll is the tail wait asked of the leader per poll (default 20s).
	LongPoll time.Duration
	// Build configures the profile (sharding, key recycling, profile
	// options). NewKeyedFollower rejects the journal options WithWAL,
	// WithWALSyncEvery and WithCheckpoints here with ErrBuildConfig: the
	// mirror directory is managed by the follower, which replays it itself,
	// and only Promote opens it for appending.
	Build []BuildOption
	// Promote is appended to Build, together with WithWAL(Dir), when the
	// follower is promoted — the place for WithWALSyncEvery and
	// WithCheckpoints, which only apply to a leader.
	Promote []BuildOption
}

// KeyedFollower is a read-only replica of a leader's KeyedConcurrent[string]
// profile. It bootstraps from the leader's snapshot, mirrors the WAL
// byte-for-byte into its local directory (which therefore stays a valid
// checkpointed log directory at every instant), applies each record as it
// completes, and can promote to a full leader by running the ordinary
// recovery path over the mirror.
//
// Reads go through Profile(); updates on that profile are not journaled and
// must not happen — servers enforce this by rejecting writes upfront.
type KeyedFollower struct {
	cfg FollowerConfig

	cur atomic.Pointer[KeyedConcurrent[string]]

	// lifecycle is the single-owner lock over rebootstraps, promote, and
	// start/stop; the polling loop coordinates through it too.
	lifecycle sync.Mutex
	follower  *replication.Follower
	localSeq  uint64
	promoted  *KeyedConcurrent[string]
	cancel    context.CancelFunc
	done      chan struct{}

	lastErr atomic.Pointer[followerErr]

	// unregMetrics removes this follower from the scrape-time gauge
	// aggregation; set at construction, run once by Close.
	unregMetrics func()
}

type followerErr struct{ err error }

// NewKeyedFollower bootstraps (or resumes) the mirror in cfg.Dir from
// cfg.Leader and builds the replica profile from it. The returned follower
// is not yet polling: call Start for continuous replication or CatchUp for
// one-shot convergence.
func NewKeyedFollower(cfg FollowerConfig) (*KeyedFollower, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("%w: follower capacity must be positive, got %d", ErrBuildConfig, cfg.Capacity)
	}
	if cfg.Leader == "" || cfg.Dir == "" {
		return nil, fmt.Errorf("%w: follower needs both a leader URL and a mirror directory", ErrBuildConfig)
	}
	// A journal in Build would replay the mirror a second time on top of the
	// follower's own read-only replay.
	bc := newBuildConfig(cfg.Build)
	if opt := bc.journalOption(); opt != "" {
		return nil, fmt.Errorf("%w: %s cannot configure a follower, which replays its mirror in Dir itself; leader options go in Promote", ErrBuildConfig, opt)
	}
	if cfg.LongPoll <= 0 {
		cfg.LongPoll = 20 * time.Second
	}
	kf := &KeyedFollower{cfg: cfg}
	if err := kf.buildReplica(context.Background(), false); err != nil {
		return nil, err
	}
	kf.unregMetrics = registerFollower(kf.Status)
	return kf, nil
}

// buildReplica (re)constructs the replica: optionally wipe the mirror,
// bootstrap a snapshot if the mirror is empty, run read-only recovery over
// the mirror, and arm a Follower at the recovered position. Callers hold
// lifecycle (or are the constructor).
func (kf *KeyedFollower) buildReplica(ctx context.Context, wipe bool) error {
	if old := kf.follower; old != nil {
		old.Close()
		kf.follower = nil
	}
	if wipe {
		if err := replication.WipeMirror(kf.cfg.Dir); err != nil {
			return err
		}
		mReplRebootstraps.Inc()
	}
	if err := os.MkdirAll(kf.cfg.Dir, 0o755); err != nil {
		return err
	}
	var pin string
	if empty, err := mirrorEmpty(kf.cfg.Dir); err != nil {
		return err
	} else if empty {
		info, err := replication.Bootstrap(ctx, kf.cfg.HTTPClient, kf.cfg.Leader, kf.cfg.Dir)
		if err != nil {
			return fmt.Errorf("sprofile: bootstrapping from %s: %w", kf.cfg.Leader, err)
		}
		pin = info.Pin
	}

	store, err := checkpoint.Open(kf.cfg.Dir, checkpoint.Options{})
	if err != nil {
		return fmt.Errorf("sprofile: opening mirror %s: %w", kf.cfg.Dir, err)
	}
	cfg := newBuildConfig(kf.cfg.Build)
	profile, err := newKeyed[string](kf.cfg.Capacity, cfg)
	if err != nil {
		return err
	}
	if err := profile.load(store.TakeState(), cfg); err != nil {
		return fmt.Errorf("sprofile: restoring mirror snapshot: %w", err)
	}
	_, pos, err := store.ReplayTailReadOnly(profile.applyWALRecord)
	if err != nil {
		return fmt.Errorf("sprofile: replaying mirror %s: %w", kf.cfg.Dir, err)
	}
	profile.replayed = store.Stats().TailRecords
	profile.stats = recoveryStats(store.Stats())
	localSeq, _ := store.SnapshotMeta()

	f, err := replication.NewFollower(replication.Config{
		Leader:       kf.cfg.Leader,
		Dir:          kf.cfg.Dir,
		Start:        pos,
		Apply:        profile.applyWALRecord,
		HTTPClient:   kf.cfg.HTTPClient,
		LongPoll:     kf.cfg.LongPoll,
		Pin:          pin,
		LocalSnapSeq: localSeq,
	})
	if err != nil {
		return err
	}
	kf.follower = f
	kf.localSeq = localSeq
	kf.cur.Store(profile)
	return nil
}

// mirrorEmpty reports whether dir holds no snapshot and no segment — i.e. a
// bootstrap is needed before recovery can position the mirror.
func mirrorEmpty(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if (len(name) > 4 && name[len(name)-4:] == ".seg") || (len(name) > 4 && name[len(name)-4:] == ".sks") {
			return false, nil
		}
	}
	return true, nil
}

// Profile returns the current replica profile. The pointer changes on
// rebootstrap and on Promote; callers should re-fetch it per operation, not
// cache it.
func (kf *KeyedFollower) Profile() *KeyedConcurrent[string] { return kf.cur.Load() }

// LastError returns the most recent replication loop failure (transient
// errors included); nil while the loop is healthy.
func (kf *KeyedFollower) LastError() error {
	if e := kf.lastErr.Load(); e != nil {
		return e.err
	}
	return nil
}

// Status reports the replica's staleness watermark.
func (kf *KeyedFollower) Status() ReplicationStatus {
	kf.lifecycle.Lock()
	promoted := kf.promoted
	f := kf.follower
	kf.lifecycle.Unlock()
	if promoted != nil {
		st, _ := promoted.LeaderReplicationStatus()
		return st
	}
	if f == nil {
		return ReplicationStatus{Role: "follower", Leader: kf.cfg.Leader}
	}
	s := f.Status()
	st := ReplicationStatus{
		Role:          "follower",
		Segment:       s.Applied.Segment,
		Offset:        s.Applied.Offset,
		LeaderSegment: s.Leader.Segment,
		LeaderOffset:  s.Leader.Offset,
		LagBytes:      -1,
		CaughtUp:      s.CaughtUp,
		Leader:        kf.cfg.Leader,
		Records:       s.Records,
	}
	if s.Written.Segment == s.Leader.Segment {
		st.LagBytes = s.Leader.Offset - s.Written.Offset
		if st.LagBytes < 0 {
			st.LagBytes = 0
		}
	}
	if !s.FreshAsOf.IsZero() {
		st.StalenessMs = time.Since(s.FreshAsOf).Milliseconds()
	}
	return st
}

// CatchUp drives the mirror until it covers the leader's append position,
// rebootstrapping from a fresh snapshot if the leader pruned past the
// mirror. It is the synchronous alternative to Start (tests and one-shot
// replicas use it); do not mix it with a running Start loop.
func (kf *KeyedFollower) CatchUp(ctx context.Context) error {
	for {
		kf.lifecycle.Lock()
		f, promoted := kf.follower, kf.promoted
		kf.lifecycle.Unlock()
		if promoted != nil {
			return errFollowerPromoted
		}
		var err error
		if f == nil {
			// A previous rebootstrap failed; try again.
			kf.lifecycle.Lock()
			err = kf.buildReplica(ctx, true)
			kf.lifecycle.Unlock()
			if err != nil {
				return err
			}
			continue
		}
		err = f.CatchUp(ctx)
		if errors.Is(err, replication.ErrSnapshotRequired) {
			kf.lifecycle.Lock()
			err = kf.buildReplica(ctx, true)
			kf.lifecycle.Unlock()
			if err != nil {
				return err
			}
			continue
		}
		return err
	}
}

// Start launches the continuous replication loop. Transient leader failures
// are retried with backoff (and surface through LastError and the staleness
// watermark); a pruned-past-us leader triggers an automatic rebootstrap.
func (kf *KeyedFollower) Start() {
	kf.lifecycle.Lock()
	defer kf.lifecycle.Unlock()
	if kf.cancel != nil || kf.promoted != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	kf.cancel = cancel
	kf.done = make(chan struct{})
	done := kf.done
	go pprof.Do(ctx, pprof.Labels("sprofile_plane", "follower"), func(ctx context.Context) {
		kf.loop(ctx, done)
	})
}

func (kf *KeyedFollower) loop(ctx context.Context, done chan struct{}) {
	defer close(done)
	backoff := 100 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for ctx.Err() == nil {
		kf.lifecycle.Lock()
		f := kf.follower
		kf.lifecycle.Unlock()
		var err error
		if f == nil {
			// A previous rebootstrap failed; retry it.
			kf.lifecycle.Lock()
			err = kf.buildReplica(ctx, true)
			kf.lifecycle.Unlock()
		} else {
			err = f.Poll(ctx)
		}
		if err == nil {
			kf.lastErr.Store(nil)
			backoff = 100 * time.Millisecond
			continue
		}
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, replication.ErrSnapshotRequired) {
			kf.lifecycle.Lock()
			err = kf.buildReplica(ctx, true)
			kf.lifecycle.Unlock()
		}
		if err != nil {
			kf.lastErr.Store(&followerErr{err: err})
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
}

// Stop halts the replication loop (if running) without closing anything;
// replication can resume with Start.
func (kf *KeyedFollower) Stop() {
	kf.lifecycle.Lock()
	cancel, done := kf.cancel, kf.done
	kf.cancel, kf.done = nil, nil
	kf.lifecycle.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// Promote turns the replica into a leader: the polling loop stops, the
// mirror file is fsynced shut, and a fresh KeyedConcurrent is built over the
// mirror directory via the ordinary recovery path — WithWAL(dir) plus the
// configured Promote options — so the new leader appends to the very log it
// was mirroring and can itself serve replication. Returns the promoted
// profile (idempotent: repeat calls return the same one).
func (kf *KeyedFollower) Promote() (*KeyedConcurrent[string], error) {
	kf.Stop()
	kf.lifecycle.Lock()
	defer kf.lifecycle.Unlock()
	if kf.promoted != nil {
		return kf.promoted, nil
	}
	if kf.follower != nil {
		if err := kf.follower.Close(); err != nil {
			return nil, err
		}
		kf.follower = nil
	}
	opts := append(append([]BuildOption{}, kf.cfg.Build...), WithWAL(kf.cfg.Dir))
	opts = append(opts, kf.cfg.Promote...)
	leader, err := BuildKeyed[string](kf.cfg.Capacity, opts...)
	if err != nil {
		return nil, fmt.Errorf("sprofile: promoting follower over %s: %w", kf.cfg.Dir, err)
	}
	kf.promoted = leader
	kf.cur.Store(leader)
	return leader, nil
}

// Promoted reports whether Promote has completed.
func (kf *KeyedFollower) Promoted() bool {
	kf.lifecycle.Lock()
	defer kf.lifecycle.Unlock()
	return kf.promoted != nil
}

// Close stops replication and closes the mirror (or, after Promote, the
// promoted profile's log).
func (kf *KeyedFollower) Close() error {
	kf.Stop()
	kf.lifecycle.Lock()
	defer kf.lifecycle.Unlock()
	if kf.unregMetrics != nil {
		kf.unregMetrics()
		kf.unregMetrics = nil
	}
	if kf.follower != nil {
		if err := kf.follower.Close(); err != nil {
			return err
		}
		kf.follower = nil
	}
	if kf.promoted != nil {
		return kf.promoted.Close()
	}
	return nil
}
