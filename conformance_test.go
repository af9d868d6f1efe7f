package sprofile_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sprofile"
	"sprofile/profilertest"
)

// TestProfilerConformance runs the shared conformance battery against every
// sprofile.Profiler implementation in the package, so all variants are held
// to exactly the same update/query/error semantics. Sharded answers, with one
// shard (the "Concurrent" entry is Build with Synchronized) or several, are
// cross-checked against a plain Profile on the same stream by the suite
// itself.
func TestProfilerConformance(t *testing.T) {
	// Window sizes larger than any stream the suite replays: the windowed
	// profile then holds the whole stream and must agree with the reference.
	const conformanceWindow = 1 << 20

	profilertest.Run(t, "Profile", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		return sprofile.New(m, opts...)
	})
	profilertest.Run(t, "Concurrent", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		return sprofile.Build(m, sprofile.Synchronized(), sprofile.WithOptions(opts...))
	})
	for _, shards := range []int{1, 3, 16} {
		profilertest.Run(t, fmt.Sprintf("Sharded-%d", shards), func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
			return sprofile.NewSharded(m, shards, opts...)
		})
	}
	profilertest.Run(t, "Window", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		p, err := sprofile.New(m, opts...)
		if err != nil {
			return nil, err
		}
		return sprofile.NewWindow(p, conformanceWindow)
	})
	profilertest.Run(t, "TimeWindow", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		p, err := sprofile.New(m, opts...)
		if err != nil {
			return nil, err
		}
		return sprofile.NewTimeWindow(p, 24*time.Hour)
	})

	// Builder-assembled variants must behave identically to the hand-built
	// ones above.
	profilertest.Run(t, "Build", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		return sprofile.Build(m, sprofile.WithOptions(opts...))
	})
	profilertest.Run(t, "Build-Sharded", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		return sprofile.Build(m, sprofile.WithSharding(4), sprofile.WithOptions(opts...))
	})
	profilertest.Run(t, "Build-Windowed", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		return sprofile.Build(m, sprofile.Windowed(conformanceWindow), sprofile.WithOptions(opts...))
	})

	// The durable profile is keyed: the one-shard keyed WAL profile runs the
	// battery through the int→string adapter, its keys the decimal ids.
	walDir := t.TempDir()
	walSeq := 0
	profilertest.Run(t, "Build-WAL", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		walSeq++
		path := filepath.Join(walDir, fmt.Sprintf("conformance-%d.wal", walSeq))
		if err := os.RemoveAll(path); err != nil {
			return nil, err
		}
		k, err := sprofile.BuildKeyed[string](m,
			sprofile.Synchronized(),
			sprofile.WithWAL(path),
			sprofile.WithoutKeyRecycling(),
			sprofile.WithOptions(opts...))
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { k.Close() })
		return newKeyedAdapter(intStringKeyed{k}, m)
	})

	// The keyed layers — serial Keyed and the lock-striped KeyedConcurrent —
	// run through the same battery via an adapter that addresses them with
	// their dense ids as keys, so the whole key→id→profile pipeline is held
	// to the reference Profile's semantics.
	profilertest.Run(t, "Keyed", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		p, err := sprofile.New(m, opts...)
		if err != nil {
			return nil, err
		}
		k, err := sprofile.NewKeyedOver[int](p, sprofile.WithoutRecycling())
		if err != nil {
			return nil, err
		}
		return newKeyedAdapter(k, m)
	})
	for _, shards := range []int{1, 4} {
		profilertest.Run(t, fmt.Sprintf("BuildKeyed-%d", shards), func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
			k, err := sprofile.BuildKeyed[int](m,
				sprofile.WithSharding(shards),
				sprofile.WithoutKeyRecycling(),
				sprofile.WithOptions(opts...))
			if err != nil {
				return nil, err
			}
			return newKeyedAdapter(k, m)
		})
	}
}

// keyedAdapter exposes a KeyedProfiler keyed by dense ints as a plain
// Profiler, so the conformance suite can replay its reference streams into
// the keyed pipeline. Every id is pre-tracked (keys are the ids themselves),
// which pins the key↔id translation: a query's representative key must be
// exactly the object the reference profile knows. Recycling is disabled by
// the factories because the reference semantics allow negative frequencies.
type keyedAdapter struct {
	k sprofile.KeyedProfiler[int]
	m int
}

func newKeyedAdapter(k sprofile.KeyedProfiler[int], m int) (*keyedAdapter, error) {
	for x := 0; x < m; x++ {
		if err := k.Track(x); err != nil {
			return nil, err
		}
	}
	return &keyedAdapter{k: k, m: m}, nil
}

func (a *keyedAdapter) check(x int) error {
	if x < 0 || x >= a.m {
		return fmt.Errorf("%w: id %d, capacity %d", sprofile.ErrObjectRange, x, a.m)
	}
	return nil
}

func (a *keyedAdapter) Add(x int) error {
	if err := a.check(x); err != nil {
		return err
	}
	return a.k.Add(x)
}

func (a *keyedAdapter) Remove(x int) error {
	if err := a.check(x); err != nil {
		return err
	}
	return a.k.Remove(x)
}

func (a *keyedAdapter) Apply(t sprofile.Tuple) error {
	switch t.Action {
	case sprofile.ActionAdd:
		return a.Add(t.Object)
	case sprofile.ActionRemove:
		return a.Remove(t.Object)
	default:
		return fmt.Errorf("sprofile: invalid action %d", t.Action)
	}
}

func (a *keyedAdapter) ApplyAll(tuples []sprofile.Tuple) (int, error) {
	for i, t := range tuples {
		if err := a.Apply(t); err != nil {
			return i, err
		}
	}
	return len(tuples), nil
}

func (a *keyedAdapter) Count(x int) (int64, error) {
	if err := a.check(x); err != nil {
		return 0, err
	}
	return a.k.Count(x)
}

func keyedEntryToEntry(e sprofile.KeyedEntry[int]) sprofile.Entry {
	return sprofile.Entry{Object: e.Key, Frequency: e.Frequency}
}

func keyedEntriesToEntries(entries []sprofile.KeyedEntry[int]) []sprofile.Entry {
	if entries == nil {
		return nil
	}
	out := make([]sprofile.Entry, len(entries))
	for i, e := range entries {
		out[i] = keyedEntryToEntry(e)
	}
	return out
}

// mustQuery answers a selection QueryKeys cannot refuse (a positive TopK or
// BottomK, Distribution, Summary), for the getters that return no error.
func (a *keyedAdapter) mustQuery(q sprofile.KeyedQuery[int]) sprofile.KeyedQueryResult[int] {
	res, err := a.k.QueryKeys(q)
	if err != nil {
		panic(fmt.Sprintf("keyedAdapter: QueryKeys(%+v): %v", q, err))
	}
	return res
}

// The getters below each answer one statistic through QueryKeys, the one
// read a keyed profile offers, so the battery checks the read that ships.

func (a *keyedAdapter) Mode() (sprofile.Entry, int, error) {
	res, err := a.k.QueryKeys(sprofile.KeyedQuery[int]{Mode: true})
	if err != nil {
		return sprofile.Entry{}, 0, err
	}
	return keyedEntryToEntry(res.Mode.KeyedEntry), res.Mode.Ties, nil
}

func (a *keyedAdapter) Min() (sprofile.Entry, int, error) {
	res, err := a.k.QueryKeys(sprofile.KeyedQuery[int]{Min: true})
	if err != nil {
		return sprofile.Entry{}, 0, err
	}
	return keyedEntryToEntry(res.Min.KeyedEntry), res.Min.Ties, nil
}

// TopK answers nil for k <= 0, as the getters do: QueryKeys reads a zero k
// as "not requested" and refuses a negative one.
func (a *keyedAdapter) TopK(k int) []sprofile.Entry {
	if k <= 0 {
		return nil
	}
	return keyedEntriesToEntries(a.mustQuery(sprofile.KeyedQuery[int]{TopK: k}).TopK)
}

// BottomK answers nil for k <= 0, like TopK.
func (a *keyedAdapter) BottomK(k int) []sprofile.Entry {
	if k <= 0 {
		return nil
	}
	return keyedEntriesToEntries(a.mustQuery(sprofile.KeyedQuery[int]{BottomK: k}).BottomK)
}

func (a *keyedAdapter) KthLargest(k int) (sprofile.Entry, error) {
	res, err := a.k.QueryKeys(sprofile.KeyedQuery[int]{KthLargest: []int{k}})
	if err != nil {
		return sprofile.Entry{}, err
	}
	return keyedEntryToEntry(res.KthLargest[0]), nil
}

func (a *keyedAdapter) Median() (sprofile.Entry, error) {
	res, err := a.k.QueryKeys(sprofile.KeyedQuery[int]{Median: true})
	if err != nil {
		return sprofile.Entry{}, err
	}
	return keyedEntryToEntry(*res.Median), nil
}

func (a *keyedAdapter) Quantile(q float64) (sprofile.Entry, error) {
	res, err := a.k.QueryKeys(sprofile.KeyedQuery[int]{Quantiles: []float64{q}})
	if err != nil {
		return sprofile.Entry{}, err
	}
	return keyedEntryToEntry(res.Quantiles[0].KeyedEntry), nil
}

func (a *keyedAdapter) Majority() (sprofile.Entry, bool, error) {
	res, err := a.k.QueryKeys(sprofile.KeyedQuery[int]{Majority: true})
	if err != nil || !res.Majority.Majority {
		return sprofile.Entry{}, false, err
	}
	return keyedEntryToEntry(res.Majority.KeyedEntry), true, nil
}

func (a *keyedAdapter) Distribution() []sprofile.FreqCount {
	return a.mustQuery(sprofile.KeyedQuery[int]{Distribution: true}).Distribution
}

func (a *keyedAdapter) Summarize() sprofile.Summary {
	return *a.mustQuery(sprofile.KeyedQuery[int]{Summary: true}).Summary
}

func (a *keyedAdapter) Cap() int     { return a.k.Cap() }
func (a *keyedAdapter) Total() int64 { return a.k.Total() }

// TestRestoredProfilerConformance holds checkpoint recovery to the full
// conformance battery: every query is answered by a profile rebuilt from
// disk — alternating between snapshot-restored (checkpoint, close, reopen)
// and tail-replayed (close, reopen) recovery — and must agree exactly with
// the in-memory reference.
func TestRestoredProfilerConformance(t *testing.T) {
	restoredDir := t.TempDir()
	restoredSeq := 0
	profilertest.Run(t, "BuildKeyed-Restored", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		restoredSeq++
		path := filepath.Join(restoredDir, fmt.Sprintf("keyed-%d.wal", restoredSeq))
		var keyed *sprofile.KeyedConcurrent[string]
		build := func() (sprofile.Profiler, error) {
			k, err := sprofile.BuildKeyed[string](m,
				sprofile.WithSharding(2),
				sprofile.WithoutKeyRecycling(),
				sprofile.WithWAL(path),
				sprofile.WithOptions(opts...))
			if err != nil {
				return nil, err
			}
			keyed = k
			return newKeyedAdapter(intStringKeyed{k}, m)
		}
		cur, err := build()
		if err != nil {
			return nil, err
		}
		return &restoredProfiler{cur: cur, reopen: func(_ sprofile.Profiler, cycle int) (sprofile.Profiler, error) {
			if cycle%2 == 0 {
				if err := keyed.Checkpoint(); err != nil {
					return nil, err
				}
			}
			if err := keyed.Close(); err != nil {
				return nil, err
			}
			return build()
		}}, nil
	})
}

// TestFollowerReplicatedConformance holds the replication pipeline to the
// full conformance battery: every update is journaled by a WAL-backed leader
// and every query is answered by a follower that bootstrapped over HTTP and
// caught up on the leader's log — the replica must agree with the in-memory
// reference exactly, update for update.
func TestFollowerReplicatedConformance(t *testing.T) {
	dir := t.TempDir()
	seq := 0
	profilertest.Run(t, "Follower-Replicated", func(m int, opts ...sprofile.Option) (sprofile.Profiler, error) {
		seq++
		// A capacity-0 profile has nothing to replicate (followers require a
		// positive capacity); the battery only probes its empty-profile error
		// semantics, which the leader alone answers.
		if m == 0 {
			k, err := sprofile.BuildKeyed[string](m, sprofile.WithoutKeyRecycling(), sprofile.WithOptions(opts...))
			if err != nil {
				return nil, err
			}
			return newKeyedAdapter(intStringKeyed{k}, m)
		}
		leader, err := sprofile.BuildKeyed[string](m,
			sprofile.WithSharding(2),
			sprofile.WithoutKeyRecycling(),
			sprofile.WithWAL(filepath.Join(dir, fmt.Sprintf("leader-%d", seq))),
			sprofile.WithOptions(opts...))
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { leader.Close() })
		feed := leader.ReplicationHandler()
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/replication/snapshot", feed.ServeSnapshot)
		mux.HandleFunc("/v1/replication/wal", feed.ServeWAL)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)

		kf, err := sprofile.NewKeyedFollower(sprofile.FollowerConfig{
			Capacity: m,
			Leader:   ts.URL,
			Dir:      filepath.Join(dir, fmt.Sprintf("mirror-%d", seq)),
			Build: []sprofile.BuildOption{
				sprofile.WithSharding(2),
				sprofile.WithoutKeyRecycling(),
				sprofile.WithOptions(opts...),
			},
		})
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { kf.Close() })

		// catchUp converges the replica on everything the leader has journaled
		// and wraps its profile for the battery; pre-tracking the full key
		// space is a replica-local freq-0 id assignment, needed because keys
		// the stream never touched are not replicated yet must answer queries.
		catchUp := func() (sprofile.Profiler, error) {
			// Library-level updates buffer in the leader's WAL until a sync;
			// the replication feed only ships flushed bytes (the HTTP server
			// syncs per batch, making every acked write fetchable).
			if err := leader.Sync(); err != nil {
				return nil, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := kf.CatchUp(ctx); err != nil {
				return nil, err
			}
			return newKeyedAdapter(intStringKeyed{kf.Profile()}, m)
		}
		writer, err := newKeyedAdapter(intStringKeyed{leader}, m)
		if err != nil {
			return nil, err
		}
		cur, err := catchUp()
		if err != nil {
			return nil, err
		}
		return &restoredProfiler{cur: cur, writer: writer, reopen: func(sprofile.Profiler, int) (sprofile.Profiler, error) {
			return catchUp()
		}}, nil
	})
}

// restoredProfiler routes every query through a profile recovered from
// disk: after any update, the next query first hands the current profiler to
// reopen, which persists it (checkpointing on alternating cycles), tears it
// down, and rebuilds it from the snapshot and/or log tail. When writer is
// non-nil the updates go there instead of cur — the replication factory uses
// this to write through a leader while every query is answered by a replica.
type restoredProfiler struct {
	reopen func(cur sprofile.Profiler, cycle int) (sprofile.Profiler, error)
	cur    sprofile.Profiler
	writer sprofile.Profiler
	cycle  int
	dirty  bool
}

// sink is where updates land: the leader when the reads are replicated,
// otherwise the current profile itself.
func (r *restoredProfiler) sink() sprofile.Profiler {
	if r.writer != nil {
		return r.writer
	}
	return r.cur
}

func (r *restoredProfiler) refresh() {
	if !r.dirty {
		return
	}
	p, err := r.reopen(r.cur, r.cycle)
	if err != nil {
		panic(fmt.Sprintf("restoredProfiler: recovery failed: %v", err))
	}
	r.cur = p
	r.cycle++
	r.dirty = false
}

func (r *restoredProfiler) Add(x int) error {
	r.dirty = true
	return r.sink().Add(x)
}

func (r *restoredProfiler) Remove(x int) error {
	r.dirty = true
	return r.sink().Remove(x)
}

func (r *restoredProfiler) Apply(t sprofile.Tuple) error {
	r.dirty = true
	return r.sink().Apply(t)
}

func (r *restoredProfiler) ApplyAll(tuples []sprofile.Tuple) (int, error) {
	r.dirty = true
	return r.sink().ApplyAll(tuples)
}

func (r *restoredProfiler) Count(x int) (int64, error) {
	r.refresh()
	return r.cur.Count(x)
}

func (r *restoredProfiler) Mode() (sprofile.Entry, int, error) {
	r.refresh()
	return r.cur.Mode()
}

func (r *restoredProfiler) Min() (sprofile.Entry, int, error) {
	r.refresh()
	return r.cur.Min()
}

func (r *restoredProfiler) TopK(k int) []sprofile.Entry {
	r.refresh()
	return r.cur.TopK(k)
}

func (r *restoredProfiler) BottomK(k int) []sprofile.Entry {
	r.refresh()
	return r.cur.BottomK(k)
}

func (r *restoredProfiler) KthLargest(k int) (sprofile.Entry, error) {
	r.refresh()
	return r.cur.KthLargest(k)
}

func (r *restoredProfiler) Median() (sprofile.Entry, error) {
	r.refresh()
	return r.cur.Median()
}

func (r *restoredProfiler) Quantile(q float64) (sprofile.Entry, error) {
	r.refresh()
	return r.cur.Quantile(q)
}

func (r *restoredProfiler) Majority() (sprofile.Entry, bool, error) {
	r.refresh()
	return r.cur.Majority()
}

func (r *restoredProfiler) Distribution() []sprofile.FreqCount {
	r.refresh()
	return r.cur.Distribution()
}

func (r *restoredProfiler) Summarize() sprofile.Summary {
	r.refresh()
	return r.cur.Summarize()
}

func (r *restoredProfiler) Cap() int {
	r.refresh()
	return r.cur.Cap()
}

func (r *restoredProfiler) Total() int64 {
	r.refresh()
	return r.cur.Total()
}

// intStringKeyed adapts a string-keyed profile to the int-keyed interface
// the conformance adapter wants, so WAL-backed keyed profiles, whose log
// stores string keys, can run the dense-id battery.
type intStringKeyed struct {
	k sprofile.KeyedProfiler[string]
}

func intKey(x int) string { return fmt.Sprintf("%d", x) }

func stringEntryToInt(e sprofile.KeyedEntry[string]) sprofile.KeyedEntry[int] {
	var key int
	fmt.Sscanf(e.Key, "%d", &key)
	return sprofile.KeyedEntry[int]{Key: key, Frequency: e.Frequency}
}

func (v intStringKeyed) Add(x int) error                      { return v.k.Add(intKey(x)) }
func (v intStringKeyed) Remove(x int) error                   { return v.k.Remove(intKey(x)) }
func (v intStringKeyed) Apply(x int, a sprofile.Action) error { return v.k.Apply(intKey(x), a) }
func (v intStringKeyed) Track(x int) error                    { return v.k.Track(intKey(x)) }
func (v intStringKeyed) Count(x int) (int64, error)           { return v.k.Count(intKey(x)) }
func (v intStringKeyed) Cap() int                             { return v.k.Cap() }
func (v intStringKeyed) Tracked() int                         { return v.k.Tracked() }
func (v intStringKeyed) Total() int64                         { return v.k.Total() }

func stringEntriesToInt(entries []sprofile.KeyedEntry[string]) []sprofile.KeyedEntry[int] {
	if entries == nil {
		return nil
	}
	out := make([]sprofile.KeyedEntry[int], len(entries))
	for i, e := range entries {
		out[i] = stringEntryToInt(e)
	}
	return out
}

func (v intStringKeyed) QueryKeys(q sprofile.KeyedQuery[int]) (sprofile.KeyedQueryResult[int], error) {
	sq := sprofile.KeyedQuery[string]{
		Mode:         q.Mode,
		Min:          q.Min,
		TopK:         q.TopK,
		BottomK:      q.BottomK,
		KthLargest:   q.KthLargest,
		Median:       q.Median,
		Quantiles:    q.Quantiles,
		Majority:     q.Majority,
		Distribution: q.Distribution,
		Summary:      q.Summary,
	}
	for _, key := range q.Count {
		sq.Count = append(sq.Count, intKey(key))
	}
	sres, err := v.k.QueryKeys(sq)
	if err != nil {
		return sprofile.KeyedQueryResult[int]{}, err
	}
	out := sprofile.KeyedQueryResult[int]{
		Counts:       stringEntriesToInt(sres.Counts),
		TopK:         stringEntriesToInt(sres.TopK),
		BottomK:      stringEntriesToInt(sres.BottomK),
		KthLargest:   stringEntriesToInt(sres.KthLargest),
		Distribution: sres.Distribution,
		Summary:      sres.Summary,
		Tracked:      sres.Tracked,
	}
	if sres.Mode != nil {
		out.Mode = &sprofile.KeyedExtreme[int]{KeyedEntry: stringEntryToInt(sres.Mode.KeyedEntry), Ties: sres.Mode.Ties}
	}
	if sres.Min != nil {
		out.Min = &sprofile.KeyedExtreme[int]{KeyedEntry: stringEntryToInt(sres.Min.KeyedEntry), Ties: sres.Min.Ties}
	}
	if sres.Median != nil {
		e := stringEntryToInt(*sres.Median)
		out.Median = &e
	}
	if len(sres.Quantiles) > 0 {
		out.Quantiles = make([]sprofile.KeyedQuantile[int], len(sres.Quantiles))
		for i, qe := range sres.Quantiles {
			out.Quantiles[i] = sprofile.KeyedQuantile[int]{Q: qe.Q, KeyedEntry: stringEntryToInt(qe.KeyedEntry)}
		}
	}
	if sres.Majority != nil {
		out.Majority = &sprofile.KeyedMajority[int]{KeyedEntry: stringEntryToInt(sres.Majority.KeyedEntry), Majority: sres.Majority.Majority}
	}
	return out, nil
}

var _ sprofile.KeyedProfiler[int] = intStringKeyed{}
