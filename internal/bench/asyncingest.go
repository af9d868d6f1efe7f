package bench

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"sprofile"
	"sprofile/internal/stream"
)

// The async-ingest experiment's methods. locked-striped is the baseline the
// async plane is measured against: the same keyed profile (BuildKeyed at
// asyncIngestShards stripes and shards), updated directly by the producer
// goroutines through its stripe and shard locks. async-mailbox builds that
// profile with BuildKeyedAsync and routes the same events through
// per-producer SPSC mailboxes and one applier per stripe, so producers never
// touch a lock and each drain is applied through ApplyBatch.
const (
	MethodLockedStriped Method = "locked-striped"
	MethodAsyncMailbox  Method = "async-mailbox"
)

// Methods of the query-latency panel: p50 of a composite keyed query against
// an idle async profile vs the same query while every producer ingests full
// tilt.
const (
	MethodQueryIdle   Method = "query-idle-p50"
	MethodQueryIngest Method = "query-under-ingest-p50"
)

// asyncIngestProducers is the producer-count sweep of both panels.
var asyncIngestProducers = []int{1, 2, 4}

// asyncIngestShards fixes the stripe (and shard) count; the acceptance
// comparison is at 4 producers x 4 stripes.
const asyncIngestShards = 4

// asyncIngestHot bounds the hot-key set: ingest draws uniformly from
// m/asyncIngestHot keys, the skew that lets the appliers' coalesced drains
// pay off (the shape the paper's stream generators model).
const asyncIngestHot = 1000

// asyncIngestQuery is the composite query of the latency panel: the
// statistics a dashboard asks for in one request.
var asyncIngestQuery = sprofile.KeyedQuery[string]{Mode: true, TopK: 10, Quantiles: []float64{0.5, 0.99}, Summary: true}

// hotKeys returns the hot-key set of a profile of capacity m, built before
// any clock starts so key formatting is not measured.
func hotKeys(m int) []string {
	keys := make([]string, max(m/asyncIngestHot, 1))
	for i := range keys {
		keys[i] = "obj-" + strconv.Itoa(i)
	}
	return keys
}

// addHot adds count hot keys drawn from rng through add.
func addHot(add func(string) error, keys []string, rng *stream.RNG, count int) error {
	for i := 0; i < count; i++ {
		if err := add(keys[rng.Intn(len(keys))]); err != nil {
			return err
		}
	}
	return nil
}

// measureAsyncIngest ingests n add events from `producers` goroutines into a
// keyed profile of capacity m, either directly (locked-striped: every
// producer calls Add) or through the async plane (async-mailbox: one
// Producer handle per goroutine, and the clock includes the final Flush, so
// every event is applied when it stops). Construction is included,
// mirroring Measure's protocol; teardown is not.
func measureAsyncIngest(method Method, m, producers, n int, seed uint64) (float64, error) {
	keys := hotKeys(m)
	per := n / producers
	start := time.Now()

	var (
		locked *sprofile.KeyedConcurrent[string]
		async  *sprofile.AsyncKeyed[string]
		err    error
	)
	if method == MethodAsyncMailbox {
		async, err = sprofile.BuildKeyedAsync[string](m, sprofile.AsyncPolicy{}, sprofile.WithSharding(asyncIngestShards))
	} else {
		locked, err = sprofile.BuildKeyed[string](m, sprofile.WithSharding(asyncIngestShards))
	}
	if err != nil {
		return 0, err
	}

	var wg sync.WaitGroup
	errs := make([]error, producers)
	for w := 0; w < producers; w++ {
		count := per
		if w == producers-1 {
			count = n - per*(producers-1)
		}
		wg.Add(1)
		go func(w, count int) {
			defer wg.Done()
			rng := stream.NewRNG(seed + uint64(w)*2654435761)
			if async == nil {
				errs[w] = addHot(locked.Add, keys, rng, count)
				return
			}
			h, err := async.Producer()
			if err != nil {
				errs[w] = err
				return
			}
			defer h.Close()
			errs[w] = addHot(h.Add, keys, rng, count)
		}(w, count)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if async != nil {
		// The clock stops only once every enqueued event is applied — the
		// async column never gets credit for work still sitting in a mailbox.
		if err := async.Flush(); err != nil {
			return 0, err
		}
		elapsed = time.Since(start)
		if err := async.Close(); err != nil {
			return 0, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed.Seconds(), nil
}

// measureQueryP50 returns the median latency, in seconds, of
// asyncIngestQuery against an async keyed profile of capacity m, optionally
// while `producers` goroutines ingest continuously.
func measureQueryP50(m, producers, samples int, seed uint64) (float64, error) {
	keys := hotKeys(m)
	a, err := sprofile.BuildKeyedAsync[string](m, sprofile.AsyncPolicy{}, sprofile.WithSharding(asyncIngestShards))
	if err != nil {
		return 0, err
	}
	defer a.Close()

	// Seed the profile so the queries have state to summarise.
	if err := addHot(a.Add, keys, stream.NewRNG(seed), m); err != nil {
		return 0, err
	}
	if err := a.Flush(); err != nil {
		return 0, err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, err := a.Producer()
			if err != nil {
				return
			}
			defer h.Close()
			rng := stream.NewRNG(seed + uint64(w+1)*40503)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = addHot(h.Add, keys, rng, 1)
			}
		}(w)
	}

	lat := make([]float64, samples)
	for i := range lat {
		t0 := time.Now()
		if _, err := a.QueryKeys(asyncIngestQuery); err != nil {
			close(stop)
			wg.Wait()
			return 0, err
		}
		lat[i] = time.Since(t0).Seconds()
	}
	close(stop)
	wg.Wait()
	sort.Float64s(lat)
	return lat[len(lat)/2], nil
}

// AsyncIngest measures the keyed async ingest plane against the locked
// striped baseline: the left panel sweeps the producer count at 4 stripes
// and reports wall-clock seconds for n hot-key add events (async includes
// its final Flush); the right panel reports the p50 latency of a composite
// keyed query against an idle async profile vs under full-tilt ingest from
// the same producer counts — the bounded-staleness reads are supposed to
// stay flat because queries never take an ingest lock. Single-core hosts
// timeshare the producers and appliers, so the async column shows the
// coalescing win there rather than parallel speedup; record GOMAXPROCS with
// the numbers.
func AsyncIngest(scale Scale) ([]*Result, error) {
	n := scale.Figure4N
	m := scale.Figure6M

	ingest := &Result{
		ID: "async-ingest",
		Title: fmt.Sprintf("keyed ingest, locked striped vs async mailboxes, n=%d, m=%d, %d stripes, %d hot string keys",
			n, m, asyncIngestShards, len(hotKeys(m))),
		XLabel:  "producers",
		Methods: []Method{MethodLockedStriped, MethodAsyncMailbox},
	}
	// Wall-clock single shots are noisy (GC, neighbours); the best of five
	// runs is the usual low-noise estimate for each cell.
	const repeats = 5
	for _, producers := range asyncIngestProducers {
		point := Point{X: int64(producers), Seconds: make(map[Method]float64, 2)}
		for _, method := range ingest.Methods {
			best := 0.0
			for rep := 0; rep < repeats; rep++ {
				secs, err := measureAsyncIngest(method, m, producers, n, scale.Seed)
				if err != nil {
					return nil, fmt.Errorf("async-ingest: producers=%d method=%s: %w", producers, method, err)
				}
				if best == 0 || secs < best {
					best = secs
				}
			}
			point.Seconds[method] = best
		}
		ingest.Points = append(ingest.Points, point)
	}
	sortPoints(ingest.Points)

	samples := n / 500
	if samples < 20 {
		samples = 20
	}
	if samples > 500 {
		samples = 500
	}
	query := &Result{
		ID: "async-ingest-query",
		Title: fmt.Sprintf("composite keyed query p50 (mode, top-10, p50/p99, summary) on the async plane, idle vs under ingest, m=%d, %d stripes, %d samples",
			m, asyncIngestShards, samples),
		XLabel:  "producers",
		Methods: []Method{MethodQueryIdle, MethodQueryIngest},
	}
	for _, producers := range asyncIngestProducers {
		point := Point{X: int64(producers), Seconds: make(map[Method]float64, 2)}
		idle, err := measureQueryP50(m, 0, samples, scale.Seed)
		if err != nil {
			return nil, fmt.Errorf("async-ingest-query: idle: %w", err)
		}
		under, err := measureQueryP50(m, producers, samples, scale.Seed)
		if err != nil {
			return nil, fmt.Errorf("async-ingest-query: producers=%d: %w", producers, err)
		}
		point.Seconds[MethodQueryIdle] = idle
		point.Seconds[MethodQueryIngest] = under
		query.Points = append(query.Points, point)
	}
	sortPoints(query.Points)

	return []*Result{ingest, query}, nil
}
