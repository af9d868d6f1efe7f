// Benchmarks reproducing the paper's evaluation figures (§3) and the
// harness's additional ablation studies, in idiomatic testing.B form: each
// benchmark reports nanoseconds per log-stream tuple (including the per-tuple
// statistic query) for every method, at the sweep points of the corresponding
// figure.
//
// The mapping to the paper:
//
//	BenchmarkFigure3_ModeVsN     – Fig. 3: mode maintenance, heap vs S-Profile, per stream (time vs n)
//	BenchmarkFigure4_ModeVsM     – Fig. 4: mode maintenance, heap vs S-Profile (time vs m)
//	BenchmarkFigure5_TrendVsM    – Fig. 5: flat-vs-growing trend on stream1 (time vs m)
//	BenchmarkFigure6_MedianVsN   – Fig. 6 left:  median maintenance, balanced tree vs S-Profile (vs n)
//	BenchmarkFigure6_MedianVsM   – Fig. 6 right: median maintenance, balanced tree vs S-Profile (vs m)
//
// Because per-tuple cost is what the figures plot (total seconds divided by a
// fixed n, or growing with m), ns/op comparisons across methods and across
// sweep points reproduce the figures' shapes directly. cmd/sprofile-bench
// runs the same experiments in wall-clock form and prints the paper-style
// tables.
package sprofile_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"sprofile"
	"sprofile/internal/bench"
	"sprofile/internal/core"
	"sprofile/internal/graph"
	"sprofile/internal/profiler"
	"sprofile/internal/stream"
	"sprofile/internal/wal"
	"sprofile/internal/window"
)

// benchSink prevents dead-code elimination of per-tuple query results.
var benchSink int64

// queryResultSink forces composite-vs-individual benchmark results to escape
// identically.
var queryResultSink sprofile.QueryResult

// pregenerate materialises up to limit tuples of a workload; the benchmark
// loop cycles through them so stream generation stays out of the timed path.
func pregenerate(b *testing.B, w stream.Workload, limit int) []core.Tuple {
	b.Helper()
	n := b.N
	if n > limit {
		n = limit
	}
	if n < 1 {
		n = 1
	}
	return stream.Take(w, n)
}

const pregenLimit = 1 << 20

// runProfilerBench applies b.N tuples to the method's profiler, issuing the
// task query after every update, and reports ns per tuple.
func runProfilerBench(b *testing.B, method bench.Method, w stream.Workload, m int, task bench.Task) {
	b.Helper()
	p, err := bench.NewProfiler(method, m, task)
	if err != nil {
		b.Fatal(err)
	}
	tuples := pregenerate(b, w, pregenLimit)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		t := tuples[i%len(tuples)]
		if err := profiler.Apply(p, t); err != nil {
			b.Fatal(err)
		}
		switch task {
		case bench.TaskMode:
			e, _, err := p.Mode()
			if err != nil {
				b.Fatal(err)
			}
			sink += e.Frequency
		case bench.TaskMedian:
			e, err := p.Median()
			if err != nil {
				b.Fatal(err)
			}
			sink += e.Frequency
		case bench.TaskMin:
			e, _, err := p.Min()
			if err != nil {
				b.Fatal(err)
			}
			sink += e.Frequency
		}
	}
	benchSink += sink
}

// paperStream builds one of the paper's evaluation streams and fails the
// benchmark on error.
func paperStream(b *testing.B, index, m int) stream.Workload {
	b.Helper()
	g, err := stream.PaperStream(index, m, 20190326)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFigure3_ModeVsN reproduces Figure 3: keeping the mode up to date
// on streams 1-3 with a large fixed m, heap baseline vs S-Profile. The
// figure's x-axis (n) is the benchmark's op count; constant ns/op for
// S-Profile and larger, stream-dependent ns/op for the heap give the figure's
// linear curves and their separation.
func BenchmarkFigure3_ModeVsN(b *testing.B) {
	const m = 1_000_000
	for streamIdx := 1; streamIdx <= 3; streamIdx++ {
		for _, method := range []bench.Method{bench.MethodHeap, bench.MethodSProfile} {
			b.Run(fmt.Sprintf("stream%d/m=%d/%s", streamIdx, m, method), func(b *testing.B) {
				runProfilerBench(b, method, paperStream(b, streamIdx, m), m, bench.TaskMode)
			})
		}
	}
}

// BenchmarkFigure4_ModeVsM reproduces Figure 4: the same comparison with the
// object count m swept, n fixed (here: per-op cost at each m).
func BenchmarkFigure4_ModeVsM(b *testing.B) {
	for streamIdx := 1; streamIdx <= 3; streamIdx++ {
		for _, m := range []int{100_000, 1_000_000, 4_000_000} {
			for _, method := range []bench.Method{bench.MethodHeap, bench.MethodSProfile} {
				b.Run(fmt.Sprintf("stream%d/m=%d/%s", streamIdx, m, method), func(b *testing.B) {
					runProfilerBench(b, method, paperStream(b, streamIdx, m), m, bench.TaskMode)
				})
			}
		}
	}
}

// BenchmarkFigure5_TrendVsM reproduces Figure 5: the time-vs-m trend on
// stream1 — S-Profile's per-op cost stays flat as m grows while the heap's
// grows with log m.
func BenchmarkFigure5_TrendVsM(b *testing.B) {
	for _, m := range []int{200_000, 400_000, 800_000, 1_600_000, 3_200_000} {
		for _, method := range []bench.Method{bench.MethodHeap, bench.MethodSProfile} {
			b.Run(fmt.Sprintf("stream1/m=%d/%s", m, method), func(b *testing.B) {
				runProfilerBench(b, method, paperStream(b, 1, m), m, bench.TaskMode)
			})
		}
	}
}

// BenchmarkFigure6_MedianVsN reproduces the left panel of Figure 6: keeping
// the median up to date with an order-statistic balanced tree (the PBDS
// stand-in) vs S-Profile, m fixed.
func BenchmarkFigure6_MedianVsN(b *testing.B) {
	const m = 1_000_000
	for _, method := range []bench.Method{bench.MethodRedBlack, bench.MethodSProfile} {
		b.Run(fmt.Sprintf("stream1/m=%d/%s", m, method), func(b *testing.B) {
			runProfilerBench(b, method, paperStream(b, 1, m), m, bench.TaskMedian)
		})
	}
}

// BenchmarkFigure6_MedianVsM reproduces the right panel of Figure 6: the same
// comparison with m swept.
func BenchmarkFigure6_MedianVsM(b *testing.B) {
	for _, m := range []int{100_000, 400_000, 1_600_000} {
		for _, method := range []bench.Method{bench.MethodRedBlack, bench.MethodSProfile} {
			b.Run(fmt.Sprintf("stream1/m=%d/%s", m, method), func(b *testing.B) {
				runProfilerBench(b, method, paperStream(b, 1, m), m, bench.TaskMedian)
			})
		}
	}
}

// BenchmarkAblationTreeKind checks that the Figure-6 gap is not an artifact
// of the tree implementation: treap and red-black engines are measured side
// by side with S-Profile on the median task.
func BenchmarkAblationTreeKind(b *testing.B) {
	const m = 1_000_000
	for _, method := range []bench.Method{bench.MethodTreap, bench.MethodRedBlack, bench.MethodSkipList, bench.MethodSProfile} {
		b.Run(fmt.Sprintf("m=%d/%s", m, method), func(b *testing.B) {
			runProfilerBench(b, method, paperStream(b, 1, m), m, bench.TaskMedian)
		})
	}
}

// BenchmarkAblationFenwick measures how close an O(log F) frequency-domain
// index (Fenwick tree over frequency counts) gets to S-Profile's O(1) bound.
func BenchmarkAblationFenwick(b *testing.B) {
	const m = 1_000_000
	for _, method := range []bench.Method{bench.MethodFenwick, bench.MethodSProfile} {
		b.Run(fmt.Sprintf("m=%d/%s", m, method), func(b *testing.B) {
			runProfilerBench(b, method, paperStream(b, 1, m), m, bench.TaskMedian)
		})
	}
}

// BenchmarkAblationArena isolates the block-slab design choice: update-only
// throughput with no pre-sizing hint (slab grows on demand) vs a generous
// hint (hot path never allocates).
func BenchmarkAblationArena(b *testing.B) {
	const m = 1_000_000
	for _, hint := range []int{0, 65_536} {
		b.Run(fmt.Sprintf("m=%d/blockhint=%d", m, hint), func(b *testing.B) {
			p, err := sprofile.New(m, sprofile.WithBlockHint(hint))
			if err != nil {
				b.Fatal(err)
			}
			tuples := pregenerate(b, paperStream(b, 1, m), pregenLimit)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Apply(tuples[i%len(tuples)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadSensitivity measures mode maintenance across the full
// workload suite to show the S-Profile advantage is not tied to one stream
// shape.
func BenchmarkWorkloadSensitivity(b *testing.B) {
	const m = 100_000
	for _, name := range stream.WorkloadNames() {
		for _, method := range []bench.Method{bench.MethodHeap, bench.MethodSProfile} {
			b.Run(fmt.Sprintf("%s/%s", name, method), func(b *testing.B) {
				w, err := stream.NamedWorkload(name, m, 20190326)
				if err != nil {
					b.Fatal(err)
				}
				runProfilerBench(b, method, w, m, bench.TaskMode)
			})
		}
	}
}

// BenchmarkSlidingWindow measures the §2.3 sliding-window adapter: every push
// expires the oldest tuple, doubling the number of ±1 updates, so the
// O(1)-vs-O(log m) gap persists.
func BenchmarkSlidingWindow(b *testing.B) {
	const m = 1_000_000
	const windowSize = 100_000
	for _, method := range []bench.Method{bench.MethodHeap, bench.MethodSProfile} {
		b.Run(fmt.Sprintf("window=%d/%s", windowSize, method), func(b *testing.B) {
			p, err := bench.NewProfiler(method, m, bench.TaskMode)
			if err != nil {
				b.Fatal(err)
			}
			win, err := window.New(p, windowSize)
			if err != nil {
				b.Fatal(err)
			}
			tuples := pregenerate(b, paperStream(b, 1, m), pregenLimit)
			b.ReportAllocs()
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				if err := win.Push(tuples[i%len(tuples)]); err != nil {
					b.Fatal(err)
				}
				e, _, err := p.Mode()
				if err != nil {
					b.Fatal(err)
				}
				sink += e.Frequency
			}
			benchSink += sink
		})
	}
}

// BenchmarkGraphShaving measures the §2.3 graph application: a full greedy
// peel of a random graph (average degree 8) per iteration, for each
// minimum-degree engine.
func BenchmarkGraphShaving(b *testing.B) {
	const nodes = 100_000
	g, err := graph.NewGraph(nodes)
	if err != nil {
		b.Fatal(err)
	}
	rng := stream.NewRNG(99)
	for i := 0; i < nodes*4; i++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u == v {
			v = (v + 1) % nodes
		}
		if err := g.AddEdge(u, v); err != nil {
			b.Fatal(err)
		}
	}
	for _, engine := range graph.Engines() {
		b.Run(fmt.Sprintf("nodes=%d/%s", nodes, engine), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := graph.Peel(g, engine)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += int64(len(res.Order))
			}
		})
	}
}

// BenchmarkConcurrentIngestion compares one lock against many under
// parallel producers: a single mutex (Synchronized, one shard) against 32
// per-shard locks. Both keep the O(1) per-update bound; the difference is
// lock contention.
func BenchmarkConcurrentIngestion(b *testing.B) {
	const m = 1_000_000
	const shards = 32

	b.Run("single-mutex", func(b *testing.B) {
		c := sprofile.MustBuild(m, sprofile.Synchronized())
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			rng := stream.NewRNG(uint64(b.N) | 1)
			for pb.Next() {
				x := rng.Intn(m)
				if rng.Bernoulli(0.7) {
					_ = c.Add(x)
				} else {
					_ = c.Remove(x)
				}
			}
		})
	})
	b.Run(fmt.Sprintf("sharded-%d", shards), func(b *testing.B) {
		s := sprofile.MustNewSharded(m, shards)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			rng := stream.NewRNG(uint64(b.N) | 3)
			for pb.Next() {
				x := rng.Intn(m)
				if rng.Bernoulli(0.7) {
					_ = s.Add(x)
				} else {
					_ = s.Remove(x)
				}
			}
		})
	})
}

// BenchmarkApplyAll compares batched against per-event ingestion through the
// unified Profiler interface for one lock and for 32. With one shard every
// tuple of the batch is one run under one lock acquisition; with 32, Sharded
// amortises lock round-trips over runs of same-shard tuples, so its batched
// gain grows with the stream's shard locality.
func BenchmarkApplyAll(b *testing.B) {
	const m = 1_000_000
	const batchSize = 4096
	variants := []struct {
		name string
		make func() sprofile.Profiler
	}{
		{"concurrent", func() sprofile.Profiler { return sprofile.MustBuild(m, sprofile.Synchronized()) }},
		{"sharded-32", func() sprofile.Profiler { return sprofile.MustBuild(m, sprofile.WithSharding(32)) }},
	}
	for _, v := range variants {
		tuples := stream.Take(paperStream(b, 1, m), batchSize)
		b.Run(v.name+"/per-event", func(b *testing.B) {
			p := v.make()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Apply(tuples[i%batchSize]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(v.name+"/batched", func(b *testing.B) {
			p := v.make()
			b.ReportAllocs()
			b.ResetTimer()
			for applied := 0; applied < b.N; applied += batchSize {
				batch := tuples
				if remaining := b.N - applied; remaining < batchSize {
					batch = tuples[:remaining]
				}
				if _, err := p.ApplyAll(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyDeltas measures the delta-batched ingestion fast path
// against per-event ApplyAll on a zipf(1.5)-skewed 64k-event batch: hot-key
// traffic where the same objects repeat many times per batch, which the
// coalescer folds into one net delta and one block-boundary walk each (the
// 64k events here touch only a few thousand distinct objects).
func BenchmarkApplyDeltas(b *testing.B) {
	const m = 100_000
	const batchSize = 65_536
	pos, err := stream.NewZipf(m, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	neg, err := stream.NewZipf(m, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	w, err := stream.NewGenerator(stream.Config{
		M: m, AddProb: stream.DefaultAddProb, PosPDF: pos, NegPDF: neg, Seed: 7, Name: "zipf-1.5",
	})
	if err != nil {
		b.Fatal(err)
	}
	tuples := stream.Take(w, batchSize)
	b.Run("per-event", func(b *testing.B) {
		p := sprofile.MustNew(m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.ApplyAll(tuples); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchSize, "ns/event")
	})
	b.Run("delta-batched", func(b *testing.B) {
		p := sprofile.MustNew(m)
		c, err := sprofile.NewCoalescer(m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			deltas, err := c.Coalesce(tuples)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.ApplyDeltas(deltas); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchSize, "ns/event")
	})
}

// BenchmarkKeyedApplyBatch measures the keyed batched-resolve path against
// per-event keyed ingestion from one producer at shards=4 — the
// configuration whose per-event striping overhead BENCH_keyed.json recorded.
// The zipf variant is hot-key traffic, where coalescing folds most of the
// batch away; the uniform variant has almost no repeats, so it shows the
// overhead the coalescing index costs when it cannot win.
func BenchmarkKeyedApplyBatch(b *testing.B) {
	const m = 100_000
	const shards = 4
	const batchSize = 1024
	keys := make([]string, m)
	for i := range keys {
		keys[i] = fmt.Sprintf("object-%08d", i)
	}
	for _, skew := range []string{"zipf", "uniform"} {
		var dist stream.Distribution
		var err error
		if skew == "zipf" {
			dist, err = stream.NewZipf(m, 1.5)
		} else {
			dist, err = stream.NewUniform(m)
		}
		if err != nil {
			b.Fatal(err)
		}
		rng := stream.NewRNG(11)
		batch := make([]sprofile.KeyedTuple[string], batchSize)
		for i := range batch {
			batch[i] = sprofile.KeyedTuple[string]{Key: keys[dist.Sample(rng)], Action: sprofile.ActionAdd}
		}
		b.Run(skew+"/per-event", func(b *testing.B) {
			k := sprofile.MustBuildKeyed[string](m, sprofile.WithSharding(shards))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.Add(batch[i%batchSize].Key); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(skew+"/batched", func(b *testing.B) {
			k := sprofile.MustBuildKeyed[string](m, sprofile.WithSharding(shards))
			b.ReportAllocs()
			b.ResetTimer()
			for applied := 0; applied < b.N; applied += batchSize {
				events := batch
				if remaining := b.N - applied; remaining < batchSize {
					events = batch[:remaining]
				}
				if _, err := k.ApplyBatch(events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKeyedParallel compares the two keyed ingestion paths under
// parallel producers: the single-mutex wrapper around the serial Keyed (the
// shape of the HTTP server's hot path before it moved to KeyedConcurrent)
// against the lock-striped KeyedConcurrent at increasing shard counts. The
// mutex path flatlines regardless of cores; the striped path scales with
// min(GOMAXPROCS, shards) because producers on different stripes never touch
// the same lock.
func BenchmarkKeyedParallel(b *testing.B) {
	const m = 1 << 16
	keys := make([]string, m)
	for i := range keys {
		keys[i] = fmt.Sprintf("object-%06d", i)
	}
	var seed atomic.Uint64
	runIngest := func(b *testing.B, add func(key string) error) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			rng := stream.NewRNG(seed.Add(1))
			for pb.Next() {
				// Error, not Fatal: FailNow must not be called from
				// RunParallel's worker goroutines.
				if err := add(keys[rng.Intn(m)]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}

	b.Run("mutex-keyed", func(b *testing.B) {
		k := sprofile.MustNewKeyed[string](m)
		var mu sync.Mutex
		runIngest(b, func(key string) error {
			mu.Lock()
			defer mu.Unlock()
			return k.Add(key)
		})
	})
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("striped/shards=%d", shards), func(b *testing.B) {
			k := sprofile.MustBuildKeyed[string](m, sprofile.WithSharding(shards))
			runIngest(b, k.Add)
		})
	}
}

// BenchmarkKeyedDurableParallel measures durable (WAL + per-batch fsync)
// ingestion with concurrent producers, each committing batches of 64 events.
// The mutex baseline is the pre-refactor server shape: the whole batch
// including its fsync runs under one global lock, so producers — and any
// reader — queue behind every ~100µs disk flush. The striped path appends
// under per-batch buffering, runs the fsync outside all profile locks, and
// group-commits: one fsync persists every batch whose records it covered, so
// concurrent batches share disk flushes instead of lining up for their own.
// This gap is visible even on a single core, because the fsync sleeps in the
// kernel while other producers keep applying.
func BenchmarkKeyedDurableParallel(b *testing.B) {
	const m = 1 << 12
	const batch = 64
	keys := make([]string, m)
	for i := range keys {
		keys[i] = fmt.Sprintf("object-%06d", i)
	}
	var seed atomic.Uint64

	b.Run("mutex-keyed-wal", func(b *testing.B) {
		k := sprofile.MustNewKeyed[string](m)
		log, err := wal.OpenDir(b.TempDir(), wal.Options{}, nil, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		var mu sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			rng := stream.NewRNG(seed.Add(1))
			for pb.Next() {
				mu.Lock()
				for i := 0; i < batch; i++ {
					key := keys[rng.Intn(m)]
					if err := k.Add(key); err != nil {
						mu.Unlock()
						b.Error(err)
						return
					}
					if _, err := log.Append(wal.Record{Key: key, Action: sprofile.ActionAdd}); err != nil {
						mu.Unlock()
						b.Error(err)
						return
					}
				}
				err := log.Sync()
				mu.Unlock()
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("striped-wal", func(b *testing.B) {
		k := sprofile.MustBuildKeyed[string](m,
			sprofile.WithSharding(4),
			sprofile.WithWAL(filepath.Join(b.TempDir(), "bench.wal")))
		defer k.Close()
		b.RunParallel(func(pb *testing.PB) {
			rng := stream.NewRNG(seed.Add(1))
			for pb.Next() {
				for i := 0; i < batch; i++ {
					if err := k.Add(keys[rng.Intn(m)]); err != nil {
						b.Error(err)
						return
					}
				}
				if err := k.Sync(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkKeyedIngestion measures the overhead of the string-keyed wrapper
// (map lookup + id management) over the raw dense-id profile.
func BenchmarkKeyedIngestion(b *testing.B) {
	const m = 100_000
	keys := make([]string, m)
	for i := range keys {
		keys[i] = fmt.Sprintf("object-%06d", i)
	}
	b.Run("dense", func(b *testing.B) {
		p := sprofile.MustNew(m)
		rng := stream.NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Add(rng.Intn(m)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("keyed", func(b *testing.B) {
		k := sprofile.MustNewKeyed[string](m)
		rng := stream.NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := k.Add(keys[rng.Intn(m)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKeyedEviction measures the recycling path of a concurrent keyed
// profile, which the end-to-end workloads never reach because their key
// spaces fit the capacity. Each case builds its profile once and keeps it
// across the runner's rounds, since every op leaves the same shape behind.
//
//   - evict: 1<<16 ids over 2 stripes, all held by idle keys; one op is an
//     Add of a key not tracked, which evicts an idle key of its stripe,
//     and the Remove that leaves the new key idle.
//   - idle-flip: 1<<20 idle keys over 2 stripes; one op is an Add of a
//     random one, taking it off its stripe's idle list, and the Remove that
//     puts it back.
func BenchmarkKeyedEviction(b *testing.B) {
	// build tracks every key, the first m of them, on a fresh profile of m ids.
	build := func(b *testing.B, m int, keys []string) *sprofile.KeyedConcurrent[string] {
		k := sprofile.MustBuildKeyed[string](m, sprofile.WithSharding(2))
		for _, key := range keys[:m] {
			if err := k.Track(key); err != nil {
				b.Fatal(err)
			}
		}
		return k
	}
	var evict, flip *sprofile.KeyedConcurrent[string]
	var evictKeys, flipKeys []string
	next := 0
	b.Run("evict", func(b *testing.B) {
		const m = 1 << 16
		if evict == nil {
			// The ops cycle through the second m keys: by the time a key
			// comes round again its stripe has evicted it.
			evictKeys = make([]string, 2*m)
			for i := range evictKeys {
				evictKeys[i] = fmt.Sprintf("object-%06d", i)
			}
			evict = build(b, m, evictKeys)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := evictKeys[m+next]
			next = (next + 1) % m
			if err := evict.Add(key); err != nil {
				b.Fatal(err)
			}
			if err := evict.Remove(key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("idle-flip", func(b *testing.B) {
		const m = 1 << 20
		if flip == nil {
			flipKeys = make([]string, m)
			for i := range flipKeys {
				flipKeys[i] = fmt.Sprintf("object-%07d", i)
			}
			flip = build(b, m, flipKeys)
		}
		rng := stream.NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := flipKeys[rng.Intn(m)]
			if err := flip.Add(key); err != nil {
				b.Fatal(err)
			}
			if err := flip.Remove(key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoreQueries measures the constant-time query surface of a profile
// that is already loaded with a realistic frequency distribution.
func BenchmarkCoreQueries(b *testing.B) {
	const m = 1_000_000
	p := sprofile.MustNew(m)
	g := paperStream(b, 1, m)
	for i := 0; i < 2_000_000; i++ {
		if err := p.Apply(g.Next()); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Mode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, _, _ := p.Mode()
			benchSink += e.Frequency
		}
	})
	b.Run("Median", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, _ := p.Median()
			benchSink += e.Frequency
		}
	})
	b.Run("KthLargest-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, _ := p.KthLargest(100)
			benchSink += e.Frequency
		}
	})
	b.Run("TopK-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += int64(len(p.TopK(10)))
		}
	})
	b.Run("Quantile-p99", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, _ := p.Quantile(0.99)
			benchSink += e.Frequency
		}
	})
}

// BenchmarkQueryComposite measures the query plane's selling point: ONE
// composite Query{Mode, TopK(10), Quantile(.99), Summary} against the
// equivalent sequence of four individual getter calls, on each dense
// concurrency variant. The composite pays one lock acquisition (Synchronized, one
// shard) or one lock-all plus one merged distribution (Sharded-8) where the
// sequence pays four of each — and only the composite's answers are
// guaranteed to come from one cut. KeyedConcurrent-8 times the keyed
// composite, QueryKeys (one quiesce).
func BenchmarkQueryComposite(b *testing.B) {
	const m = 100_000
	q := sprofile.Query{Mode: true, TopK: 10, Quantiles: []float64{0.99}, Summary: true}
	// Both paths hand their materialised result off (as a dashboard renderer
	// or JSON encoder would), so escape analysis treats them alike.
	publish := func(res sprofile.QueryResult) {
		queryResultSink = res
		benchSink += res.Mode.Frequency + res.Summary.Total
	}

	fill := func(b *testing.B, p sprofile.Profiler) {
		b.Helper()
		g := paperStream(b, 1, m)
		for i := 0; i < 500_000; i++ {
			if err := p.Apply(g.Next()); err != nil {
				b.Fatal(err)
			}
		}
	}
	composite := func(b *testing.B, p sprofile.Profiler) {
		b.Helper()
		qr := p.(sprofile.Querier)
		for i := 0; i < b.N; i++ {
			res, err := qr.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			publish(res)
		}
	}
	// individual issues the equivalent sequence of getter calls and
	// materialises the same QueryResult the composite returns (a dashboard
	// needs the values in hand either way) — N lock round-trips instead of
	// one, and no one-cut guarantee.
	individual := func(b *testing.B, p sprofile.Profiler) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			var res sprofile.QueryResult
			e, ties, err := p.Mode()
			if err != nil {
				b.Fatal(err)
			}
			res.Mode = &sprofile.Extreme{Entry: e, Ties: ties}
			res.TopK = p.TopK(10)
			qe, err := p.Quantile(0.99)
			if err != nil {
				b.Fatal(err)
			}
			res.Quantiles = []sprofile.QuantileEntry{{Q: 0.99, Entry: qe}}
			s := p.Summarize()
			res.Summary = &s
			publish(res)
		}
	}
	// withIngest runs fn while writer goroutines hammer the profile — the
	// scenario the query plane exists for. Fewer lock round-trips per
	// dashboard read means fewer waits behind writers holding (or queueing
	// for) the write lock.
	withIngest := func(b *testing.B, p sprofile.Profiler, fn func(*testing.B, sprofile.Profiler)) {
		b.Helper()
		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					_ = p.Add((i*2 + g) % m)
				}
			}(g)
		}
		b.ResetTimer()
		fn(b, p)
		b.StopTimer()
		stop.Store(true)
		wg.Wait()
	}
	run := func(name string, p sprofile.Profiler) {
		fillOnce := sync.OnceFunc(func() { fill(b, p) })
		b.Run(name+"/composite", func(b *testing.B) {
			fillOnce()
			b.ResetTimer()
			composite(b, p)
		})
		b.Run(name+"/individual", func(b *testing.B) {
			fillOnce()
			b.ResetTimer()
			individual(b, p)
		})
		b.Run(name+"/composite-under-ingest", func(b *testing.B) {
			fillOnce()
			withIngest(b, p, composite)
		})
		b.Run(name+"/individual-under-ingest", func(b *testing.B) {
			fillOnce()
			withIngest(b, p, individual)
		})
	}
	run("Synchronized", sprofile.MustBuild(m, sprofile.Synchronized()))
	run("Sharded-8", sprofile.MustNewSharded(m, 8))

	// The keyed variant has one read, QueryKeys (one quiesced cut), so it has
	// no getter sequence to compare against.
	keyed := sprofile.MustBuildKeyed[string](m, sprofile.WithSharding(8))
	kq := sprofile.KeyedQuery[string]{Mode: true, TopK: 10, Quantiles: []float64{0.99}, Summary: true}
	keyedFill := sync.OnceFunc(func() {
		g := paperStream(b, 1, m)
		for i := 0; i < 500_000; i++ {
			t := g.Next()
			var err error
			if t.Action == sprofile.ActionAdd {
				err = keyed.Add(strconv.Itoa(t.Object))
			} else if err = keyed.Remove(strconv.Itoa(t.Object)); errors.Is(err, sprofile.ErrUnknownKey) ||
				errors.Is(err, sprofile.ErrStrictViolation) {
				err = nil // the raw stream can remove before adding; skip
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("KeyedConcurrent-8/composite", func(b *testing.B) {
		keyedFill()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := keyed.QueryKeys(kq)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += res.Mode.Frequency + res.Summary.Total
		}
	})
}

// BenchmarkQueryKeys measures the server's composite read: one keyed
// QueryKeys{Mode, TopK(10), Quantiles(.5, .99), Summary} on a profile of
// capacity 1<<20 holding 1M zipf(1.1) adds over 100k keys (a few hundred
// distinct frequencies), ingested as 4096-event ApplyBatch calls. The cases
// differ only in the dense profile's shards: WithSharding(2) answers from
// the merged view of two shards, while WithSharding(1) and Synchronized(),
// two spellings of one build, answer from the one shard's own profile.
func BenchmarkQueryKeys(b *testing.B) {
	const (
		capacity = 1 << 20
		keys     = 100_000
		events   = 1_000_000
		batch    = 4096
	)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("object-%06d", i)
	}
	fill := func(b *testing.B, opt sprofile.BuildOption) *sprofile.KeyedConcurrent[string] {
		b.Helper()
		k := sprofile.MustBuildKeyed[string](capacity, opt)
		zipf, err := stream.NewZipf(keys, 1.1)
		if err != nil {
			b.Fatal(err)
		}
		rng := stream.NewRNG(11)
		buf := make([]sprofile.KeyedTuple[string], batch)
		for sent := 0; sent < events; sent += len(buf) {
			buf = buf[:min(batch, events-sent)]
			for i := range buf {
				buf[i] = sprofile.KeyedTuple[string]{Key: names[zipf.Sample(rng)], Action: sprofile.ActionAdd}
			}
			if _, err := k.ApplyBatch(buf); err != nil {
				b.Fatal(err)
			}
		}
		return k
	}
	q := sprofile.KeyedQuery[string]{Mode: true, TopK: 10, Quantiles: []float64{0.5, 0.99}, Summary: true}
	for _, c := range []struct {
		name string
		opt  sprofile.BuildOption
	}{
		{"sharded-2", sprofile.WithSharding(2)},
		{"sharded-1", sprofile.WithSharding(1)},
		{"synchronized", sprofile.Synchronized()},
	} {
		// Filled on the first call only: the benchmark function runs again
		// for each b.N it tries.
		var k *sprofile.KeyedConcurrent[string]
		b.Run(c.name, func(b *testing.B) {
			if k == nil {
				k = fill(b, c.opt)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := k.QueryKeys(q)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += res.Mode.Frequency + res.Summary.Total
			}
		})
	}
}

// BenchmarkRecovery measures cold-start time of a durable keyed profile at
// 1M ingested events: rebuilding from a full, never-checkpointed log (every
// event replayed) versus from a checkpoint snapshot taken at 900k events
// plus the 100k-event tail. The second path is what the checkpoint subsystem
// buys: recovery bounded by the checkpoint cadence instead of the ingest
// history. cmd/sprofile-bench's "recovery" experiment records the same
// comparison in wall-clock form (BENCH_recovery.json). The snapshot-only
// case is the cold start the end-to-end benchmark times as setup_s on
// ingest-events-uniform: a 1M-key snapshot at capacity 1<<20 on the default
// shards, with no log tail, so it times the snapshot decode and restore
// alone. The snapshot-sparse case does the same for the 100k-key snapshots
// of ingest-bulk-zipf and mixed-dashboard, where most of the capacity holds
// no key.
func BenchmarkRecovery(b *testing.B) {
	const (
		m            = 100_000
		n            = 1_000_000
		checkpointAt = n * 9 / 10
	)
	keys := make([]string, m)
	for i := range keys {
		keys[i] = fmt.Sprintf("object-%08d", i)
	}
	// buildDir writes the log, checkpointing at checkpointAt if asked, and
	// returns its directory and the number of keys the snapshot holds.
	buildDir := func(b *testing.B, checkpointed bool) (dir string, snapshotted int) {
		b.Helper()
		dir = filepath.Join(b.TempDir(), "wal")
		k, err := sprofile.BuildKeyed[string](m, sprofile.WithWAL(dir))
		if err != nil {
			b.Fatal(err)
		}
		rng := stream.NewRNG(20190326)
		for i := 0; i < n; i++ {
			if checkpointed && i == checkpointAt {
				if err := k.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				snapshotted = k.Tracked()
			}
			if err := k.Add(keys[rng.Intn(m)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := k.Close(); err != nil {
			b.Fatal(err)
		}
		return dir, snapshotted
	}
	// coldStart times BuildKeyed over dir, checking that each start restored
	// snapshotted keys from the snapshot and replayed replayed log entries.
	coldStart := func(b *testing.B, dir string, capacity, snapshotted, replayed int) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k, err := sprofile.BuildKeyed[string](capacity, sprofile.WithWAL(dir))
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if got := k.Recovery(); got.SnapshotObjects != snapshotted || k.Replayed() != replayed {
				b.Fatalf("restored %d snapshot keys and replayed %d records, want %d and %d",
					got.SnapshotObjects, k.Replayed(), snapshotted, replayed)
			}
			if err := k.Close(); err != nil {
				b.Fatal(err)
			}
			// Each start begins with the previous one's garbage collected,
			// as the end-to-end benchmark's cold starts do.
			runtime.GC()
			b.StartTimer()
		}
	}
	b.Run("full-log", func(b *testing.B) {
		dir, _ := buildDir(b, false)
		coldStart(b, dir, m, 0, n)
	})
	b.Run("snapshot-tail", func(b *testing.B) {
		dir, snapshotted := buildDir(b, true)
		coldStart(b, dir, m, snapshotted, n-checkpointAt)
	})
	// snapshotDir writes a checkpointed log of keys keys at capacity
	// 1<<20: every key once, then extra adds of the keys draw picks, in
	// bodies of 4096, with no tail after the checkpoint.
	snapshotDir := func(b *testing.B, keys, extra int, draw func(rng *stream.RNG) int) string {
		b.Helper()
		dir := filepath.Join(b.TempDir(), "wal")
		k, err := sprofile.BuildKeyed[string](1<<20, sprofile.WithWAL(dir))
		if err != nil {
			b.Fatal(err)
		}
		names := make([]string, keys)
		for i := range names {
			names[i] = fmt.Sprintf("object-%08d", i)
		}
		rng := stream.NewRNG(20190326)
		batch := make([]sprofile.KeyedTuple[string], 0, 4096)
		for i := 0; i < keys+extra; i++ {
			key := names[i%keys]
			if i >= keys {
				key = names[draw(rng)]
			}
			batch = append(batch, sprofile.KeyedTuple[string]{Key: key, Action: sprofile.ActionAdd})
			if len(batch) == cap(batch) || i == keys+extra-1 {
				if _, err := k.ApplyBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if err := k.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if err := k.Close(); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		return dir
	}
	b.Run("snapshot-only", func(b *testing.B) {
		const keys = 1_000_000
		dir := snapshotDir(b, keys, keys, func(rng *stream.RNG) int { return rng.Intn(keys) })
		coldStart(b, dir, 1<<20, keys, 0)
	})
	// The preload shape of ingest-bulk-zipf and mixed-dashboard: 100k keys,
	// a tenth of the capacity, drawn zipf(s=1.1) for 1M events in all.
	b.Run("snapshot-sparse", func(b *testing.B) {
		const keys = 100_000
		zipf, err := stream.NewZipf(keys, 1.1)
		if err != nil {
			b.Fatal(err)
		}
		dir := snapshotDir(b, keys, 9*keys, zipf.Sample)
		b.ReportAllocs()
		coldStart(b, dir, 1<<20, keys, 0)
	})
}

// BenchmarkCheckpoint times one checkpoint of a durable keyed profile in the
// end-to-end benchmark's preload shape: 1M keys at capacity 1<<20 on two
// shards. An operation is the capture under every stripe lock plus the
// snapshot's encode, fsync and publication; -benchmem shows what the
// capture copies while writers wait.
func BenchmarkCheckpoint(b *testing.B) {
	const keys, capacity = 1_000_000, 1 << 20
	k, err := sprofile.BuildKeyed[string](capacity, sprofile.WithWAL(filepath.Join(b.TempDir(), "wal")), sprofile.WithSharding(2))
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]sprofile.KeyedTuple[string], 0, 4096)
	for i := 0; i < keys; i++ {
		batch = append(batch, sprofile.KeyedTuple[string]{Key: fmt.Sprintf("object-%08d", i), Action: sprofile.ActionAdd})
		if len(batch) == cap(batch) || i == keys-1 {
			if _, err := k.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := k.Close(); err != nil {
		b.Fatal(err)
	}
}
