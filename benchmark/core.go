package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sprofile/internal/core"
	"sprofile/internal/stream"
)

// paperTask is one stream of a paper-core pass: the paper's stream index, its
// m, and the statistic read after every tuple.
type paperTask struct {
	stream int
	m      int
	median bool
}

func (t paperTask) String() string {
	stat := "mode"
	if t.median {
		stat = "median"
	}
	return fmt.Sprintf("stream%d/m=%d/%s", t.stream, t.m, stat)
}

// paperTasks are the paper's Figure 3-5 mode streams at m=coreM and the
// Figure 6 median stream at m=coreMedianM.
func paperTasks(sc scale) []paperTask {
	return []paperTask{
		{1, sc.coreM, false},
		{2, sc.coreM, false},
		{3, sc.coreM, false},
		{1, sc.coreMedianM, true},
	}
}

const (
	// genChunk is the tuple buffer generated outside the timed region, the
	// chunk size of internal/bench's Measure protocol.
	genChunk = 1 << 16
	// opTuples is the unit a traced pass records as one core.op span: this
	// many tuples, each applied and followed by its statistic.
	opTuples = 4096
)

// coreRun accumulates what the passes measured.
type coreRun struct {
	passSeconds []float64
	builds      []float64 // core.New times of the m=coreM profiles
	// modeNs and medianNs are each pass's time per tuple of the mode tasks
	// and of the median task.
	modeNs, medianNs []float64
	genTime          time.Duration
	tuples           int64
	heapMB           float64
	sink             int64
}

// pass runs every paper task once under the Measure protocol: the profile's
// construction and the timed chunks count, generation does not. With check
// the final profiles are verified against reference counts and the heap is
// measured while each is alive. With tr, every op becomes a core.op span
// under one core.pass span; update-only applies without reading a statistic.
func (c *coreRun) pass(sc scale, seed uint64, check, updateOnly bool, tr *tracer) (float64, error) {
	buf := make([]core.Tuple, genChunk)
	var ref []int64
	passStart := time.Now()
	var spans []int
	var elapsed, modeTime, medianTime time.Duration
	var modeTuples int
	for ti, task := range paperTasks(sc) {
		taskStart := elapsed
		g, err := stream.PaperStream(task.stream, task.m, seed+uint64(ti))
		if err != nil {
			return 0, err
		}
		if check {
			ref = make([]int64, task.m)
		}
		t0 := time.Now()
		p, err := core.New(task.m)
		if err != nil {
			return 0, err
		}
		build := time.Since(t0)
		elapsed += build
		if task.m == sc.coreM {
			c.builds = append(c.builds, build.Seconds())
		}
		for done := 0; done < sc.coreTuples; {
			n := min(genChunk, sc.coreTuples-done)
			g0 := time.Now()
			chunk := g.Fill(buf[:n])
			if ref != nil {
				for _, t := range chunk {
					if t.Action == core.ActionAdd {
						ref[t.Object]++
					} else {
						ref[t.Object]--
					}
				}
			}
			c.genTime += time.Since(g0)
			for lo := 0; lo < n; lo += opTuples {
				op := chunk[lo:min(lo+opTuples, n)]
				s := time.Now()
				if err := c.apply(p, op, task.median, updateOnly); err != nil {
					return 0, fmt.Errorf("%s: %w", task, err)
				}
				e := time.Now()
				elapsed += e.Sub(s)
				if tr != nil {
					spans = append(spans, tr.record("core.op", 0, -1, s, e))
				}
			}
			done += n
		}
		c.tuples += int64(sc.coreTuples)
		if task.median {
			medianTime += elapsed - taskStart
		} else {
			modeTime += elapsed - taskStart
			modeTuples += sc.coreTuples
		}
		if check {
			if err := checkCore(p, ref); err != nil {
				return 0, fmt.Errorf("%s: %w", task, err)
			}
			c.heapMB = max(c.heapMB, heapInuseMB())
		}
		runtime.KeepAlive(p)
	}
	if tr != nil {
		parent := tr.record("core.pass", 0, -1, passStart, time.Now())
		tr.mu.Lock()
		for _, i := range spans {
			tr.spans[i].Parent = parent
		}
		tr.mu.Unlock()
	}
	c.modeNs = append(c.modeNs, float64(modeTime.Nanoseconds())/float64(modeTuples))
	c.medianNs = append(c.medianNs, float64(medianTime.Nanoseconds())/float64(sc.coreTuples))
	return elapsed.Seconds(), nil
}

// apply applies each tuple and, unless updateOnly, reads the task's
// statistic after it, as the paper's protocol does.
func (c *coreRun) apply(p *core.Profile, op []core.Tuple, median, updateOnly bool) error {
	for _, t := range op {
		if err := p.Apply(t); err != nil {
			return err
		}
		if updateOnly {
			continue
		}
		var e core.Entry
		var err error
		if median {
			e, err = p.Median()
		} else {
			e, _, err = p.Mode()
		}
		if err != nil {
			return err
		}
		c.sink += e.Frequency
	}
	return nil
}

// runCore runs the paper-core workload: at least corePasses passes and as
// many more as fit in the window, reporting the median pass: the median over
// passes of the mode tasks' and of the median task's time per tuple.
func runCore(sc scale, seed uint64, window time.Duration, traced bool) (*result, *tracer, error) {
	res := newResult("paper-core")
	var c coreRun
	start := time.Now()
	if traced {
		// As on the HTTP workloads, the traced passes take the second half
		// of the window.
		window /= 2
	}
	// Every pass processes the same streams, so checking the first pass's
	// final profiles checks the code every pass runs.
	for pass := 0; pass < sc.corePasses || time.Since(start) < window; pass++ {
		secs, err := c.pass(sc, seed, pass == 0, false, nil)
		if err != nil {
			return nil, nil, err
		}
		c.passSeconds = append(c.passSeconds, secs)
	}
	benchSink += c.sink
	tuplesPerPass := float64(len(paperTasks(sc)) * sc.coreTuples)
	passMedian := median(c.passSeconds)
	res.set("setup_s", median(c.builds))
	res.set("heap_inuse_mb", c.heapMB)
	res.set("core_mode_ns_per_event", median(c.modeNs))
	res.set("core_median_ns_per_event", median(c.medianNs))
	res.Attempted = c.tuples
	res.Correct = true
	res.note("%d passes of %.0f tuples (%v), median pass %.3fs (fastest %.3fs, slowest %.3fs); setup_s is the median of %d core.New(%d)",
		len(c.passSeconds), tuplesPerPass, paperTasks(sc), passMedian, slices.Min(c.passSeconds), slices.Max(c.passSeconds), len(c.builds), sc.coreM)
	res.note("core_mode_ns_per_event: Stream1-3 at m=%d with Mode after every tuple; core_median_ns_per_event: Stream1 at m=%d with Median after every tuple; each the median over passes, core.New included",
		sc.coreM, sc.coreMedianM)
	res.note("oracle ok: invariants, mode, median and total of every final profile match the reference counts")
	if !traced {
		return res, nil, nil
	}

	// Per-layer: an update-only pass isolates core.apply, timed statistic
	// calls give core.eval, and two traced passes give the tracing overhead.
	tr := newTracer()
	var upd coreRun
	updSecs, err := upd.pass(sc, seed, false, true, nil)
	if err != nil {
		return nil, nil, err
	}
	var tracedPasses []float64
	for i := 0; i < 2; i++ {
		secs, err := c.pass(sc, seed, false, false, tr)
		if err != nil {
			return nil, nil, err
		}
		tracedPasses = append(tracedPasses, secs)
	}
	tr.finish()
	evalUs, err := coreEvalUs(sc, seed)
	if err != nil {
		return nil, nil, err
	}
	zeroLayers(res)
	res.set("core.apply_ns_per_delta", updSecs*1e9/tuplesPerPass)
	res.set("core.eval_us", evalUs)
	res.set("core.coalesce_ratio", 1) // every tuple is applied as its own delta
	res.set("gen.ns_per_event", float64(c.genTime.Nanoseconds())/float64(c.tuples))
	res.set("trace.overhead", median(tracedPasses)/passMedian-1)
	res.note("per-layer: layers above internal/core are not on this workload's path and read 0")
	return res, tr, nil
}

// coreEvalUs times the statistic reads alone: each task's profile is loaded
// with one chunk of its stream, then its statistic is read repeatedly.
func coreEvalUs(sc scale, seed uint64) (float64, error) {
	const reads = 100_000
	var total time.Duration
	var sink int64
	for ti, task := range paperTasks(sc) {
		g, err := stream.PaperStream(task.stream, task.m, seed+uint64(ti))
		if err != nil {
			return 0, err
		}
		p, err := core.New(task.m)
		if err != nil {
			return 0, err
		}
		if _, err := p.ApplyAll(g.Generate(genChunk)); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < reads; i++ {
			var e core.Entry
			if task.median {
				e, err = p.Median()
			} else {
				e, _, err = p.Mode()
			}
			if err != nil {
				return 0, err
			}
			sink += e.Frequency
		}
		total += time.Since(start)
	}
	benchSink += sink
	return float64(total.Nanoseconds()) / 1e3 / float64(reads*len(paperTasks(sc))), nil
}

// benchSink keeps statistic reads from being optimised away.
var benchSink int64

// heapInuseMB collects garbage and returns the in-use heap in MiB.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// zeroLayers sets every per-layer metric to 0, for the layers a workload
// does not pass through; the caller then sets the ones it measured.
func zeroLayers(res *result) {
	for _, d := range perLayer {
		res.set(d.name, 0)
	}
}
