package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sprofile"
	"sprofile/client"
	"sprofile/internal/server"
	"sprofile/internal/stream"
)

// serverConfig is the durable `sprofiled -wal` deployment every HTTP workload
// runs: one shard per CPU, a WAL fsynced once per request by group commit,
// and a checkpoint whenever the WAL tail passes 32 MiB. The per-request
// event bound and the route deadline are the server's defaults, set here
// explicitly because the stage replay reproduces them.
func serverConfig(sc scale, dir string) server.Config {
	return server.Config{Capacity: sc.capacity, WALPath: dir, CheckpointBytes: 32 << 20,
		MaxBatch: maxBatch, RequestTimeout: requestTimeout}
}

const (
	// maxBatch is the per-request event bound, which is also the bulk
	// route's chunk size.
	maxBatch = 10_000
	// requestTimeout is the per-route deadline. The server wraps /v1/events
	// and /v1/query, not the streaming bulk route, in http.TimeoutHandler
	// with it, which runs the handler on a goroutine of its own and buffers
	// the response.
	requestTimeout = 15 * time.Second
)

// coldStarts is how many cold server starts setup_s takes the median of.
const coldStarts = 5

// kindQuery marks a recorded composite query request.
const kindQuery kind = -1

// request is one recorded request of a traced run, kept for the replay.
type request struct {
	id     uint64
	kind   kind
	sent   time.Time
	events []event
	query  sprofile.KeyedQuery[string]
	traced bool
}

// timeline fixes the phases of the load: warm-up from start, then the
// measured window. A traced run splits the window into an untraced and a
// traced half, so it lasts as long as an untraced run and the two halves
// give the tracing overhead.
type timeline struct {
	start   time.Time
	windows [][2]time.Time
}

func newTimeline(start time.Time, warmup, window time.Duration, traced bool) timeline {
	tl := timeline{start: start}
	ws := start.Add(warmup)
	n := 1
	if traced {
		n = 2
	}
	part := window / time.Duration(n)
	for i := 0; i < n; i++ {
		tl.windows = append(tl.windows, [2]time.Time{ws, ws.Add(part)})
		ws = ws.Add(part)
	}
	return tl
}

func (tl timeline) end() time.Time { return tl.windows[len(tl.windows)-1][1] }

// window returns the index of the measured window holding t, or -1.
func (tl timeline) window(t time.Time) int {
	for i, w := range tl.windows {
		if !t.Before(w[0]) && t.Before(w[1]) {
			return i
		}
	}
	return -1
}

// sample is one successful request: when it started (for the open loop,
// when it was due), how long it took, when it was acknowledged and how many
// events it carried.
type sample struct {
	start, acked time.Time
	lat          time.Duration
	events       int
}

// connStats is what one load connection observed.
type connStats struct {
	samples   []sample
	attempted int64
	failed    int64
	err       error
	genTime   time.Duration
	genEvents int64
	late      time.Duration // worst open-loop lateness inside the windows
	reqs      []request
}

func (st *connStats) fail(err error) {
	st.failed++
	if st.err == nil {
		st.err = err
	}
}

// httpRun is one HTTP workload run: the preloaded state, the server under
// test and the load connections driving it.
type httpRun struct {
	w      workload
	sc     scale
	dir    string
	keys   []string
	prods  []*producer
	qdraw  *producer // draws the keys the dashboard queries count
	tr     *tracer
	nextID atomic.Uint64
}

// runHTTP runs an HTTP workload in a fresh work directory under dir.
func runHTTP(w workload, sc scale, seed uint64, window time.Duration, traced bool, dir string) (*result, *tracer, error) {
	h := &httpRun{w: w, sc: sc, dir: dir}
	root := stream.NewRNG(seed)
	h.keys = keyTable(w.keys)
	for i := 0; i < w.producers; i++ {
		h.prods = append(h.prods, newProducer(i, w.producers, w.keys, w.zipf, root.Split()))
	}
	h.qdraw = newProducer(0, 1, w.keys, w.zipf, root.Split())
	oracleRNG := root.Split()
	if traced {
		h.tr = newTracer()
	}
	res := newResult(w.name)

	preload := filepath.Join(dir, "preload")
	if err := h.buildPreload(preload); err != nil {
		return nil, nil, err
	}
	// Each server instance starts cold on a fresh copy of the preload; the
	// last one serves the load.
	var setups []float64
	var srv *server.Server
	for i := 0; i < coldStarts; i++ {
		d := filepath.Join(dir, fmt.Sprintf("server%d", i))
		if err := copyDir(preload, d); err != nil {
			return nil, nil, err
		}
		// Every start begins with the previous instances' garbage collected.
		runtime.GC()
		start := time.Now()
		s, err := server.New(serverConfig(sc, d))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < coldStarts-1 {
			if err := s.Close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(d); err != nil {
				return nil, nil, err
			}
			continue
		}
		srv = s
	}
	res.set("setup_s", median(setups))
	res.note("setup_s: median of %d cold server.New over the preloaded WAL directory (%d events, %d keys)",
		len(setups), w.preload, w.keys)

	tl, conns, mets, err := h.load(srv, window, traced)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	h.report(res, tl, conns)
	if !traced {
		// The latency samples grow with throughput; without them the heap is
		// the server's plus the generator's fixed tables.
		for _, st := range conns {
			st.samples = nil
		}
	}
	res.set("heap_inuse_mb", heapInuseMB())

	oracleErr := h.oracle(srv, oracleRNG)
	if err := srv.Close(); err != nil && oracleErr == nil {
		oracleErr = err
	}
	res.Correct = oracleErr == nil && res.Failed == 0
	if oracleErr != nil {
		res.note("ORACLE FAILED: %v", oracleErr)
	} else {
		res.note("oracle ok: after flush, summary total/adds/removes, top-%d frequencies and %d sampled counts match the model",
			oracleTopK, oracleSample)
	}
	if !traced {
		return res, nil, nil
	}
	if err := h.layers(res, preload, tl, conns, mets, window); err != nil {
		return nil, nil, err
	}
	return res, h.tr, nil
}

// buildPreload builds the starting state with the library's own calls:
// BuildKeyed over a WAL directory, ApplyBatch of the producers' first
// events, and a Checkpoint, so each server starts from a snapshot. The first
// events add every key once: with the whole key space in the id map from the
// start, the server's memory does not grow with the number of events the
// window gets through.
func (h *httpRun) buildPreload(dir string) error {
	k, err := sprofile.BuildKeyed[string](h.sc.capacity, sprofile.WithWAL(dir))
	if err != nil {
		return err
	}
	const chunk = 1 << 12
	buf := make([]event, chunk)
	for _, p := range h.prods {
		keys := p.addEach()
		for lo := 0; lo < len(keys); lo += chunk {
			if err := applyEvents(k, h.keys, keys[lo:min(lo+chunk, len(keys))]); err != nil {
				k.Close()
				return err
			}
		}
		for left := h.w.preload/len(h.prods) - len(keys); left > 0; {
			evs := p.fill(buf[:min(len(buf), left)])
			if err := applyEvents(k, h.keys, evs); err != nil {
				k.Close()
				return err
			}
			left -= len(evs)
		}
	}
	if err := k.Checkpoint(); err != nil {
		k.Close()
		return err
	}
	return k.Close()
}

// applyEvents applies events through KeyedConcurrent.ApplyBatch.
func applyEvents(k *sprofile.KeyedConcurrent[string], keys []string, evs []event) error {
	batch := make([]sprofile.KeyedTuple[string], len(evs))
	for i, e := range evs {
		batch[i] = sprofile.KeyedTuple[string]{Key: keys[e.key], Action: libAction(e.add)}
	}
	_, err := k.ApplyBatch(batch)
	return err
}

func libAction(add bool) sprofile.Action {
	if add {
		return sprofile.ActionAdd
	}
	return sprofile.ActionRemove
}

func wireAction(add bool) string {
	if add {
		return client.ActionAdd
	}
	return client.ActionRemove
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// serve runs h on a loopback listener until stop is called.
func serve(h http.Handler) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// newConn returns an SDK client with one connection of its own. In a traced
// run its transport tags requests with their id.
func (h *httpRun) newConn(base string) (*client.Client, error) {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	if h.tr != nil {
		rt = idTransport{next: rt}
	}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: rt}))
}

// load drives the server with the workload's connections through warm-up
// and the measured windows. It returns the timeline, one connStats per
// connection (the query connection last), and, in a traced run, the
// server's metric deltas across the traced window.
func (h *httpRun) load(srv *server.Server, window time.Duration, traced bool) (timeline, []*connStats, metricDelta, error) {
	var handler http.Handler = srv
	if h.tr != nil {
		handler = serveSpans(h.tr, srv)
	}
	base, stop, err := serve(handler)
	if err != nil {
		return timeline{}, nil, nil, err
	}
	n := len(h.prods)
	if h.w.queryRate > 0 {
		n++
	}
	clients := make([]*client.Client, n)
	for i := range clients {
		if clients[i], err = h.newConn(base); err != nil {
			stop()
			return timeline{}, nil, nil, err
		}
	}
	tl := newTimeline(time.Now(), h.sc.warmup, window, traced)
	conns := make([]*connStats, n)
	var wg sync.WaitGroup
	for i := range conns {
		conns[i] = &connStats{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i < len(h.prods) {
				h.produce(h.prods[i], clients[i], tl, conns[i])
			} else {
				h.dashboard(clients[i], tl, conns[i])
			}
		}(i)
	}
	var mets metricDelta
	if traced {
		w := tl.windows[1]
		time.Sleep(time.Until(w[0]))
		before, serr := scrape()
		time.Sleep(time.Until(w[1]))
		after, aerr := scrape()
		mets = after.minus(before)
		err = errors.Join(serr, aerr)
	}
	wg.Wait()
	return tl, conns, mets, errors.Join(err, stop())
}

// produce is one closed-loop ingest connection: it generates a request,
// sends it, waits for the ack, and repeats until the last window ends.
func (h *httpRun) produce(p *producer, c *client.Client, tl timeline, st *connStats) {
	buf := make([]event, h.w.body)
	wire := make([]client.Event, h.w.body)
	op := "client.send_events"
	if h.w.kind == kindBulk {
		op = "client.bulk_ingest"
	}
	for {
		g0 := time.Now()
		if !g0.Before(tl.end()) {
			return
		}
		evs := p.fill(buf)
		for i, e := range evs {
			wire[i] = client.Event{Object: h.keys[e.key], Action: wireAction(e.add)}
		}
		st.genTime += time.Since(g0)
		st.genEvents += int64(len(evs))

		id := h.nextID.Add(1)
		send := time.Now()
		win := tl.window(send)
		ctx := context.Background()
		if win == 1 {
			ctx = withRequestID(ctx, id)
		}
		var err error
		if h.w.kind == kindEvents {
			_, err = c.SendEvents(ctx, wire)
		} else {
			_, err = c.BulkIngest(ctx, wire)
		}
		ack := time.Now()
		st.attempted++
		if err != nil {
			st.fail(err)
		} else {
			st.samples = append(st.samples, sample{start: send, acked: ack, lat: ack.Sub(send), events: len(evs)})
		}
		if h.tr != nil {
			if win == 1 {
				h.tr.record(op, id, -1, send, ack)
			}
			st.reqs = append(st.reqs, request{id: id, kind: h.w.kind, sent: send, events: slices.Clone(evs), traced: win == 1})
		}
	}
}

// dashboard is the open-loop query connection: composite queries are due
// at a fixed rate from the start of the load. A query's latency counts from
// its due time when an earlier query held it back, and from its send time
// when only the timer woke late.
func (h *httpRun) dashboard(c *client.Client, tl timeline, st *connStats) {
	period := time.Second / time.Duration(h.w.queryRate)
	prevDone := tl.start
	for i := 0; ; i++ {
		due := tl.start.Add(time.Duration(i) * period)
		if !due.Before(tl.end()) {
			return
		}
		g0 := time.Now()
		q := sprofile.KeyedQuery[string]{Mode: true, TopK: 10, Quantiles: []float64{0.5, 0.99}, Summary: true}
		for j := 0; j < 8; j++ {
			q.Count = append(q.Count, h.keys[h.qdraw.draw()])
		}
		st.genTime += time.Since(g0)
		time.Sleep(time.Until(due))

		id := h.nextID.Add(1)
		send := time.Now()
		traced := tl.window(send) == 1
		ctx := context.Background()
		if traced {
			ctx = withRequestID(ctx, id)
		}
		_, err := c.Query(ctx, q)
		done := time.Now()
		st.attempted++
		from := due
		if !prevDone.After(due) {
			from = send
		}
		prevDone = done
		if err != nil {
			st.fail(err)
		} else {
			st.samples = append(st.samples, sample{start: due, acked: done, lat: done.Sub(from)})
			if tl.window(due) >= 0 {
				st.late = max(st.late, send.Sub(due))
			}
		}
		if h.tr != nil {
			if traced {
				h.tr.record("client.query", id, -1, send, done)
			}
			st.reqs = append(st.reqs, request{id: id, kind: kindQuery, sent: send, query: q, traced: traced})
		}
	}
}

// windowStats summarises the samples of some connections in one measured
// window: every latency sample started in it and the events acknowledged in
// it.
type windowStats struct {
	lat    latencies
	events int64
}

func collect(tl timeline, w int, conns []*connStats) windowStats {
	var out windowStats
	for _, st := range conns {
		for _, s := range st.samples {
			if tl.window(s.start) == w {
				out.lat = append(out.lat, s.lat)
			}
			if tl.window(s.acked) == w {
				out.events += int64(s.events)
			}
		}
	}
	return out
}

// report sets the reported timings from the untraced window.
func (h *httpRun) report(res *result, tl timeline, conns []*connStats) {
	window := tl.windows[0][1].Sub(tl.windows[0][0])
	for i, st := range conns {
		res.Attempted += st.attempted
		res.Failed += st.failed
		if st.err != nil {
			res.note("connection %d: %d failed requests, first: %v", i, st.failed, st.err)
		}
	}
	res.set("failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	ingest := collect(tl, 0, conns[:len(h.prods)])
	res.set("ingest_events_per_s", float64(ingest.events)/window.Seconds())
	res.set("ingest_ack_p50_ms", ms(ingest.lat.quantile(0.5)))
	res.set("ingest_ack_p99_ms", ms(ingest.lat.quantile(0.99)))
	res.note("window %v after %v warm-up: %d events acked by %d closed-loop connection(s); ingest ack of one %d-event request: %s",
		window, h.sc.warmup, ingest.events, len(h.prods), h.w.body, tailNote(len(ingest.lat)))
	if h.w.queryRate > 0 {
		q := collect(tl, 0, conns[len(h.prods):])
		res.set("query_p50_ms", ms(q.lat.quantile(0.5)))
		res.set("query_p99_ms", ms(q.lat.quantile(0.99)))
		res.note("query: one composite query at %d/s, timed from its due time: %s", h.w.queryRate, tailNote(len(q.lat)))
	}
}

// oracle checks the server's state against the producers' models: flush,
// then one composite query.
func (h *httpRun) oracle(srv *server.Server, rng *stream.RNG) error {
	base, stop, err := serve(srv)
	if err != nil {
		return err
	}
	c, err := client.New(base)
	if err != nil {
		return errors.Join(err, stop())
	}
	ctx := context.Background()
	exp := expect(model{h.prods}, h.keys, rng)
	err = c.Flush(ctx)
	if err == nil {
		var got sprofile.KeyedQueryResult[string]
		if got, err = c.Query(ctx, exp.query()); err == nil {
			err = exp.check(got)
		}
	}
	return errors.Join(err, stop())
}
