package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sprofile"
	"sprofile/client"
	"sprofile/internal/checkpoint"
	"sprofile/internal/core"
	"sprofile/internal/idmap"
	"sprofile/internal/server"
	"sprofile/internal/wal"
)

// replayed is one traced request prepared for the replay: its route,
// content type and wire body as the client SDK encodes them.
type replayed struct {
	request
	path, contentType string
	body              []byte
}

// layers computes the per-layer metrics of a traced run from the live phase
// (spans and metric deltas of the traced window) and from the replay phase:
// the traced window's requests are replayed one at a time, each first whole
// through ServeHTTP and then stage by stage through the public calls the
// handler makes, and the layers below are timed alone on the same inputs.
func (h *httpRun) layers(res *result, preload string, tl timeline, conns []*connStats, mets metricDelta, window time.Duration) error {
	zeroLayers(res)
	h.liveLayers(res, tl, conns, mets)

	var reqs []request
	for _, st := range conns {
		reqs = append(reqs, st.reqs...)
		st.reqs = nil
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].sent.Before(reqs[j].sent) })
	first := sort.Search(len(reqs), func(i int) bool { return reqs[i].traced })

	base := filepath.Join(h.dir, "replay-base")
	if err := h.buildBase(preload, base, reqs[:first]); err != nil {
		return err
	}
	traced := reqs[first:]
	n, fsync, err := h.replay(base, traced, time.Duration(h.sc.replayShare*float64(window)))
	if err != nil {
		return err
	}
	rs := traced[:n]
	if err := h.shadows(base, rs); err != nil {
		return err
	}
	h.tr.finish()
	h.replayLayers(res, rs, fsync)
	res.note("replayed %d of %d traced requests (budget %.0f%% of the window)", n, len(traced), 100*h.sc.replayShare)
	return nil
}

// liveLayers sets the metrics measured during the traced window itself.
func (h *httpRun) liveLayers(res *result, tl timeline, conns []*connStats, mets metricDelta) {
	untraced := collect(tl, 0, conns).events
	traced := collect(tl, 1, conns).events
	var gen time.Duration
	var genEvents int64
	for i, st := range conns {
		if i < len(h.prods) {
			gen += st.genTime
			genEvents += st.genEvents
		} else {
			res.set("gen.late_ms_max", ms(st.late))
		}
	}
	if traced > 0 {
		res.set("trace.overhead", float64(untraced)/float64(traced)-1)
	}
	res.set("gen.ns_per_event", float64(gen.Nanoseconds())/float64(genEvents))

	client, serve := map[uint64]time.Duration{}, map[uint64]time.Duration{}
	for _, s := range h.tr.spans {
		switch {
		case s.Name == "server.serve":
			serve[s.Req] = s.dur()
		case sdkOps[s.Name]:
			client[s.Req] = s.dur()
		}
	}
	var serveSum, transportSum time.Duration
	var joined int
	for id, d := range serve {
		serveSum += d
		if c, ok := client[id]; ok {
			transportSum += c - d
			joined++
		}
	}
	if len(serve) > 0 {
		res.set("server.serve_us_per_req", us(serveSum)/float64(len(serve)))
	}
	if joined > 0 {
		res.set("transport_us_per_req", us(transportSum)/float64(joined))
	}

	ingestReqs := mets.sum("sprofile_http_requests_total", `route="/v1/events"`) +
		mets.sum("sprofile_http_requests_total", `route="/v1/events/bulk"`)
	events := mets.sum("sprofile_ingest_events_total")
	fsyncs := mets.sum("sprofile_wal_fsyncs_total")
	if fsyncs > 0 {
		res.set("wal.fsync_us", 1e6*mets.sum("sprofile_wal_fsync_seconds_sum")/fsyncs)
	}
	if ingestReqs > 0 {
		res.set("wal.fsyncs_per_req", fsyncs/ingestReqs)
	}
	if events > 0 {
		res.set("wal.bytes_per_event", mets.sum("sprofile_wal_appended_bytes_total")/events)
		// Deltas applied per event: one per event on the per-event path, one
		// per distinct key of each batch on the batch path.
		res.set("core.coalesce_ratio", (mets.sum("sprofile_ingest_batch_distinct_keys_total")+
			mets.sum("sprofile_ingest_events_total", `path="keyed_event"`))/events)
	}
	res.set("checkpoint.count", mets.sum("sprofile_checkpoints_total"))
	res.set("checkpoint.seconds", mets.sum("sprofile_checkpoint_seconds_sum"))
}

// buildBase builds the state the replay starts from: the preload plus every
// request sent before the traced window, applied with ApplyBatch and
// checkpointed.
func (h *httpRun) buildBase(preload, base string, pre []request) error {
	if err := copyDir(preload, base); err != nil {
		return err
	}
	k, err := sprofile.BuildKeyed[string](h.sc.capacity, sprofile.WithWAL(base))
	if err != nil {
		return err
	}
	var evs []event
	flush := func() error {
		err := applyEvents(k, h.keys, evs)
		evs = evs[:0]
		return err
	}
	for _, r := range pre {
		evs = append(evs, r.events...)
		if len(evs) >= 1<<16 {
			if err := flush(); err != nil {
				k.Close()
				return err
			}
		}
	}
	if err := flush(); err != nil {
		k.Close()
		return err
	}
	if err := k.Checkpoint(); err != nil {
		k.Close()
		return err
	}
	return k.Close()
}

// encodeBody encodes a request the way the client SDK does and records the
// time as a client.encode span on tr (nil records nothing).
func (h *httpRun) encodeBody(r request, tr *tracer) (replayed, error) {
	out := replayed{request: r}
	start := time.Now()
	var err error
	switch r.kind {
	case kindEvents:
		out.path, out.contentType = "/v1/events", "application/json"
		out.body, err = json.Marshal(h.wire(r.events))
	case kindBulk:
		out.path, out.contentType = "/v1/events/bulk", "application/x-ndjson"
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, e := range h.wire(r.events) {
			if err = enc.Encode(e); err != nil {
				break
			}
		}
		out.body = buf.Bytes()
	case kindQuery:
		out.path, out.contentType = "/v1/query", "application/json"
		out.body, err = json.Marshal(r.query)
	}
	tr.record("client.encode", r.id, -1, start, time.Now())
	return out, err
}

func (h *httpRun) wire(evs []event) []client.Event {
	out := make([]client.Event, len(evs))
	for i, e := range evs {
		out[i] = client.Event{Object: h.keys[e.key], Action: wireAction(e.add)}
	}
	return out
}

// replay replays the traced requests in send order, one at a time, until
// the budget is spent, and returns how many it replayed. Each request runs
// whole through the ServeHTTP of a server started on a copy of base
// (replay.serve), then stage by stage on a twin BuildKeyed stack with the
// server's options, through the standard library and public calls the
// handler makes. replay also returns the fsync time spent inside the twin's
// ApplyBatch calls, where the bulk path syncs.
func (h *httpRun) replay(base string, reqs []request, budget time.Duration) (int, time.Duration, error) {
	whole, err := h.replayServer(base, "replay-whole")
	if err != nil {
		return 0, 0, err
	}
	defer whole.Close()
	router, err := h.replayServer("", "replay-route")
	if err != nil {
		return 0, 0, err
	}
	defer router.Close()
	dir := filepath.Join(h.dir, "replay-stages")
	if err := copyDir(base, dir); err != nil {
		return 0, 0, err
	}
	cfg := serverConfig(h.sc, dir)
	twin, err := sprofile.BuildKeyed[string](cfg.Capacity, sprofile.WithWAL(cfg.WALPath),
		sprofile.WithCheckpoints(sprofile.CheckpointPolicy{EveryBytes: cfg.CheckpointBytes}))
	if err != nil {
		return 0, 0, err
	}
	defer twin.Close()

	var fsync time.Duration
	turns := map[kind]int{}
	start := time.Now()
	for i, r := range reqs {
		if i > 0 && time.Since(start) > budget {
			return i, fsync, nil
		}
		rp, err := h.encodeBody(r, h.tr)
		if err != nil {
			return 0, 0, err
		}
		runs := [2]func() (time.Duration, error){
			func() (time.Duration, error) { return 0, h.serveWhole(whole, rp) },
			func() (time.Duration, error) { return h.stages(twin, router, rp) },
		}
		// Alternating which replay goes first, per request type, spreads
		// evenly over both what the other one and the request before leave
		// behind: caches, and the millisecond stalls a query replayed right
		// after a bulk body now and then suffers.
		if turns[r.kind]%2 == 1 {
			runs[0], runs[1] = runs[1], runs[0]
		}
		turns[r.kind]++
		for _, run := range runs {
			d, err := run()
			if err != nil {
				return 0, 0, err
			}
			fsync += d
		}
	}
	return len(reqs), fsync, nil
}

// serveWhole replays one request through the whole server's ServeHTTP under
// a replay.serve span.
func (h *httpRun) serveWhole(whole *server.Server, rp replayed) error {
	req := httptest.NewRequest(http.MethodPost, rp.path, bytes.NewReader(rp.body))
	req.Header.Set("Content-Type", rp.contentType)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	whole.ServeHTTP(rec, req)
	h.tr.record("replay.serve", rp.id, -1, t0, time.Now())
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replaying %s: status %d: %s", rp.path, rec.Code, rec.Body.String())
	}
	return nil
}

// replayServer starts a server with the benchmark's configuration on a copy
// of base (an empty WAL directory when base is "").
func (h *httpRun) replayServer(base, name string) (*server.Server, error) {
	dir := filepath.Join(h.dir, name)
	if base != "" {
		if err := copyDir(base, dir); err != nil {
			return nil, err
		}
	}
	return server.New(serverConfig(h.sc, dir))
}

// fsyncSeconds reads the WAL's cumulative fsync time from the metric
// registry.
func fsyncSeconds() (float64, error) {
	m, err := scrape()
	return m.sum("sprofile_wal_fsync_seconds_sum"), err
}

// stageSpan is one stage of a stage-by-stage replay.
type stageSpan struct {
	name       string
	start, end time.Time
}

// stages runs one request stage by stage under a replay.request span and
// returns the fsync time spent inside its apply stage. server.route is the
// server's middleware and routing, timed on the router instance answering
// GET on the bulk route, which is outside every deadline, with 405 and no
// handler work. On the deadline-wrapped routes the handler stages run inside
// http.TimeoutHandler, whose own cost is the server.deadline stage.
func (h *httpRun) stages(k *sprofile.KeyedConcurrent[string], router *server.Server, rp replayed) (time.Duration, error) {
	t0 := time.Now()
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/events/bulk", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		return 0, fmt.Errorf("route probe GET /v1/events/bulk: status %d, want 405", rec.Code)
	}
	route := time.Now()

	var inner []stageSpan
	var fsync time.Duration
	var err error
	handle := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fsync, err = h.handlerStages(k, rp, w, &inner)
	})
	rec = httptest.NewRecorder()
	var deadline *stageSpan
	if rp.kind == kindBulk {
		handle(rec, nil)
	} else {
		req := httptest.NewRequest(http.MethodPost, rp.path, nil)
		s := time.Now()
		http.TimeoutHandler(handle, requestTimeout, "").ServeHTTP(rec, req)
		deadline = &stageSpan{"server.deadline", s, time.Now()}
	}
	end := time.Now()
	if err != nil {
		return 0, err
	}
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("stage replay of %s: status %d", rp.path, rec.Code)
	}
	parent := h.tr.record("replay.request", rp.id, -1, t0, end)
	h.tr.record("server.route", rp.id, parent, t0, route)
	if deadline != nil {
		parent = h.tr.record(deadline.name, rp.id, parent, deadline.start, deadline.end)
	}
	for _, s := range inner {
		h.tr.record(s.name, rp.id, parent, s.start, s.end)
	}
	return fsync, nil
}

// handlerStages runs the handler's work for one request, writing the
// response to w and appending one span per stage to spans.
func (h *httpRun) handlerStages(k *sprofile.KeyedConcurrent[string], rp replayed, w http.ResponseWriter, spans *[]stageSpan) (time.Duration, error) {
	mark := func(name string, start time.Time) time.Time {
		now := time.Now()
		*spans = append(*spans, stageSpan{name, start, now})
		return now
	}
	t := time.Now()
	var resp any
	var fsync time.Duration
	switch rp.kind {
	case kindEvents:
		var batch []server.Event
		if err := strictDecode(bytes.TrimLeft(rp.body, " \t\r\n"), &batch); err != nil {
			return 0, err
		}
		t = mark("server.decode", t)
		for _, e := range batch {
			a, err := checkEvent(e)
			if err != nil {
				return 0, err
			}
			if err := k.Apply(e.Object, a); err != nil {
				return 0, err
			}
		}
		t = mark("sprofile.apply", t)
		if err := k.Sync(); err != nil {
			return 0, err
		}
		t = mark("sprofile.sync", t)
		resp = struct {
			Applied int `json:"applied"`
		}{len(batch)}
	case kindBulk:
		var chunk []sprofile.KeyedTuple[string]
		sc := bufio.NewScanner(bytes.NewReader(rp.body))
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var e server.Event
			if err := strictDecode(line, &e); err != nil {
				return 0, err
			}
			a, err := checkEvent(e)
			if err != nil {
				return 0, err
			}
			chunk = append(chunk, sprofile.KeyedTuple[string]{Key: e.Object, Action: a})
		}
		if err := sc.Err(); err != nil {
			return 0, err
		}
		t = mark("server.decode", t)
		// The registry reads sit between stages, outside every stage span.
		before, err := fsyncSeconds()
		if err != nil {
			return 0, err
		}
		t = time.Now()
		applied := 0
		for lo := 0; lo < len(chunk); lo += maxBatch {
			n, err := k.ApplyBatch(chunk[lo:min(lo+maxBatch, len(chunk))])
			if err != nil {
				return 0, err
			}
			applied += n
		}
		t = mark("sprofile.apply", t)
		after, err := fsyncSeconds()
		if err != nil {
			return 0, err
		}
		fsync = time.Duration((after - before) * 1e9)
		t = time.Now()
		resp = struct {
			Applied int `json:"applied"`
		}{applied}
	case kindQuery:
		var q sprofile.KeyedQuery[string]
		if err := strictDecode(rp.body, &q); err != nil {
			return 0, err
		}
		t = mark("server.decode", t)
		out, err := k.QueryKeys(q)
		if err != nil {
			return 0, err
		}
		if st, ok := k.LeaderReplicationStatus(); ok {
			out.Replication = &st
		}
		t = mark("sprofile.query", t)
		resp = out
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		return 0, err
	}
	mark("server.encode", t)
	return fsync, nil
}

// strictDecode decodes one JSON document rejecting unknown fields, as the
// server's decoders do.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkEvent validates an event's object and action as the server's ingest
// handlers do, for the two actions the client SDK sends.
func checkEvent(e server.Event) (sprofile.Action, error) {
	if e.Object == "" || len(e.Object) > wal.MaxKeyLen {
		return 0, fmt.Errorf("object %q out of range", e.Object)
	}
	switch e.Action {
	case client.ActionAdd:
		return sprofile.ActionAdd, nil
	case client.ActionRemove:
		return sprofile.ActionRemove, nil
	}
	return 0, fmt.Errorf("unknown action %q", e.Action)
}

// shadows times the layers below sprofile alone, on separate instances fed
// the replayed requests' inputs: the striped id map, the coalescer, the
// core profile's apply and query, and the WAL append head.
func (h *httpRun) shadows(base string, reqs []request) error {
	st, err := checkpoint.Open(base, checkpoint.Options{})
	if err != nil {
		return err
	}
	state := st.TakeState()
	if err := st.Close(); err != nil {
		return err
	}
	if state == nil {
		return fmt.Errorf("replay base %s has no snapshot", base)
	}
	ids, err := idmap.NewStriped[string](h.sc.capacity, shardsOf())
	if err != nil {
		return err
	}
	freqs := make([]int64, h.sc.capacity)
	for i, key := range state.Keys {
		id, _, err := ids.Acquire(key)
		if err != nil {
			return err
		}
		freqs[id] = state.Freqs[i]
	}
	prof, err := core.New(h.sc.capacity)
	if err != nil {
		return err
	}
	if err := prof.LoadFrequencies(freqs, state.Adds, state.Removes); err != nil {
		return err
	}
	coal, err := core.NewCoalescer(h.sc.capacity)
	if err != nil {
		return err
	}
	walDir := filepath.Join(h.dir, "shadow-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	log, err := wal.OpenDir(walDir, wal.Options{}, nil, 1, 0)
	if err != nil {
		return err
	}
	defer log.Close()

	for _, r := range reqs {
		switch r.kind {
		case kindEvents:
			err = h.shadowEvents(r, ids, prof, log)
		case kindBulk:
			err = h.shadowBulk(r, ids, prof, coal, log)
		case kindQuery:
			err = h.shadowQuery(r, ids, prof)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// shardsOf is the shard count server.Config{Shards: 0} selects: one per
// usable CPU.
func shardsOf() int { return max(1, min(runtime.GOMAXPROCS(0), runtime.NumCPU())) }

// shadowEvents times the per-event path's layers: one id resolution, one
// profile update and one WAL record per event.
func (h *httpRun) shadowEvents(r request, ids *idmap.Striped[string], prof *core.Profile, log *wal.Dir) error {
	tuples := make([]core.Tuple, len(r.events))
	t0 := time.Now()
	for i, e := range r.events {
		id, _, err := ids.Acquire(h.keys[e.key])
		if err != nil {
			return err
		}
		tuples[i] = core.Tuple{Object: id, Action: libAction(e.add)}
	}
	t1 := time.Now()
	h.tr.record("idmap.resolve", r.id, -1, t0, t1)
	for _, t := range tuples {
		if err := prof.Apply(t); err != nil {
			return err
		}
	}
	t2 := time.Now()
	h.tr.record("core.apply", r.id, -1, t1, t2)
	for _, e := range r.events {
		if _, err := log.Append(wal.Record{Key: h.keys[e.key], Action: libAction(e.add)}); err != nil {
			return err
		}
	}
	h.tr.record("wal.append", r.id, -1, t2, time.Now())
	return nil
}

// shadowBulk times the batch path's layers: one id resolution per distinct
// key, coalescing, one delta per distinct key and one WAL batch record.
func (h *httpRun) shadowBulk(r request, ids *idmap.Striped[string], prof *core.Profile, coal *core.Coalescer, log *wal.Dir) error {
	distinct := map[int32]bool{}
	var keys []string
	for _, e := range r.events {
		if !distinct[e.key] {
			distinct[e.key] = true
			keys = append(keys, h.keys[e.key])
		}
	}
	dense := make(map[string]int, len(keys))
	t0 := time.Now()
	for _, key := range keys {
		id, _, err := ids.Acquire(key)
		if err != nil {
			return err
		}
		dense[key] = id
	}
	t1 := time.Now()
	h.tr.record("idmap.resolve", r.id, -1, t0, t1)
	tuples := make([]core.Tuple, len(r.events))
	for i, e := range r.events {
		tuples[i] = core.Tuple{Object: dense[h.keys[e.key]], Action: libAction(e.add)}
	}
	t1 = time.Now()
	deltas, err := coal.Coalesce(tuples)
	if err != nil {
		return err
	}
	t2 := time.Now()
	h.tr.record("core.coalesce", r.id, -1, t1, t2)
	if _, err := prof.ApplyDeltas(deltas); err != nil {
		return err
	}
	t3 := time.Now()
	h.tr.record("core.apply", r.id, -1, t2, t3)
	entries := make([]wal.BatchEntry, len(deltas))
	for i, d := range deltas {
		key, _ := ids.Key(d.Object)
		entries[i] = wal.BatchEntry{Key: key, Adds: d.Adds, Removes: d.Removes}
	}
	t3 = time.Now()
	if _, err := log.AppendBatch(entries); err != nil {
		return err
	}
	h.tr.record("wal.append", r.id, -1, t3, time.Now())
	return nil
}

// shadowQuery times the dense evaluation of a composite query on the core
// profile, counts included.
func (h *httpRun) shadowQuery(r request, ids *idmap.Striped[string], prof *core.Profile) error {
	q := core.Query{Mode: r.query.Mode, TopK: r.query.TopK, Quantiles: r.query.Quantiles, Summary: r.query.Summary}
	for _, key := range r.query.Count {
		if id, err := ids.DenseID(key); err == nil {
			q.Count = append(q.Count, id)
		}
	}
	t0 := time.Now()
	if _, err := prof.Query(q); err != nil {
		return err
	}
	h.tr.record("core.eval", r.id, -1, t0, time.Now())
	return nil
}

// replayLayers sets the metrics measured by the replay and the shadows;
// fsync is the time the stage replay's apply stages spent in fsync.
func (h *httpRun) replayLayers(res *result, rs []request, fsync time.Duration) {
	all := map[uint64]bool{}
	ingest := map[uint64]bool{}
	queries := map[uint64]bool{}
	perEvent := map[uint64]bool{}
	var events, deltas int
	for _, r := range rs {
		all[r.id] = true
		switch r.kind {
		case kindQuery:
			queries[r.id] = true
		case kindEvents:
			perEvent[r.id] = true
			fallthrough
		default:
			ingest[r.id] = true
			events += len(r.events)
		}
	}
	_, coalesced := h.tr.selfTotal("core.coalesce", nil)
	deltas = events
	if len(perEvent) == 0 && events > 0 {
		// Count the deltas the batch path produced: distinct keys per body.
		deltas = 0
		for _, r := range rs {
			seen := map[int32]bool{}
			for _, e := range r.events {
				seen[e.key] = true
			}
			deltas += len(seen)
		}
	}
	mean := func(name string, set map[uint64]bool) float64 {
		n, total := h.tr.selfTotal(name, set)
		if n == 0 {
			return 0
		}
		return us(total) / float64(n)
	}
	perEv := func(total time.Duration) float64 {
		if events == 0 {
			return 0
		}
		return float64(total.Nanoseconds()) / float64(events)
	}
	res.set("client.encode_us_per_req", mean("client.encode", all))
	res.set("server.deadline_us_per_req", mean("server.deadline", nil))
	res.set("server.encode_us_per_query", mean("server.encode", queries))
	res.set("sprofile.sync_us_per_req", mean("sprofile.sync", perEvent))
	res.set("sprofile.query_us", mean("sprofile.query", queries))
	res.set("core.eval_us", mean("core.eval", queries))
	res.set("wal.append_us_per_req", mean("wal.append", ingest))

	_, decode := h.tr.selfTotal("server.decode", ingest)
	_, apply := h.tr.selfTotal("sprofile.apply", ingest)
	_, resolve := h.tr.selfTotal("idmap.resolve", nil)
	_, coreApply := h.tr.selfTotal("core.apply", nil)
	_, walAppend := h.tr.selfTotal("wal.append", nil)
	res.set("server.decode_ns_per_event", perEv(decode))
	res.set("sprofile.apply_ns_per_event", perEv(apply))
	res.set("idmap.resolve_ns_per_event", perEv(resolve))
	res.set("core.coalesce_ns_per_event", perEv(coalesced))
	if deltas > 0 {
		res.set("core.apply_ns_per_delta", float64(coreApply.Nanoseconds())/float64(deltas))
	}
	// The bulk path fsyncs inside ApplyBatch; that time is the WAL's, not
	// glue. (The per-event path fsyncs in its own sync stage.)
	res.set("sprofile.glue_ns_per_event", perEv(apply-fsync-resolve-coalesced-coreApply-walAppend))

	// Live serve against replayed serve of the same requests: the time a
	// request waited on locks, CPU and group commit under concurrency.
	liveN, live := h.tr.selfTotal("server.serve", all)
	replayN, replay := 0, time.Duration(0)
	stageSum := time.Duration(0)
	byKind := map[kind][2]time.Duration{}
	kindOf := map[uint64]kind{}
	for _, r := range rs {
		kindOf[r.id] = r.kind
	}
	for _, s := range h.tr.spans {
		if !all[s.Req] {
			continue
		}
		k := kindOf[s.Req]
		switch s.Name {
		case "replay.serve":
			replayN++
			replay += s.dur()
			v := byKind[k]
			v[0] += s.dur()
			byKind[k] = v
		case "server.route", "server.deadline", "server.decode", "sprofile.apply", "sprofile.sync", "sprofile.query", "server.encode":
			stageSum += time.Duration(s.Self)
			v := byKind[k]
			v[1] += time.Duration(s.Self)
			byKind[k] = v
		}
	}
	if liveN > 0 && replayN > 0 {
		res.set("server.wait_us_per_req", us(live)/float64(liveN)-us(replay)/float64(replayN))
	}
	if replay > 0 {
		res.set("replay.sum_ratio", float64(stageSum)/float64(replay))
	}
	for _, k := range []kind{kindEvents, kindBulk, kindQuery} {
		if v, ok := byKind[k]; ok && v[0] > 0 {
			res.note("replay %s: stage self times sum to %.3f of replay.serve", kindName(k), float64(v[1])/float64(v[0]))
		}
	}
}

func kindName(k kind) string {
	switch k {
	case kindEvents:
		return "/v1/events"
	case kindBulk:
		return "/v1/events/bulk"
	case kindQuery:
		return "/v1/query"
	}
	return "core"
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
