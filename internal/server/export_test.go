package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprofile"
)

func TestExportImportRoundTrip(t *testing.T) {
	ts := newTestServer(t, 100)
	postEvents(t, ts, `[
		{"object":"a","action":"add"},
		{"object":"a","action":"add"},
		{"object":"a","action":"add"},
		{"object":"b","action":"add"},
		{"object":"b","action":"add"},
		{"object":"c","action":"add"},
		{"object":"c","action":"remove"}
	]`)

	var doc exportDoc
	resp := getJSON(t, ts, "/v1/export", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export = %d", resp.StatusCode)
	}
	if doc.Capacity != 100 {
		t.Fatalf("export capacity = %d", doc.Capacity)
	}
	// Only objects with positive frequency appear, most frequent first.
	if len(doc.Objects) != 2 {
		t.Fatalf("export objects = %+v", doc.Objects)
	}
	if doc.Objects[0].Object != "a" || doc.Objects[0].Frequency != 3 {
		t.Fatalf("export[0] = %+v", doc.Objects[0])
	}
	if doc.Objects[1].Object != "b" || doc.Objects[1].Frequency != 2 {
		t.Fatalf("export[1] = %+v", doc.Objects[1])
	}

	// Import the document into a fresh server and verify the state matches.
	fresh := newTestServer(t, 100)
	body, _ := json.Marshal(doc)
	importResp, err := http.Post(fresh.URL+"/v1/import", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer importResp.Body.Close()
	if importResp.StatusCode != http.StatusOK {
		t.Fatalf("import = %d", importResp.StatusCode)
	}
	res := mustQuery(t, fresh, `{"mode":true,"count":["b"]}`)
	if res.Mode.Key != "a" || res.Mode.Frequency != 3 {
		t.Fatalf("mode after import = %+v", res.Mode)
	}
	if res.Counts[0].Frequency != 2 {
		t.Fatalf("count(b) after import = %+v", res.Counts[0])
	}

	// The putback law on a recycling profile: a seeded random state on a
	// capacity-16, two-shard server whose stripes have evicted idle keys
	// exports as its positive counts, most frequent first and ties by
	// object; imported into a fresh server, it exports the same document,
	// and every key ever written has the same count on both.
	t.Run("recycling", func(t *testing.T) {
		s, err := New(Config{Capacity: 16, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		src := httptest.NewServer(s)
		defer src.Close()
		rng := rand.New(rand.NewSource(25))
		model := map[string]int64{}
		var keys []string
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key-%02d", rng.Intn(48))
			if _, seen := model[key]; !seen {
				model[key] = 0
				keys = append(keys, key)
			}
			if model[key] > 0 && rng.Intn(2) == 0 {
				if err := s.prof().Remove(key); err != nil {
					t.Fatalf("Remove(%s) at %d: %v", key, model[key], err)
				}
				model[key]--
				continue
			}
			switch err := s.prof().Add(key); {
			case err == nil:
				model[key]++
			case errors.Is(err, sprofile.ErrKeyedFull):
				// The key's stripe had no idle key to evict; nothing changed.
			default:
				t.Fatalf("Add(%s): %v", key, err)
			}
		}
		if len(keys) <= s.prof().Tracked() {
			t.Fatalf("%d keys written and %d tracked: no key was evicted", len(keys), s.prof().Tracked())
		}
		var want []exportEntry
		for _, key := range keys {
			if f := model[key]; f > 0 {
				want = append(want, exportEntry{Object: key, Frequency: f})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Frequency != want[j].Frequency {
				return want[i].Frequency > want[j].Frequency
			}
			return want[i].Object < want[j].Object
		})
		var first exportDoc
		getJSON(t, src, "/v1/export", &first)
		if !slices.Equal(first.Objects, want) {
			t.Fatalf("export = %+v\nwant the positive counts in order %+v", first.Objects, want)
		}

		dst := newTestServer(t, 16)
		if resp, out := postJSON(t, dst.URL+"/v1/import", mustJSON(t, first)); resp.StatusCode != http.StatusOK {
			t.Fatalf("import = %d %+v", resp.StatusCode, out)
		}
		var second exportDoc
		getJSON(t, dst, "/v1/export", &second)
		if second.Capacity != first.Capacity || !slices.Equal(second.Objects, first.Objects) {
			t.Fatalf("re-export after import = %+v\nwant %+v", second, first)
		}
		counts := mustJSON(t, sprofile.KeyedQuery[string]{Count: keys})
		before, after := mustQuery(t, src, counts).Counts, mustQuery(t, dst, counts).Counts
		for i, key := range keys {
			if before[i].Frequency != model[key] || after[i].Frequency != model[key] {
				t.Fatalf("count(%s) = %d exported, %d imported; want %d", key, before[i].Frequency, after[i].Frequency, model[key])
			}
		}
	})
}

// TestExportUnderRecyclingChurn pins that an export pairs every object with
// the frequency it held, while ids are recycled around the export: four
// writers each add a fresh key "k<n>" with frequency n%1000+1 in one delta
// and remove their key n-12 the same way, so every key holds 0 or its own
// frequency and the full stripes of a capacity-64, two-shard server evict
// idle keys all the time.
func TestExportUnderRecyclingChurn(t *testing.T) {
	const exports, writers, lag = 5000, 4, 12
	s, err := New(Config{Capacity: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	key := func(n int) string { return "k" + strconv.Itoa(n) }
	freq := func(n int) uint64 { return uint64(n%1000 + 1) }
	var done atomic.Bool
	var wg sync.WaitGroup
	stop := func() {
		done.Store(true)
		wg.Wait()
	}
	defer stop()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			added := map[int]bool{}
			for n := w; !done.Load(); n += writers {
				switch err := s.prof().ApplyDelta(key(n), freq(n), 0); {
				case err == nil:
					added[n] = true
				case !errors.Is(err, sprofile.ErrKeyedFull):
					t.Errorf("add %s: %v", key(n), err)
					return
				}
				if old := n - lag; added[old] {
					delete(added, old)
					if err := s.prof().ApplyDelta(key(old), 0, freq(old)); err != nil {
						t.Errorf("remove %s: %v", key(old), err)
						return
					}
				}
			}
		}(w)
	}
	wrong, listed := 0, 0
	for i := 0; i < exports && !t.Failed(); i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/export", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("export = %d %s", rec.Code, rec.Body)
		}
		var doc exportDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		for _, e := range doc.Objects {
			listed++
			n, err := strconv.Atoi(strings.TrimPrefix(e.Object, "k"))
			if err != nil || !strings.HasPrefix(e.Object, "k") || int64(freq(n)) != e.Frequency {
				wrong++
			}
		}
	}
	stop()
	if wrong > 0 {
		t.Fatalf("%d of %d exported entries in %d exports carried a frequency their object never held", wrong, listed, exports)
	}
}

// mustJSON encodes v as a request body.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestImportValidation(t *testing.T) {
	ts := newTestServer(t, 10)
	cases := map[string]struct{ body, code string }{
		"not json":           {`nope`, "bad_request"},
		"empty object":       {`{"objects":[{"object":"","frequency":1}]}`, "out_of_range"},
		"negative frequency": {`{"objects":[{"object":"x","frequency":-2}]}`, "bad_request"},
		// 2^62, one past MaxInt64/2: no profile can hold it, so the
		// document is refused whole, the valid entry before it included.
		"frequency past the bound": {`{"objects":[{"object":"x","frequency":1},{"object":"y","frequency":4611686018427387904}]}`, "out_of_range"},
	}
	for name, tc := range cases {
		resp, out := postJSON(t, ts.URL+"/v1/import", tc.body)
		if resp.StatusCode != http.StatusBadRequest || out["code"] != tc.code {
			t.Fatalf("%s: import = %d %+v, want 400 %s", name, resp.StatusCode, out, tc.code)
		}
		if applied, ok := out["applied"]; ok && applied != 0.0 {
			t.Fatalf("%s: %v applied, want 0", name, applied)
		}
		if f := countOf(t, ts, "x"); f != 0 {
			t.Fatalf("%s: count(x) = %d after a refused document, want 0", name, f)
		}
	}
}

// TestImportEmptyObjectIsOutOfRange pins the wire code of an import entry
// without an object: the write routes' shared validation class, so a client
// can errors.Is it against sprofile.ErrOutOfRange.
func TestImportEmptyObjectIsOutOfRange(t *testing.T) {
	ts := newTestServer(t, 10)
	resp, out := postJSON(t, ts.URL+"/v1/import", `{"objects":[{"object":"a","frequency":2},{"object":"","frequency":1}]}`)
	if resp.StatusCode != http.StatusBadRequest || out["code"] != "out_of_range" || out["applied"] != 0.0 {
		t.Fatalf("import of an empty object = %d %+v, want 400 out_of_range with 0 applied", resp.StatusCode, out)
	}
	if f := countOf(t, ts, "a"); f != 0 {
		t.Fatalf("count(a) = %d after a rejected document, want 0", f)
	}
}

// TestImportAckIsDurable pins that an import is acknowledged only once it
// is durable: a copy of the WAL directory taken right after the 200, with
// the server still running (a crash stand-in), recovers every imported
// count.
func TestImportAckIsDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, ts := newWALServer(t, Config{Capacity: 16, WALPath: dir})
	defer s.Close()
	if resp, out := postJSON(t, ts.URL+"/v1/import", `{"objects":[{"object":"a","frequency":3},{"object":"b","frequency":2}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("import = %d %+v", resp.StatusCode, out)
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Capacity: 16, WALPath: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	for object, want := range map[string]int64{"a": 3, "b": 2} {
		if f := countOf(t, ts2, object); f != want {
			t.Fatalf("count(%s) recovered from the acknowledged import = %d, want %d", object, f, want)
		}
	}
}

// TestImportOverCapacity: an entry that fails leaves only itself
// unapplied, and "applied" counts the events of the others.
func TestImportOverCapacity(t *testing.T) {
	ts := newTestServer(t, 2)
	resp, out := postJSON(t, ts.URL+"/v1/import", `{"objects":[
		{"object":"a","frequency":1},
		{"object":"b","frequency":3},
		{"object":"c","frequency":1}
	]}`)
	if resp.StatusCode != http.StatusInsufficientStorage || out["applied"] != 4.0 {
		t.Fatalf("over-capacity import = %d %+v, want 507 with 4 applied", resp.StatusCode, out)
	}
	if a, b := countOf(t, ts, "a"), countOf(t, ts, "b"); a != 1 || b != 3 {
		t.Fatalf("counts after a partial import: a %d, b %d; want 1 and 3", a, b)
	}
}

// TestImportLargeFrequencyIsOneFsync pins that an import entry costs one
// delta however large its frequency: an entry of frequency 10^6 on a WAL
// server is applied and made durable by exactly one fsync.
func TestImportLargeFrequencyIsOneFsync(t *testing.T) {
	s, ts := newWALServer(t, Config{Capacity: 16})
	defer s.Close()
	before, _ := s.prof().WALStats()
	if resp, out := postJSON(t, ts.URL+"/v1/import", `{"objects":[{"object":"big","frequency":1000000}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("import = %d %+v", resp.StatusCode, out)
	}
	after, _ := s.prof().WALStats()
	if fsyncs := after.Fsyncs - before.Fsyncs; fsyncs != 1 {
		t.Fatalf("import of one entry of frequency 10^6 took %d fsyncs, want 1", fsyncs)
	}
	if f := countOf(t, ts, "big"); f != 1_000_000 {
		t.Fatalf("count(big) = %d, want 10^6", f)
	}
}

// TestImportAtTheBound: imports may fill the profile's adds counter to
// the bound, MaxInt64/2, and no further. On a two-shard WAL server an
// import to one below the bound, a checkpoint and an import of 1 apply;
// later adds of any key, on either shard, are refused with 400
// out_of_range; and the state still exports, replicates to a one-shard
// follower (snapshot plus tail), checkpoints and comes back after a
// restart.
func TestImportAtTheBound(t *testing.T) {
	const bound = math.MaxInt64 / 2
	cfg := Config{Capacity: 8, Shards: 2, WALPath: filepath.Join(t.TempDir(), "wal")}
	s, ts := newWALServer(t, cfg)
	for _, step := range []struct{ path, body string }{
		{"/v1/import", fmt.Sprintf(`{"objects":[{"object":"a","frequency":%d}]}`, bound-1)},
		{"/v1/admin/checkpoint", ""},
		{"/v1/import", `{"objects":[{"object":"b","frequency":1}]}`},
	} {
		if resp, out := postJSON(t, ts.URL+step.path, step.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s up to the bound = %d %+v", step.path, resp.StatusCode, out)
		}
	}
	for i := range 6 {
		key := fmt.Sprintf("k%d", i)
		resp, out := postJSON(t, ts.URL+"/v1/import", `{"objects":[{"object":"`+key+`","frequency":1}]}`)
		if resp.StatusCode != http.StatusBadRequest || out["code"] != "out_of_range" || out["applied"] != 0.0 {
			t.Fatalf("import of %s past the bound = %d %+v, want 400 out_of_range with 0 applied", key, resp.StatusCode, out)
		}
	}
	if resp, out := postEvents(t, ts, `[{"object":"c","action":"add"}]`); resp.StatusCode != http.StatusBadRequest || out.Code != "out_of_range" {
		t.Fatalf("add past the bound = %d %+v, want 400 out_of_range", resp.StatusCode, out)
	}
	var doc exportDoc
	if resp := getJSON(t, ts, "/v1/export", &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("export at the bound = %d", resp.StatusCode)
	}
	if len(doc.Objects) != 2 || doc.Objects[0] != (exportEntry{Object: "a", Frequency: bound - 1}) || doc.Objects[1] != (exportEntry{Object: "b", Frequency: 1}) {
		t.Fatalf("export at the bound = %+v, want a at %d and b at 1", doc.Objects, int64(bound-1))
	}
	atTheBound := func(stage string, ts *httptest.Server) {
		t.Helper()
		res := mustQuery(t, ts, `{"count":["a","b"],"summary":true}`)
		if res.Counts[0].Frequency != bound-1 || res.Counts[1].Frequency != 1 || res.Summary.Total != bound || res.Summary.Adds != bound {
			t.Fatalf("%s: counts %+v, summary %+v; want a at %d, b at 1, total and adds %d",
				stage, res.Counts, res.Summary, int64(bound-1), int64(bound))
		}
	}
	follower, err := New(Config{Capacity: 8, Shards: 1, WALPath: filepath.Join(t.TempDir(), "follower"), Follow: ts.URL, FollowPoll: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("one-shard follower at the bound: %v", err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower)
	defer fts.Close()
	seg, off := leaderPosition(t, ts)
	waitForCaughtUp(t, follower, seg, off)
	atTheBound("one-shard follower", fts)

	if resp, out := postJSON(t, ts.URL+"/v1/admin/checkpoint", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint at the bound = %d %+v", resp.StatusCode, out)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newWALServer(t, cfg)
	defer s2.Close()
	atTheBound("restart", ts2)
}

// TestRankEndpoint pins the README's recipe for an object's rank and
// percentile: from one {"count":[o],"distribution":true} query, the rank is
// the number of slots at or above o's frequency (1 = most frequent) and the
// percentile the fraction of slots below it. The distribution counts every
// slot, so its counts sum to the capacity.
func TestRankEndpoint(t *testing.T) {
	ts := newTestServer(t, 10)
	postEvents(t, ts, `[
		{"object":"popular","action":"add"},
		{"object":"popular","action":"add"},
		{"object":"popular","action":"add"},
		{"object":"niche","action":"add"}
	]`)
	rank := func(object string) (frequency int64, rank int, percentile float64) {
		res := mustQuery(t, ts, `{"count":["`+object+`"],"distribution":true}`)
		frequency = res.Counts[0].Frequency
		slots := 0
		for _, fc := range res.Distribution {
			slots += fc.Count
			if fc.Freq >= frequency {
				rank += fc.Count
			}
		}
		return frequency, rank, float64(slots-rank) / float64(slots)
	}

	if f, r, p := rank("popular"); f != 3 || r != 1 || p != 0.9 {
		t.Fatalf("rank(popular) = %d, %d, %g", f, r, p)
	}
	if f, r, _ := rank("niche"); f != 1 || r != 2 {
		t.Fatalf("rank(niche) = %d, %d", f, r)
	}
	// Unknown objects count as frequency zero and rank behind every active one.
	if f, r, p := rank("ghost"); f != 0 || r != 10 || p != 0 {
		t.Fatalf("rank(ghost) = %d, %d, %g", f, r, p)
	}
}

func TestExportImportMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, 10)
	resp, err := http.Post(ts.URL+"/v1/export", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/export = %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/import")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/import = %d", getResp.StatusCode)
	}
}

// httptest server reuse guard: ensure the new routes do not shadow existing
// ones (mux registration panics on duplicates, so constructing a server is
// enough, but exercise one old and one new route together for good measure).
func TestRoutesCoexist(t *testing.T) {
	s, err := New(Config{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export on fresh server = %d", resp.StatusCode)
	}
}
