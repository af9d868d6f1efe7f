package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"sprofile"
	"sprofile/internal/core"
	"sprofile/internal/stream"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string, workloadNames []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range doc.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

func metricNames(ms map[string]metric) []string {
	var names []string
	for name := range ms {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// wantReported is the set of reported timings a workload carries.
func wantReported(w workload) []string {
	if w.kind == kindCore {
		return []string{"core_median_ns_per_event", "core_mode_ns_per_event"}
	}
	names := []string{"failed_ratio", "ingest_ack_p50_ms", "ingest_ack_p99_ms", "ingest_events_per_s"}
	if w.queryRate > 0 {
		names = append(names, "query_p50_ms", "query_p99_ms")
	}
	return names
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks the emitted metric sets against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	wantE2E, wantLayers, wantWorkloads := declared(t)
	slices.Sort(wantE2E)
	slices.Sort(wantLayers)
	validName := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	sc := tinyScale()
	var names []string
	for _, w := range workloads(sc) {
		names = append(names, w.name)
		for _, traced := range []bool{false, true} {
			res, tr, err := runWorkload(w, sc, 7, 150*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if err := res.finish(traced); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%q",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.notes)
			}
			want := wantE2E
			if traced {
				want = wantLayers
			}
			if got := metricNames(res.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v emits %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
			if !traced {
				if got, want := metricNames(res.reported), wantReported(w); !slices.Equal(got, want) {
					t.Errorf("%s reports %v, want %v", w.name, got, want)
				}
				for name, m := range res.reported {
					if name != "failed_ratio" && m.Value <= 0 {
						t.Errorf("%s: reported %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
			for name, m := range res.Metrics {
				if !validName.MatchString(name) {
					t.Errorf("metric name %q does not match %s", name, validName)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if traced && w.kind != kindCore {
				if res.Metrics["replay.sum_ratio"].Value <= 0 {
					t.Errorf("%s: replay.sum_ratio not computed", w.name)
				}
				if len(tr.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
			}
		}
	}
	if !slices.Equal(names, wantWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, wantWorkloads)
	}
}

// TestOracleRejectsCorruptAnswers feeds the checker a correct answer and
// corrupted copies of it.
func TestOracleRejectsCorruptAnswers(t *testing.T) {
	keys := keyTable(100)
	p := newProducer(0, 1, len(keys), true, stream.NewRNG(1))
	k := sprofile.MustBuildKeyed[string](1024)
	evs := p.fill(make([]event, 5000))
	if err := applyEvents(k, keys, evs); err != nil {
		t.Fatal(err)
	}
	exp := expect(model{[]*producer{p}}, keys, stream.NewRNG(2))
	good, err := k.QueryKeys(exp.query())
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.check(good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	corruptions := map[string]func(r *sprofile.KeyedQueryResult[string]){
		"total":     func(r *sprofile.KeyedQueryResult[string]) { r.Summary.Total++ },
		"removes":   func(r *sprofile.KeyedQueryResult[string]) { r.Summary.Removes-- },
		"top-k":     func(r *sprofile.KeyedQueryResult[string]) { r.TopK[3].Frequency++ },
		"short top": func(r *sprofile.KeyedQueryResult[string]) { r.TopK = r.TopK[:9] },
		"count":     func(r *sprofile.KeyedQueryResult[string]) { r.Counts[17].Frequency++ },
		"summary":   func(r *sprofile.KeyedQueryResult[string]) { r.Summary = nil },
	}
	for name, corrupt := range corruptions {
		bad := good
		s := *good.Summary
		bad.Summary = &s
		bad.TopK = slices.Clone(good.TopK)
		bad.Counts = slices.Clone(good.Counts)
		corrupt(&bad)
		if err := exp.check(bad); err == nil {
			t.Errorf("%s corruption accepted", name)
		}
	}
}

// TestCheckCoreRejectsWrongReference feeds the paper-core checker reference
// counts that disagree with the profile.
func TestCheckCoreRejectsWrongReference(t *testing.T) {
	g, err := stream.Stream1(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustNew(1000)
	ref := make([]int64, 1000)
	for _, tu := range g.Generate(20000) {
		if err := p.Apply(tu); err != nil {
			t.Fatal(err)
		}
		if tu.Action == core.ActionAdd {
			ref[tu.Object]++
		} else {
			ref[tu.Object]--
		}
	}
	if err := checkCore(p, ref); err != nil {
		t.Fatalf("correct reference rejected: %v", err)
	}
	mode, _, _ := p.Mode()
	ref[mode.Object]++
	if err := checkCore(p, ref); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Errorf("wrong reference accepted (err=%v)", err)
	}
}
