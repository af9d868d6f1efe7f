package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef declares one reported metric: its name and unit. The lists below
// are the benchmark's contract; BENCHMARK.json at the repository root
// declares the same names, and the smoke test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees that repeat within
// their bound from run to run, so a regression gate can rest on them. Every
// workload reports every one of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_inuse_mb", "MiB"},
}

// reported are the end-to-end timings of the workloads that carry them: an
// untraced run prints them and --json records them, but no gate rests on
// them, because on a shared host they drift with the host by more than a
// bound of 0.10 (README.md, Noise). Compare them between two commits with
// paired runs.
var reported = []metricDef{
	{"ingest_events_per_s", "events/s"},
	{"ingest_ack_p50_ms", "ms"},
	{"ingest_ack_p99_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"core_mode_ns_per_event", "ns"},
	{"core_median_ns_per_event", "ns"},
}

// perLayer are the single-layer metrics a traced run reports. A layer the
// workload does not pass through reads 0.
var perLayer = []metricDef{
	{"client.encode_us_per_req", "us"},
	{"transport_us_per_req", "us"},
	{"server.serve_us_per_req", "us"},
	{"server.wait_us_per_req", "us"},
	{"server.deadline_us_per_req", "us"},
	{"server.decode_ns_per_event", "ns"},
	{"server.encode_us_per_query", "us"},
	{"sprofile.apply_ns_per_event", "ns"},
	{"sprofile.glue_ns_per_event", "ns"},
	{"sprofile.sync_us_per_req", "us"},
	{"sprofile.query_us", "us"},
	{"idmap.resolve_ns_per_event", "ns"},
	{"core.coalesce_ns_per_event", "ns"},
	{"core.coalesce_ratio", "ratio"},
	{"core.apply_ns_per_delta", "ns"},
	{"core.eval_us", "us"},
	{"wal.append_us_per_req", "us"},
	{"wal.fsync_us", "us"},
	{"wal.fsyncs_per_req", "count"},
	{"wal.bytes_per_event", "bytes"},
	{"checkpoint.count", "count"},
	{"checkpoint.seconds", "s"},
	{"gen.ns_per_event", "ns"},
	{"gen.late_ms_max", "ms"},
	{"replay.sum_ratio", "ratio"},
	{"trace.overhead", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one workload run: the contract's four fields plus
// the reported timings and the human-readable notes (sample counts, oracle
// summary) printed above the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	reported map[string]metric
	notes    []string
	values   map[string]float64
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}}
}

// set records a metric value; finish attaches units from the declarations.
func (r *result) set(name string, v float64) { r.values[name] = v }

// note adds one human-readable line to the report.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish selects the declared metric set for the run mode and fails on a
// declared metric the run did not produce, which would be a harness bug. An
// untraced run also keeps the reported timings its workload produced.
func (r *result) finish(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: metric %s is %v", r.workload, d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if traced {
		return nil
	}
	r.reported = map[string]metric{}
	for _, d := range reported {
		if v, ok := r.values[d.name]; ok {
			r.reported[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return nil
}

// print writes the notes, one line per declared metric, the reported
// timings, and the JSON result line last.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "# workload %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(w, "#   %s\n", n)
	}
	printMetrics(w, r.Metrics)
	if len(r.reported) > 0 {
		fmt.Fprintln(w, "# reported, not gated:")
		printMetrics(w, r.reported)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// latencies is a sample of operation latencies.
type latencies []time.Duration

// quantile returns the nearest-rank q-quantile of the sample.
func (l latencies) quantile(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailNote states how many of n samples lie beyond the p99, so a reader can
// see whether the sample supports it (the benchmark sizes every workload for
// at least ten).
func tailNote(n int) string {
	beyond := n - int(math.Ceil(0.99*float64(n)))
	if beyond >= 10 {
		return fmt.Sprintf("n=%d, %d beyond p99", n, beyond)
	}
	return fmt.Sprintf("n=%d, only %d beyond p99: too few samples for a p99", n, beyond)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
