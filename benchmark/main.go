// Command sprofile-bench is sprofile's end-to-end benchmark. One process
// hosts the HTTP server (internal/server) on a loopback listener and drives
// it through the client SDK, or runs the paper's protocol on internal/core,
// and prints every metric by name and unit with a correctness verdict:
//
//	bash benchmark/run.sh --workload ingest-bulk-zipf --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --seconds 10 --json out.json
//
// An untraced run (--trace 0) reports the end-to-end metrics and, ungated,
// the workload's timings; a traced run (--trace 1) reports the per-layer
// metrics and writes its spans to <trace-dir>/trace-<workload>.json. The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sprofile-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sprofile-bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload name, or \"all\"")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = fs.Int("trace", 0, "1 runs traced and reports per-layer metrics instead of end-to-end ones")
		traceDir = fs.String("trace-dir", ".bench_build/trace", "directory a traced run writes its spans to")
		workDir  = fs.String("work-dir", ".bench_build", "directory for the run's WAL directories, removed afterwards")
		jsonPath = fs.String("json", "", "also write the run's results, host and seed to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	sc := fullScale()
	var list []workload
	if *name == "all" {
		list = workloads(sc)
	} else {
		w, err := findWorkload(sc, *name)
		if err != nil {
			return err
		}
		list = []workload{w}
	}
	window := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1

	var results []*result
	for _, w := range list {
		res, tr, err := runWorkload(w, sc, *seed, window, traced, *workDir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if tr != nil {
			path, err := tr.write(*traceDir, w.name)
			if err != nil {
				return err
			}
			res.note("trace: %d spans written to %s", len(tr.spans), path)
		}
		if err := res.finish(traced); err != nil {
			return err
		}
		results = append(results, res)
	}
	if *jsonPath != "" {
		if err := writeRecord(*jsonPath, *seed, *seconds, traced, results); err != nil {
			return err
		}
	}
	var wrong error
	for _, res := range results {
		if err := res.print(stdout); err != nil {
			return err
		}
		if !res.Correct {
			wrong = errors.Join(wrong, fmt.Errorf("%s: outputs are not correct", res.workload))
		}
	}
	return wrong
}

// runWorkload runs one workload in a fresh work directory under root and
// removes the directory afterwards.
func runWorkload(w workload, sc scale, seed uint64, window time.Duration, traced bool, root string) (*result, *tracer, error) {
	if w.kind == kindCore {
		return runCore(sc, seed, window, traced)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(root, "work-")
	if err != nil {
		return nil, nil, err
	}
	res, tr, err := runHTTP(w, sc, seed, window, traced, dir)
	return res, tr, errors.Join(err, os.RemoveAll(dir))
}

// host records the machine and toolchain every result file carries.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisHost() host {
	return host{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}
}

// writeRecord writes the -json document: host, seed, settings and every
// workload's result with its reported timings and notes.
func writeRecord(path string, seed uint64, seconds float64, traced bool, results []*result) error {
	type entry struct {
		Workload string `json:"workload"`
		*result
		Reported map[string]metric `json:"reported,omitempty"`
		Notes    []string          `json:"notes"`
	}
	doc := struct {
		host
		Seed    uint64  `json:"seed"`
		Seconds float64 `json:"seconds"`
		Trace   bool    `json:"trace"`
		Results []entry `json:"results"`
	}{host: thisHost(), Seed: seed, Seconds: seconds, Trace: traced}
	for _, r := range results {
		doc.Results = append(doc.Results, entry{r.workload, r, r.reported, r.notes})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
