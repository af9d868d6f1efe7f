// Command sprofile-bench regenerates the paper's evaluation figures and the
// harness's additional ablation studies, printing one text table per figure
// panel and, optionally, writing CSV files for plotting.
//
// Usage:
//
//	sprofile-bench                       # every experiment, laptop scale
//	sprofile-bench -experiment figure6   # one experiment
//	sprofile-bench -full                 # paper-scale axes (slow, needs RAM)
//	sprofile-bench -csv results/         # also write one CSV per panel
//	sprofile-bench -json results.json    # machine-readable record of the run
//
// The experiment identifiers are listed with -list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"sprofile/internal/bench"
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
		experiment = fs.String("experiment", "all", "experiment id or \"all\" (see -list)")
		full       = fs.Bool("full", false, "run the paper-scale sweep (n, m up to 1e8; slow)")
		csvDir     = fs.String("csv", "", "directory to write one CSV file per result panel")
		jsonPath   = fs.String("json", "", "file to write every result panel of the run as JSON")
		list       = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(bench.ExperimentIDs(), "\n"))
		return nil
	}

	scale := bench.DefaultScale()
	if *full {
		scale = bench.FullScale()
	}

	ids := bench.ExperimentIDs()
	if *experiment != "all" {
		ids = []string{*experiment}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	var all []*bench.Result
	for _, id := range ids {
		results, err := bench.Run(id, scale)
		if err != nil {
			return err
		}
		all = append(all, results...)
		for _, r := range results {
			fmt.Fprintln(stdout, r.Table())
			if len(r.Methods) == 2 {
				min, max := r.Speedup(r.Methods[0], r.Methods[1])
				fmt.Fprintf(stdout, "speedup %s/%s: %.2fx to %.2fx\n\n", r.Methods[0], r.Methods[1], min, max)
			} else {
				fmt.Fprintln(stdout)
			}
			if *csvDir != "" {
				path := filepath.Join(*csvDir, r.ID+".csv")
				if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s\n\n", path)
			}
		}
	}
	if *jsonPath != "" {
		doc := jsonDoc{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Seed:       scale.Seed,
			Full:       *full,
			Results:    all,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	return nil
}

// jsonDoc is the machine-readable record -json writes: the host and Go
// version that produced the numbers, the workload seed, and every result
// panel of the run, so later changes can diff throughput against a
// committed baseline.
type jsonDoc struct {
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	CPUs       int             `json:"cpus"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	Seed       uint64          `json:"seed"`
	Full       bool            `json:"full"`
	Results    []*bench.Result `json:"results"`
}
