package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sprofile/internal/bench"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "figure3") || !strings.Contains(out.String(), "figure6") {
		t.Fatalf("-list output missing figures:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "figure99"}, &out); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
}

// TestRunSingleExperimentWithCSV exercises the full path (experiment run,
// table rendering, speedup line, CSV and JSON output) on the smallest real
// experiment. It uses the default scale, so keep the experiment cheap: the
// block-hint ablation runs a single method.
func TestRunSingleExperimentWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (small) measurement sweep")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	if err := run([]string{"-experiment", "sliding-window", "-csv", dir, "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		GoVersion string  `json:"go_version"`
		Seed      *uint64 `json:"seed"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.GoVersion != runtime.Version() {
		t.Fatalf("go_version = %q, want %q", doc.GoVersion, runtime.Version())
	}
	if doc.Seed == nil || *doc.Seed != bench.DefaultScale().Seed {
		t.Fatalf("seed = %v, want the scale's seed %d", doc.Seed, bench.DefaultScale().Seed)
	}
	text := out.String()
	if !strings.Contains(text, "sliding-window") {
		t.Fatalf("output missing experiment id:\n%s", text)
	}
	if !strings.Contains(text, "speedup") {
		t.Fatalf("output missing speedup summary:\n%s", text)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("no CSV files written")
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,") {
		t.Fatalf("CSV missing header: %q", string(data)[:20])
	}
}
