package bench

import (
	"strings"
	"testing"

	"sprofile/internal/stream"
)

func TestNewProfilerAllMethods(t *testing.T) {
	for _, method := range []Method{
		MethodSProfile, MethodHeap, MethodTreap, MethodRedBlack, MethodSkipList, MethodFenwick, MethodBucket,
	} {
		p, err := NewProfiler(method, 100, TaskMode)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if p.Cap() != 100 {
			t.Fatalf("%s: Cap() = %d", method, p.Cap())
		}
	}
	if _, err := NewProfiler("nonsense", 10, TaskMode); err == nil {
		t.Fatalf("unknown method accepted")
	}
	// The heap must flip orientation for the min task.
	p, err := NewProfiler(MethodHeap, 10, TaskMin)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Min(); err != nil {
		t.Fatalf("min-task heap cannot answer Min: %v", err)
	}
}

func TestTaskString(t *testing.T) {
	for task, want := range map[Task]string{
		TaskMode: "mode", TaskMedian: "median", TaskMin: "min", TaskUpdateOnly: "update-only",
	} {
		if task.String() != want {
			t.Fatalf("Task %d String() = %q, want %q", task, task.String(), want)
		}
	}
}

func TestMeasureBasics(t *testing.T) {
	g, err := stream.Stream1(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := Measure(MethodSProfile, g, 5000, TaskMode)
	if err != nil {
		t.Fatal(err)
	}
	if meas.N != 5000 || meas.M != 1000 {
		t.Fatalf("Measurement = %+v", meas)
	}
	if meas.Seconds <= 0 || meas.NsPerOp <= 0 {
		t.Fatalf("non-positive timing: %+v", meas)
	}
	if _, err := Measure(MethodSProfile, g, 0, TaskMode); err == nil {
		t.Fatalf("Measure accepted n=0")
	}
}

func TestMeasureAllTasks(t *testing.T) {
	for _, task := range []Task{TaskMode, TaskMedian, TaskMin, TaskUpdateOnly} {
		g, err := stream.Stream1(200, 2)
		if err != nil {
			t.Fatal(err)
		}
		method := MethodSProfile
		meas, err := Measure(method, g, 1000, task)
		if err != nil {
			t.Fatalf("task %v: %v", task, err)
		}
		if meas.Task != task {
			t.Fatalf("task %v recorded as %v", task, meas.Task)
		}
	}
}

func TestFigureExperimentsAtTinyScale(t *testing.T) {
	scale := TinyScale()
	for _, id := range []string{"figure3", "figure4", "figure5", "figure6"} {
		results, err := Run(id, scale)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(results) == 0 {
			t.Fatalf("%s: no result panels", id)
		}
		for _, r := range results {
			if len(r.Points) == 0 {
				t.Fatalf("%s/%s: no points", id, r.ID)
			}
			for _, p := range r.Points {
				for _, m := range r.Methods {
					if p.Seconds[m] <= 0 {
						t.Fatalf("%s/%s: non-positive seconds for %s at x=%d", id, r.ID, m, p.X)
					}
				}
			}
			table := r.Table()
			if !strings.Contains(table, r.ID) {
				t.Fatalf("%s: table missing experiment id:\n%s", id, table)
			}
			csv := r.CSV()
			if lines := strings.Count(csv, "\n"); lines != len(r.Points)+1 {
				t.Fatalf("%s/%s: CSV has %d lines, want %d", id, r.ID, lines, len(r.Points)+1)
			}
		}
	}
}

func TestAblationExperimentsAtTinyScale(t *testing.T) {
	scale := TinyScale()
	for _, id := range []string{
		"ablation-treekind", "ablation-fenwick", "ablation-blockhint",
		"ablation-workloads", "graph-shaving", "sliding-window", "keyed-parallel",
		"recovery", "batch-delta",
	} {
		results, err := Run(id, scale)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, r := range results {
			if len(r.Points) == 0 {
				t.Fatalf("%s: no points", id)
			}
			if r.Table() == "" || r.CSV() == "" {
				t.Fatalf("%s: empty rendering", id)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("figure99", TinyScale()); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
}

func TestExperimentIDsCovered(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 8 {
		t.Fatalf("only %d experiment ids", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
}

func TestResultSpeedupAndGrowth(t *testing.T) {
	r := &Result{
		ID:      "test",
		Title:   "test",
		XLabel:  "x",
		Methods: []Method{MethodHeap, MethodSProfile},
		Points: []Point{
			{X: 1, Seconds: map[Method]float64{MethodHeap: 2.0, MethodSProfile: 1.0}},
			{X: 2, Seconds: map[Method]float64{MethodHeap: 6.0, MethodSProfile: 2.0}},
		},
	}
	min, max := r.Speedup(MethodHeap, MethodSProfile)
	if min != 2.0 || max != 3.0 {
		t.Fatalf("Speedup = (%g, %g), want (2, 3)", min, max)
	}
	if g := r.GrowthFactor(MethodSProfile); g != 2.0 {
		t.Fatalf("GrowthFactor = %g, want 2", g)
	}
	if g := r.GrowthFactor(MethodHeap); g != 3.0 {
		t.Fatalf("GrowthFactor = %g, want 3", g)
	}
	empty := &Result{Methods: []Method{MethodHeap, MethodSProfile}}
	if min, max := empty.Speedup(MethodHeap, MethodSProfile); min != 0 || max != 0 {
		t.Fatalf("empty Speedup = (%g, %g)", min, max)
	}
	if g := empty.GrowthFactor(MethodHeap); g != 1 {
		t.Fatalf("empty GrowthFactor = %g", g)
	}
}

func TestResultCategoricalXNames(t *testing.T) {
	r := &Result{
		ID:      "cat",
		Title:   "categorical",
		XLabel:  "workload",
		Methods: []Method{MethodSProfile},
		XNames:  []string{"alpha", "beta"},
		Points: []Point{
			{X: 0, Seconds: map[Method]float64{MethodSProfile: 1}},
			{X: 1, Seconds: map[Method]float64{MethodSProfile: 2}},
		},
	}
	table := r.Table()
	if !strings.Contains(table, "alpha") || !strings.Contains(table, "beta") {
		t.Fatalf("categorical table missing names:\n%s", table)
	}
	csv := r.CSV()
	if !strings.Contains(csv, "alpha,") {
		t.Fatalf("categorical CSV missing names:\n%s", csv)
	}
}
