package bench

import (
	"fmt"

	"sprofile/internal/stream"
)

// Scale sets the workload sizes of the figure experiments. The paper sweeps n
// and m up to 10^8 on a Xeon with tens of gigabytes of memory; DefaultScale
// keeps the same ratios at laptop-friendly sizes, and FullScale reproduces
// the paper's axes for hosts that can afford them (a 10^8-slot balanced tree
// needs several gigabytes).
type Scale struct {
	// Figure3NValues is the n sweep of Figure 3 (mode, fixed m).
	Figure3NValues []int
	// Figure3M is the fixed m of Figure 3.
	Figure3M int
	// Figure4MValues is the m sweep of Figures 4 and 5 (mode, fixed n).
	Figure4MValues []int
	// Figure4N is the fixed n of Figures 4 and 5.
	Figure4N int
	// Figure6NValues is the n sweep of Figure 6 left (median, fixed m).
	Figure6NValues []int
	// Figure6M is the fixed m of Figure 6 left.
	Figure6M int
	// Figure6MValues is the m sweep of Figure 6 right (median, fixed n).
	Figure6MValues []int
	// Figure6N is the fixed n of Figure 6 right.
	Figure6N int
	// Seed makes every experiment deterministic.
	Seed uint64
}

// DefaultScale is the laptop-scale configuration used by `go test -bench` and
// by cmd/sprofile-bench without -full. The n:m ratios match the paper.
func DefaultScale() Scale {
	return Scale{
		Figure3NValues: []int{100_000, 200_000, 500_000, 1_000_000, 2_000_000},
		Figure3M:       1_000_000,
		Figure4MValues: []int{100_000, 200_000, 500_000, 1_000_000, 2_000_000},
		Figure4N:       1_000_000,
		Figure6NValues: []int{50_000, 100_000, 200_000, 500_000, 1_000_000},
		Figure6M:       100_000,
		Figure6MValues: []int{20_000, 50_000, 100_000, 200_000, 500_000},
		Figure6N:       100_000,
		Seed:           20190326,
	}
}

// FullScale reproduces the paper's axes (n, m up to 10^8 for the mode
// experiments and 10^6..10^8 for the median experiments). Expect minutes of
// runtime and several gigabytes of memory.
func FullScale() Scale {
	return Scale{
		Figure3NValues: []int{10_000_000, 20_000_000, 50_000_000, 100_000_000},
		Figure3M:       100_000_000,
		Figure4MValues: []int{10_000_000, 20_000_000, 50_000_000, 100_000_000},
		Figure4N:       100_000_000,
		Figure6NValues: []int{100_000, 1_000_000, 10_000_000, 100_000_000},
		Figure6M:       1_000_000,
		Figure6MValues: []int{100_000, 1_000_000, 10_000_000, 100_000_000},
		Figure6N:       1_000_000,
		Seed:           20190326,
	}
}

// TinyScale is used by the harness's own tests; it finishes in milliseconds.
func TinyScale() Scale {
	return Scale{
		Figure3NValues: []int{500, 1_000},
		Figure3M:       2_000,
		Figure4MValues: []int{500, 1_000},
		Figure4N:       1_000,
		Figure6NValues: []int{500, 1_000},
		Figure6M:       500,
		Figure6MValues: []int{250, 500},
		Figure6N:       500,
		Seed:           7,
	}
}

// runSweep measures every method at every sweep point. buildWorkload receives
// the swept value and returns a fresh workload plus the number of tuples to
// process at that point.
func runSweep(id, title, xLabel string, methods []Method, task Task,
	sweep []int, buildWorkload func(x int) (stream.Workload, int, error)) (*Result, error) {

	res := &Result{ID: id, Title: title, XLabel: xLabel, Methods: methods}
	for _, x := range sweep {
		point := Point{X: int64(x), Seconds: make(map[Method]float64, len(methods))}
		for _, method := range methods {
			w, n, err := buildWorkload(x)
			if err != nil {
				return nil, fmt.Errorf("%s: x=%d: %w", id, x, err)
			}
			meas, err := Measure(method, w, n, task)
			if err != nil {
				return nil, fmt.Errorf("%s: x=%d method=%s: %w", id, x, method, err)
			}
			point.Seconds[method] = meas.Seconds
		}
		res.Points = append(res.Points, point)
	}
	sortPoints(res.Points)
	return res, nil
}

// Figure3 reproduces the paper's Figure 3: CPU time for keeping the mode up
// to date with the heap baseline vs S-Profile, as a function of the number of
// processed tuples n, with m fixed, for the given paper stream (1, 2 or 3).
func Figure3(scale Scale, streamIndex int) (*Result, error) {
	return runSweep(
		fmt.Sprintf("figure3-stream%d", streamIndex),
		fmt.Sprintf("mode maintenance, heap vs S-Profile, m=%d, stream%d", scale.Figure3M, streamIndex),
		"n (tuples)",
		[]Method{MethodHeap, MethodSProfile},
		TaskMode,
		scale.Figure3NValues,
		func(n int) (stream.Workload, int, error) {
			g, err := stream.PaperStream(streamIndex, scale.Figure3M, scale.Seed)
			return g, n, err
		},
	)
}

// Figure4 reproduces the paper's Figure 4: the same comparison as Figure 3
// but with n fixed and the number of objects m swept.
func Figure4(scale Scale, streamIndex int) (*Result, error) {
	return runSweep(
		fmt.Sprintf("figure4-stream%d", streamIndex),
		fmt.Sprintf("mode maintenance, heap vs S-Profile, n=%d, stream%d", scale.Figure4N, streamIndex),
		"m (objects)",
		[]Method{MethodHeap, MethodSProfile},
		TaskMode,
		scale.Figure4MValues,
		func(m int) (stream.Workload, int, error) {
			g, err := stream.PaperStream(streamIndex, m, scale.Seed)
			return g, scale.Figure4N, err
		},
	)
}

// Figure5 reproduces the paper's Figure 5: the time-vs-m trend on stream1
// with n fixed, highlighting that S-Profile's curve stays flat while the
// heap's grows with log m.
func Figure5(scale Scale) (*Result, error) {
	res, err := runSweep(
		"figure5",
		fmt.Sprintf("time-vs-m trend, heap vs S-Profile, n=%d, stream1", scale.Figure4N),
		"m (objects)",
		[]Method{MethodHeap, MethodSProfile},
		TaskMode,
		scale.Figure4MValues,
		func(m int) (stream.Workload, int, error) {
			g, err := stream.Stream1(m, scale.Seed)
			return g, scale.Figure4N, err
		},
	)
	return res, err
}

// Figure6Left reproduces the left panel of the paper's Figure 6: CPU time for
// keeping the median up to date with the balanced tree vs S-Profile as a
// function of n, with m fixed.
func Figure6Left(scale Scale) (*Result, error) {
	return runSweep(
		"figure6-left",
		fmt.Sprintf("median maintenance, balanced tree vs S-Profile, m=%d, stream1", scale.Figure6M),
		"n (tuples)",
		[]Method{MethodRedBlack, MethodSProfile},
		TaskMedian,
		scale.Figure6NValues,
		func(n int) (stream.Workload, int, error) {
			g, err := stream.Stream1(scale.Figure6M, scale.Seed)
			return g, n, err
		},
	)
}

// Figure6Right reproduces the right panel of the paper's Figure 6: the same
// comparison with n fixed and m swept.
func Figure6Right(scale Scale) (*Result, error) {
	return runSweep(
		"figure6-right",
		fmt.Sprintf("median maintenance, balanced tree vs S-Profile, n=%d, stream1", scale.Figure6N),
		"m (objects)",
		[]Method{MethodRedBlack, MethodSProfile},
		TaskMedian,
		scale.Figure6MValues,
		func(m int) (stream.Workload, int, error) {
			g, err := stream.Stream1(m, scale.Seed)
			return g, scale.Figure6N, err
		},
	)
}

// ExperimentIDs lists the identifiers accepted by Run, in the order they
// appear in the paper.
func ExperimentIDs() []string {
	return []string{
		"figure3", "figure4", "figure5", "figure6",
		"ablation-treekind", "ablation-fenwick", "ablation-blockhint",
		"ablation-workloads", "graph-shaving", "sliding-window", "variants",
		"keyed-parallel", "recovery", "batch-delta",
	}
}

// Run executes one named experiment (a figure or an ablation) and returns its
// result panels.
func Run(id string, scale Scale) ([]*Result, error) {
	switch id {
	case "figure3":
		var out []*Result
		for s := 1; s <= 3; s++ {
			r, err := Figure3(scale, s)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	case "figure4":
		var out []*Result
		for s := 1; s <= 3; s++ {
			r, err := Figure4(scale, s)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	case "figure5":
		r, err := Figure5(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "figure6":
		left, err := Figure6Left(scale)
		if err != nil {
			return nil, err
		}
		right, err := Figure6Right(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{left, right}, nil
	case "ablation-treekind":
		r, err := AblationTreeKind(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "ablation-fenwick":
		r, err := AblationFenwick(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "ablation-blockhint":
		r, err := AblationBlockHint(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "ablation-workloads":
		r, err := AblationWorkloads(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "graph-shaving":
		r, err := GraphShaving(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "sliding-window":
		r, err := SlidingWindow(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "variants":
		r, err := Variants(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "keyed-parallel":
		r, err := KeyedParallel(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "recovery":
		r, err := Recovery(scale)
		if err != nil {
			return nil, err
		}
		return []*Result{r}, nil
	case "batch-delta":
		return BatchDelta(scale)
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
}
