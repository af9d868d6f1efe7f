package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sprofile"
	"sprofile/internal/stream"
)

// The recovery experiment's methods: cold-starting a durable keyed profile
// from a full, never-checkpointed log (every event replayed one by one)
// versus from a checkpointed log (snapshot restored in one bulk load,
// then only the tail replayed). The gap is the whole point of the checkpoint
// subsystem: replay-full grows linearly with the ingest history, while
// snapshot-tail is bounded by the checkpoint cadence.
const (
	MethodReplayFull   Method = "replay-full"
	MethodSnapshotTail Method = "snapshot-tail"
)

// recoveryCheckpointAt is the fraction of the stream ingested before the
// checkpoint: the snapshot covers 90% of history and the tail holds 10%.
const recoveryCheckpointAt = 0.9

// buildRecoveryDir ingests n keyed add events into a fresh durable profile
// in dir, checkpointing after checkpointAt×n events when checkpointed is
// set, and closes it — producing the on-disk state a cold start recovers
// from.
func buildRecoveryDir(dir string, m, n int, keys []string, seed uint64, checkpointed bool) error {
	k, err := sprofile.BuildKeyed[string](m, sprofile.WithWAL(dir))
	if err != nil {
		return err
	}
	defer k.Close()
	ckptAt := int(float64(n) * recoveryCheckpointAt)
	rng := stream.NewRNG(seed)
	for i := 0; i < n; i++ {
		if checkpointed && i == ckptAt {
			if err := k.Checkpoint(); err != nil {
				return err
			}
		}
		if err := k.Add(keys[rng.Intn(len(keys))]); err != nil {
			return err
		}
	}
	return k.Close()
}

// measureRecovery times one cold start: open the durable profile over the
// directory's snapshot and/or log and rebuild the in-memory state.
func measureRecovery(dir string, m int) (secs float64, replayed int, total int64, err error) {
	start := time.Now()
	k, err := sprofile.BuildKeyed[string](m, sprofile.WithWAL(dir))
	if err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(start)
	replayed = k.Replayed()
	total = k.Total()
	if err := k.Close(); err != nil {
		return 0, 0, 0, err
	}
	return elapsed.Seconds(), replayed, total, nil
}

// Recovery measures cold-start time as a function of the ingest history
// length n: a durable keyed profile is rebuilt from a full log versus from a
// checkpoint snapshot (taken at 90% of the stream) plus the 10% tail. Both
// paths must reconstruct the identical profile; the experiment verifies the
// totals agree before reporting.
func Recovery(scale Scale) (*Result, error) {
	m := scale.Figure6M
	keys := make([]string, m)
	for i := range keys {
		keys[i] = fmt.Sprintf("object-%08d", i)
	}
	methods := []Method{MethodReplayFull, MethodSnapshotTail}
	res := &Result{
		ID: "recovery",
		Title: fmt.Sprintf("cold-start recovery, full-log replay vs snapshot+tail (checkpoint at %d%%), m=%d",
			int(recoveryCheckpointAt*100), m),
		XLabel:  "n (tuples in history)",
		Methods: methods,
	}
	root, err := os.MkdirTemp("", "sprofile-recovery-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	for pi, n := range scale.Figure6NValues {
		point := Point{X: int64(n), Seconds: make(map[Method]float64, len(methods))}
		totals := make(map[Method]int64, len(methods))
		for _, method := range methods {
			dir := filepath.Join(root, fmt.Sprintf("%s-%d", method, pi))
			if err := buildRecoveryDir(dir, m, n, keys, scale.Seed, method == MethodSnapshotTail); err != nil {
				return nil, fmt.Errorf("recovery: n=%d method=%s: %w", n, method, err)
			}
			// Cold starts are short and jitter-prone; report the best of
			// three over the same on-disk state.
			best := 0.0
			for rep := 0; rep < 3; rep++ {
				secs, _, total, err := measureRecovery(dir, m)
				if err != nil {
					return nil, fmt.Errorf("recovery: n=%d method=%s: %w", n, method, err)
				}
				if rep == 0 || secs < best {
					best = secs
				}
				totals[method] = total
			}
			point.Seconds[method] = best
		}
		if totals[MethodReplayFull] != totals[MethodSnapshotTail] {
			return nil, fmt.Errorf("recovery: n=%d: recovered totals diverge (%d vs %d)",
				n, totals[MethodReplayFull], totals[MethodSnapshotTail])
		}
		res.Points = append(res.Points, point)
	}
	sortPoints(res.Points)
	return res, nil
}
