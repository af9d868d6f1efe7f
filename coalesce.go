package sprofile

// coalesceFallbackNum/Den encode the dedup threshold below which coalescing
// stops paying: when a batch folds to more than 9/10 of its tuple count the
// traffic is effectively uniform (nearly every delta is ±1 on a distinct
// object) and the delta path's block-boundary walks cost more than the
// per-event path's direct increments — the 0.53–0.59x uniform-dense
// regression BENCH_batch.json recorded against PR 4. ApplyCoalesced detects
// that shape after coalescing, before anything is applied, and routes the
// original tuples through ApplyAll instead.
const (
	coalesceFallbackNum = 9
	coalesceFallbackDen = 10
)

// coalesceSample bounds the cost of the path decision on large batches: the
// dedup ratio is estimated from this many leading tuples, so a uniform
// batch pays one small sample pass instead of a full wasted Coalesce before
// falling back to ApplyAll.
const coalesceSample = 512

// coalesceWorthIt reports whether a batch of tuples that folded into deltas
// deduplicated enough for the delta path to win.
func coalesceWorthIt(deltas, tuples int) bool {
	return deltas*coalesceFallbackDen <= tuples*coalesceFallbackNum
}

// ApplyCoalesced ingests a batch of tuples through whichever path is faster
// for its shape: it coalesces the batch with c, and
//
//   - if the batch deduplicated (skewed traffic: hot objects repeat, net
//     deltas ≪ tuples) the deltas go through p's DeltaUpdater capability —
//     one block walk per distinct object;
//   - if coalescing barely shrank the batch (uniform traffic: nearly one
//     delta per tuple) or p has no DeltaUpdater capability, the original
//     tuples go through p.ApplyAll, whose direct ±1 updates beat
//     block-boundary walks on that shape.
//
// It returns the number of events whose effect is in the profile and the
// first error. The ApplyAll path keeps exact stop-at-first-error prefix
// semantics; the delta path keeps the documented delta-batch semantics
// (net-effect strictness, shard-independent partial application), with the
// event count reconstructed from the gross counts of the applied deltas.
func ApplyCoalesced(p Profiler, c *Coalescer, tuples []Tuple) (int, error) {
	if len(tuples) == 0 {
		return 0, nil
	}
	du, ok := p.(DeltaUpdater)
	if !ok {
		return p.ApplyAll(tuples)
	}
	if len(tuples) > coalesceSample {
		// Estimate the dedup ratio from a prefix sample before paying for a
		// full coalescing pass. A batch whose hot repeats only show up past
		// the sample is misrouted to ApplyAll — a performance heuristic
		// only; results are identical either way.
		sample, err := c.Coalesce(tuples[:coalesceSample])
		if err != nil || !coalesceWorthIt(len(sample), coalesceSample) {
			return p.ApplyAll(tuples)
		}
	}
	deltas, err := c.Coalesce(tuples)
	if err != nil {
		// Coalesce validates without applying; fall back to ApplyAll for its
		// exact prefix count and per-event error position.
		return p.ApplyAll(tuples)
	}
	if !coalesceWorthIt(len(deltas), len(tuples)) {
		return p.ApplyAll(tuples)
	}
	n, err := du.ApplyDeltas(deltas)
	if err == nil {
		return len(tuples), nil
	}
	events := 0
	for _, d := range deltas[:n] {
		adds, removes := d.Gross()
		events += int(adds + removes)
	}
	return events, err
}
