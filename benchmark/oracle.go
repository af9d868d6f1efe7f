package main

import (
	"fmt"
	"slices"

	"sprofile"
	"sprofile/internal/core"
	"sprofile/internal/stream"
)

// oracleTopK and oracleSample size the end-of-run check: the top-10
// frequencies and 64 sampled key counts.
const (
	oracleTopK   = 10
	oracleSample = 64
)

// expectation is the reference answer to the oracle's composite query,
// computed from the producers' models.
type expectation struct {
	total         int64
	adds, removes uint64
	top           []int64
	keys          []string
	counts        []int64
}

// expect derives the reference answer for the oracle query from the model,
// sampling oracleSample key ids with rng.
func expect(m model, keys []string, rng *stream.RNG) expectation {
	var e expectation
	e.total, e.adds, e.removes = m.totals()
	e.top = m.topFrequencies(oracleTopK)
	for i := 0; i < oracleSample; i++ {
		id := rng.Intn(len(keys))
		e.keys = append(e.keys, keys[id])
		e.counts = append(e.counts, m.count(id))
	}
	return e
}

// query is the composite query the oracle sends.
func (e expectation) query() sprofile.KeyedQuery[string] {
	return sprofile.KeyedQuery[string]{Summary: true, TopK: oracleTopK, Count: e.keys}
}

// check compares the server's answer to the oracle query with the reference.
func (e expectation) check(got sprofile.KeyedQueryResult[string]) error {
	if got.Summary == nil {
		return fmt.Errorf("oracle: answer has no summary")
	}
	if s := got.Summary; s.Total != e.total || s.Adds != e.adds || s.Removes != e.removes {
		return fmt.Errorf("oracle: summary total/adds/removes %d/%d/%d, model %d/%d/%d",
			s.Total, s.Adds, s.Removes, e.total, e.adds, e.removes)
	}
	if len(got.TopK) != len(e.top) {
		return fmt.Errorf("oracle: top-%d has %d entries, model %d", oracleTopK, len(got.TopK), len(e.top))
	}
	for i, en := range got.TopK {
		if en.Frequency != e.top[i] {
			return fmt.Errorf("oracle: top-k entry %d (%s) has frequency %d, model %d", i, en.Key, en.Frequency, e.top[i])
		}
	}
	if len(got.Counts) != len(e.keys) {
		return fmt.Errorf("oracle: %d counts answered, %d asked", len(got.Counts), len(e.keys))
	}
	for i, c := range got.Counts {
		if c.Key != e.keys[i] || c.Frequency != e.counts[i] {
			return fmt.Errorf("oracle: count of %s is %d, model %d for %s", c.Key, c.Frequency, e.counts[i], e.keys[i])
		}
	}
	return nil
}

// checkCore verifies a paper-protocol profile against the reference counts:
// the block structure's invariants, the mode frequency against the maximum
// count, the median frequency against the lower median of the sorted
// counts, and the total.
func checkCore(p *core.Profile, ref []int64) error {
	if err := p.CheckInvariants(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	sorted := slices.Clone(ref)
	slices.Sort(sorted)
	var total int64
	for _, c := range ref {
		total += c
	}
	mode, _, err := p.Mode()
	if err != nil {
		return fmt.Errorf("oracle: mode: %w", err)
	}
	if want := sorted[len(sorted)-1]; mode.Frequency != want || ref[mode.Object] != want {
		return fmt.Errorf("oracle: mode %d with frequency %d, reference maximum %d", mode.Object, mode.Frequency, want)
	}
	med, err := p.Median()
	if err != nil {
		return fmt.Errorf("oracle: median: %w", err)
	}
	if want := sorted[(len(sorted)-1)/2]; med.Frequency != want {
		return fmt.Errorf("oracle: median frequency %d, reference %d", med.Frequency, want)
	}
	if p.Total() != total {
		return fmt.Errorf("oracle: total %d, reference %d", p.Total(), total)
	}
	return nil
}
