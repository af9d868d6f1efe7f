package sprofile_test

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprofile"
)

// TestErrorTaxonomy pins the errors.Is relationships of the typed error
// taxonomy: every specific sentinel resolves to its class root.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		resolves []error
	}{
		{"ObjectRange", sprofile.ErrObjectRange, []error{sprofile.ErrOutOfRange}},
		{"BadRank", sprofile.ErrBadRank, []error{sprofile.ErrOutOfRange}},
		{"NegativeFrequency", sprofile.ErrNegativeFrequency, []error{sprofile.ErrStrictViolation}},
		{"KeyedFull", sprofile.ErrKeyedFull, []error{sprofile.ErrCapExceeded}},
	}
	for _, c := range cases {
		for _, root := range c.resolves {
			if !errors.Is(c.err, root) {
				t.Errorf("%s: errors.Is(%v, %v) = false", c.name, c.err, root)
			}
		}
	}

	// The classes stay distinct from each other.
	if errors.Is(sprofile.ErrObjectRange, sprofile.ErrStrictViolation) {
		t.Error("ErrObjectRange resolves to ErrStrictViolation")
	}
	if errors.Is(sprofile.ErrKeyedFull, sprofile.ErrOutOfRange) {
		t.Error("ErrKeyedFull resolves to ErrOutOfRange")
	}

	// Live errors carry the taxonomy end to end.
	p := sprofile.MustNew(4, sprofile.WithStrictNonNegative())
	if err := p.Add(99); !errors.Is(err, sprofile.ErrOutOfRange) {
		t.Errorf("Add(99) = %v, want ErrOutOfRange", err)
	}
	if err := p.Remove(1); !errors.Is(err, sprofile.ErrStrictViolation) {
		t.Errorf("strict Remove = %v, want ErrStrictViolation", err)
	}
	if err := p.Apply(sprofile.Tuple{Object: 0, Action: sprofile.Action(9)}); !errors.Is(err, sprofile.ErrInvalidAction) {
		t.Errorf("invalid action = %v, want ErrInvalidAction", err)
	}
	k := sprofile.MustNewKeyed[string](1)
	if err := k.Add("a"); err != nil {
		t.Fatal(err)
	}
	if err := k.Add("b"); !errors.Is(err, sprofile.ErrCapExceeded) {
		t.Errorf("keyed overflow = %v, want ErrCapExceeded", err)
	}
	if err := k.Remove("ghost"); !errors.Is(err, sprofile.ErrUnknownKey) {
		t.Errorf("keyed unknown remove = %v, want ErrUnknownKey", err)
	}
}

// queryInvariants checks the cross-statistic invariants that hold inside ANY
// single consistent cut, whatever the interleaving with concurrent ingest:
// the mode equals the summary's maximum and the top-1 and q=1 entries, the
// min equals the summary's minimum, and the distribution sums to the
// summary's total. Individual getters issued back to back violate these
// under load; an atomic Query must never.
func queryInvariants(t *testing.T, res sprofile.QueryResult) {
	t.Helper()
	if res.Mode.Frequency != res.Summary.MaxFrequency {
		t.Fatalf("torn cut: mode %d != summary max %d", res.Mode.Frequency, res.Summary.MaxFrequency)
	}
	if res.Min.Frequency != res.Summary.MinFrequency {
		t.Fatalf("torn cut: min %d != summary min %d", res.Min.Frequency, res.Summary.MinFrequency)
	}
	if res.TopK[0].Frequency != res.Mode.Frequency {
		t.Fatalf("torn cut: top-1 %d != mode %d", res.TopK[0].Frequency, res.Mode.Frequency)
	}
	if res.Quantiles[0].Frequency != res.Summary.MaxFrequency {
		t.Fatalf("torn cut: q=1 %d != summary max %d", res.Quantiles[0].Frequency, res.Summary.MaxFrequency)
	}
	var total int64
	for _, fc := range res.Distribution {
		total += fc.Freq * int64(fc.Count)
	}
	if total != res.Summary.Total {
		t.Fatalf("torn cut: distribution sums to %d, summary total %d", total, res.Summary.Total)
	}
}

// runAtomicQueryTest hammers p with concurrent single-object adds while a
// reader issues composite queries and checks the one-cut invariants.
func runAtomicQueryTest(t *testing.T, p sprofile.Profiler, queries int) {
	q := sprofile.Query{
		Mode:         true,
		Min:          true,
		TopK:         1,
		Quantiles:    []float64{1},
		Distribution: true,
		Summary:      true,
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	m := p.Cap()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := p.Add((i + g) % m); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	qr := p.(sprofile.Querier)
	for i := 0; i < queries; i++ {
		res, err := qr.Query(q)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		queryInvariants(t, res)
	}
	stop.Store(true)
	wg.Wait()
}

// TestQueryAtomicConcurrent pins that a composite query on the single-mutex
// profile Synchronized builds is one cut under concurrent ingest (run with
// -race).
func TestQueryAtomicConcurrent(t *testing.T) {
	runAtomicQueryTest(t, sprofile.MustBuild(64, sprofile.Synchronized()), 300)
}

// TestQueryAtomicSharded pins that a composite query on Sharded is one
// merged cut across all shard locks under concurrent ingest.
func TestQueryAtomicSharded(t *testing.T) {
	runAtomicQueryTest(t, sprofile.MustNewSharded(64, 8), 300)
}

// TestQueryAtomicKeyedConcurrent pins that QueryKeys on KeyedConcurrent is
// one quiesced cut under concurrent keyed ingest: beyond the dense
// invariants, the per-key counts must sum to the total and the tracked-key
// count must equal the keys counted so far (only adds of four keys ever
// happen), which individual getter calls can tear.
func TestQueryAtomicKeyedConcurrent(t *testing.T) {
	k := sprofile.MustBuildKeyed[string](64, sprofile.WithSharding(4))
	keys := []string{"alpha", "beta", "gamma", "delta"}
	q := sprofile.KeyedQuery[string]{
		Count:        keys,
		Mode:         true,
		Min:          true,
		TopK:         1,
		Quantiles:    []float64{1},
		Distribution: true,
		Summary:      true,
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := k.Add(keys[(i+g)%len(keys)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 300; i++ {
		res, err := k.QueryKeys(q)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		if res.Mode.Frequency != res.Summary.MaxFrequency {
			t.Fatalf("torn cut: mode %d != summary max %d", res.Mode.Frequency, res.Summary.MaxFrequency)
		}
		if res.TopK[0].Frequency != res.Mode.Frequency {
			t.Fatalf("torn cut: top-1 %d != mode %d", res.TopK[0].Frequency, res.Mode.Frequency)
		}
		if res.Quantiles[0].Frequency != res.Summary.MaxFrequency {
			t.Fatalf("torn cut: q=1 %d != summary max %d", res.Quantiles[0].Frequency, res.Summary.MaxFrequency)
		}
		var total int64
		for _, fc := range res.Distribution {
			total += fc.Freq * int64(fc.Count)
		}
		if total != res.Summary.Total {
			t.Fatalf("torn cut: distribution sums to %d, summary total %d", total, res.Summary.Total)
		}
		// Per-key counts come from the same cut: with adds only, the four
		// counts must sum to exactly the total.
		var keySum int64
		for _, e := range res.Counts {
			keySum += e.Frequency
		}
		if keySum != res.Summary.Total {
			t.Fatalf("torn cut: key counts sum to %d, summary total %d", keySum, res.Summary.Total)
		}
		seen := 0
		for _, e := range res.Counts {
			if e.Frequency > 0 {
				seen++
			}
		}
		if res.Tracked == nil || *res.Tracked != seen {
			t.Fatalf("torn cut: tracked %v, %d keys counted", res.Tracked, seen)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestQueryKeysUnderRecyclingChurn pins that QueryKeys translates ids under
// the cut it reads while ids are recycled, which the fixed keys of
// TestQueryAtomicKeyedConcurrent never are: four writers each add a fresh
// key "k<n>" with frequency n%1000+1 in one delta and remove their key
// n-12 the same way, so every key holds 0 or its own frequency and the full
// stripes of a capacity-64, two-shard profile evict idle keys all the time.
// Every positive TopK entry must carry its key's own frequency.
func TestQueryKeysUnderRecyclingChurn(t *testing.T) {
	const reads, writers, lag = 5000, 4, 12
	k := sprofile.MustBuildKeyed[string](64, sprofile.WithSharding(2))
	key := func(n int) string { return "k" + strconv.Itoa(n) }
	freq := func(n int) uint64 { return uint64(n%1000 + 1) }
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			added := map[int]bool{}
			for n := w; !stop.Load(); n += writers {
				switch err := k.ApplyDelta(key(n), freq(n), 0); {
				case err == nil:
					added[n] = true
				case !errors.Is(err, sprofile.ErrKeyedFull):
					t.Errorf("add %s: %v", key(n), err)
					return
				}
				if old := n - lag; added[old] {
					delete(added, old)
					if err := k.ApplyDelta(key(old), 0, freq(old)); err != nil {
						t.Errorf("remove %s: %v", key(old), err)
						return
					}
				}
			}
		}(w)
	}
	wrong, listed := 0, 0
	for i := 0; i < reads && !t.Failed(); i++ {
		res, err := k.QueryKeys(sprofile.KeyedQuery[string]{TopK: 48})
		if err != nil {
			t.Error(err)
			break
		}
		for _, e := range res.TopK {
			if e.Frequency == 0 {
				continue
			}
			listed++
			n, err := strconv.Atoi(strings.TrimPrefix(e.Key, "k"))
			if err != nil || !strings.HasPrefix(e.Key, "k") || int64(freq(n)) != e.Frequency {
				wrong++
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if wrong > 0 {
		t.Fatalf("%d of %d positive TopK entries in %d reads carried a frequency their key never held", wrong, listed, reads)
	}
}

// TestTimeWindowQueryAt pins that QueryAt runs the expiry sweep before
// answering: events pushed at t0 vanish from a query asked about t0+2·span.
func TestTimeWindowQueryAt(t *testing.T) {
	p := sprofile.MustNew(8)
	w, err := sprofile.NewTimeWindow(p, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		if err := w.PushAt(sprofile.Tuple{Object: 1, Action: sprofile.ActionAdd}, t0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := w.Query(sprofile.Query{Summary: true})
	if err != nil || res.Summary.Total != 5 {
		t.Fatalf("in-window query = (%+v, %v), want total 5", res.Summary, err)
	}
	res, err = w.QueryAt(time.Unix(2000, 0), sprofile.Query{Summary: true})
	if err != nil || res.Summary.Total != 0 {
		t.Fatalf("post-expiry query = (%+v, %v), want total 0", res.Summary, err)
	}
}
