package sprofile

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sprofile/internal/core"
)

// Sharded splits the object-id space across independently locked S-Profiles
// so that concurrent producers on different id ranges do not contend on a
// single mutex. With one shard it is the package's single-mutex profile:
// Build with Synchronized and no WithSharding returns one.
//
// Updates touch exactly one shard: O(1) work under that shard's lock. Every
// global statistic, Total included, is read from one cut: all shard read
// locks held at once. With one shard the shard's own profile answers it at
// the plain Profile's cost. With several, extreme queries (Mode, Min)
// combine the shards' O(1) answers, while rank queries (KthLargest, Median,
// Quantile) and Distribution merge the shards' frequency histograms, costing
// O(total number of distinct frequencies) — still far below O(m), but no
// longer constant; a composite Query merges once for all its rank
// statistics.
//
// The bound on counts, core.MaxMagnitude, holds for the profile as a whole:
// the delta path (AddN, RemoveN, ApplyDelta, ApplyDeltas) refuses a step
// that would take the adds or removes counter of all shards together past
// it, and LoadFrequencies refuses such a state. A keyed profile's id-to-
// shard layout follows a hash seed drawn per process, so a bound kept per
// shard could accept in one process what another refuses on replay.
type Sharded struct {
	shards    []shardedShard
	shardSize int
	m         int

	// adds and removes count, over every shard, the events the delta path
	// has applied on top of the last load's counters; they never pass
	// core.MaxMagnitude. The ±1 path (Add, Remove, ApplyAll) is not
	// counted: from the bound it takes 2^62 more events to wrap anything.
	// Every write of a keyed profile takes the delta path, so there they
	// are the summed shard counters.
	adds, removes atomic.Uint64

	// batches recycles the per-shard partition scratch of ApplyDeltas, so
	// steady-state batch ingestion allocates nothing.
	batches sync.Pool
}

// shardedBatch is the reusable partition scratch of one ApplyDeltas call.
type shardedBatch struct {
	groups  [][]core.Delta
	touched []int
	counts  []int
	errs    []error
}

type shardedShard struct {
	mu sync.RWMutex
	p  *core.Profile
	// base is the global id of the shard's local object 0.
	base int
}

// NewSharded returns a sharded profile over m dense object ids split across
// numShards shards. Object x lives in shard x / ceil(m/numShards).
func NewSharded(m, numShards int, opts ...Option) (*Sharded, error) {
	if m < 0 {
		return nil, fmt.Errorf("%w: %d", ErrCapacity, m)
	}
	if numShards <= 0 {
		return nil, fmt.Errorf("%w: number of shards must be positive, got %d", ErrCapacity, numShards)
	}
	if numShards > m {
		numShards = m
	}
	if numShards == 0 {
		numShards = 1
	}
	shardSize := (m + numShards - 1) / numShards
	if shardSize == 0 {
		shardSize = 1
	}
	s := &Sharded{shardSize: shardSize, m: m}
	for base := 0; base < m || (m == 0 && base == 0); base += shardSize {
		size := shardSize
		if base+size > m {
			size = m - base
		}
		p, err := core.New(size, opts...)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, shardedShard{p: p, base: base})
		if m == 0 {
			break
		}
	}
	return s, nil
}

// MustNewSharded is NewSharded for callers with known-good arguments; it
// panics on error.
func MustNewSharded(m, numShards int, opts ...Option) *Sharded {
	s, err := NewSharded(m, numShards, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Cap returns the number of object slots.
func (s *Sharded) Cap() int { return s.m }

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// locate returns the shard holding object x and x's local id within it.
func (s *Sharded) locate(x int) (*shardedShard, int, error) {
	if x < 0 || x >= s.m {
		return nil, 0, fmt.Errorf("%w: id %d, capacity %d", ErrObjectRange, x, s.m)
	}
	idx := x / s.shardSize
	return &s.shards[idx], x - s.shards[idx].base, nil
}

// Add increments the frequency of object x.
func (s *Sharded) Add(x int) error {
	sh, local, err := s.locate(x)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.p.Add(local)
}

// Remove decrements the frequency of object x.
func (s *Sharded) Remove(x int) error {
	sh, local, err := s.locate(x)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.p.Remove(local)
}

// Apply applies one log tuple.
func (s *Sharded) Apply(t Tuple) error {
	switch t.Action {
	case ActionAdd:
		return s.Add(t.Object)
	case ActionRemove:
		return s.Remove(t.Object)
	default:
		return errInvalidAction(t.Action)
	}
}

// ApplyAll applies tuples in order, stopping at the first error; it returns
// the number of tuples applied. Runs of consecutive tuples that land in the
// same shard are applied under a single lock acquisition, so batches with
// locality pay far fewer lock round-trips than per-event ingestion while the
// stream-order stop-at-first-error semantics of Profile.ApplyAll are kept.
func (s *Sharded) ApplyAll(tuples []Tuple) (int, error) {
	i := 0
	for i < len(tuples) {
		t := tuples[i]
		if !t.Action.Valid() {
			return i, errInvalidAction(t.Action)
		}
		sh, _, err := s.locate(t.Object)
		if err != nil {
			return i, err
		}
		// Extend the run while the following tuples stay in this shard.
		end := i + 1
		for end < len(tuples) {
			nt := tuples[end]
			if !nt.Action.Valid() {
				break
			}
			nsh, _, nerr := s.locate(nt.Object)
			if nerr != nil || nsh != sh {
				break
			}
			end++
		}
		sh.mu.Lock()
		for ; i < end; i++ {
			t := tuples[i]
			local := t.Object - sh.base
			var err error
			if t.Action == ActionAdd {
				err = sh.p.Add(local)
			} else {
				err = sh.p.Remove(local)
			}
			if err != nil {
				sh.mu.Unlock()
				return i, err
			}
		}
		sh.mu.Unlock()
	}
	return len(tuples), nil
}

// AddN raises the frequency of object x by k in one step under its shard's
// lock.
func (s *Sharded) AddN(x int, k int64) error {
	return s.bounded(x, uint64(max(k, 0)), 0, func(p *core.Profile, local int) error { return p.AddN(local, k) })
}

// RemoveN lowers the frequency of object x by k in one step under its
// shard's lock.
func (s *Sharded) RemoveN(x int, k int64) error {
	return s.bounded(x, 0, uint64(max(k, 0)), func(p *core.Profile, local int) error { return p.RemoveN(local, k) })
}

// ApplyDelta applies one coalesced delta under its shard's lock.
func (s *Sharded) ApplyDelta(d Delta) error {
	adds, removes := d.Gross()
	return s.bounded(d.Object, adds, removes, func(p *core.Profile, local int) error {
		d.Object = local
		return p.ApplyDelta(d)
	})
}

// bounded runs one delta-path step on object x's shard under its lock,
// after counting its adds and removes toward the profile's counters, and
// hands them back if the step fails.
func (s *Sharded) bounded(x int, adds, removes uint64, step func(p *core.Profile, local int) error) error {
	sh, local, err := s.locate(x)
	if err != nil {
		return err
	}
	if !s.reserve(adds, removes) {
		return errPastBound(x, adds, removes)
	}
	sh.mu.Lock()
	err = step(sh.p, local)
	sh.mu.Unlock()
	if err != nil {
		s.release(adds, removes)
	}
	return err
}

// applyGroup applies one shard's share of ApplyDeltas under the shard's
// lock, in order up to the first delta that fails, the profile's bound
// included.
func (s *Sharded) applyGroup(sh *shardedShard, group []core.Delta) (int, error) {
	n, err := s.reserveRun(sh.base, group)
	sh.mu.Lock()
	applied, aerr := sh.p.ApplyDeltas(group[:n])
	sh.mu.Unlock()
	for _, d := range group[applied:n] {
		s.release(d.Gross())
	}
	if aerr != nil {
		return applied, aerr
	}
	return applied, err
}

// reserveRun counts the longest prefix of group that fits toward the
// profile's counters, in one step when the whole group does, and returns
// its length and the refusal of the delta after it; base is the id of the
// group's local object 0.
func (s *Sharded) reserveRun(base int, group []core.Delta) (int, error) {
	var adds, removes uint64
	for _, d := range group {
		a, r := d.Gross()
		if a > core.MaxMagnitude-adds || r > core.MaxMagnitude-removes {
			adds = core.MaxMagnitude + 1 // too much for one step
			break
		}
		adds, removes = adds+a, removes+r
	}
	if s.reserve(adds, removes) {
		return len(group), nil
	}
	for i, d := range group {
		a, r := d.Gross()
		if !s.reserve(a, r) {
			return i, errPastBound(base+d.Object, a, r)
		}
	}
	return len(group), nil
}

// reserve counts adds and removes events toward the profile's counters,
// unless either would pass core.MaxMagnitude; then it counts nothing.
func (s *Sharded) reserve(adds, removes uint64) bool {
	if !take(&s.adds, adds) {
		return false
	}
	if !take(&s.removes, removes) {
		s.adds.Add(-adds)
		return false
	}
	return true
}

// release hands back events that reserve counted for a step that failed.
func (s *Sharded) release(adds, removes uint64) {
	s.adds.Add(-adds)
	s.removes.Add(-removes)
}

func errPastBound(x int, adds, removes uint64) error {
	return fmt.Errorf("%w: %d adds and %d removes for object %d take the profile's event counters past %d",
		ErrOutOfRange, adds, removes, x, uint64(core.MaxMagnitude))
}

// take adds n to c unless that would pass core.MaxMagnitude, which c never
// does.
func take(c *atomic.Uint64, n uint64) bool {
	if n == 0 {
		return true
	}
	for {
		old := c.Load()
		if n > core.MaxMagnitude-old {
			return false
		}
		if c.CompareAndSwap(old, old+n) {
			return true
		}
	}
}

// ApplyDeltas partitions a coalesced batch by shard and applies each shard's
// share under a single lock acquisition — on multi-core hosts the touched
// shards run in parallel. It returns how many deltas were applied in total.
//
// Error semantics: deltas for different shards are independent, so on an
// error (an out-of-range object, a strict-mode violation) every *other*
// shard's share is still attempted; within the failing shard the deltas
// before the bad one are applied. The first error encountered is returned.
// This mirrors the partial application the per-event path has always had, at
// shard granularity.
func (s *Sharded) ApplyDeltas(deltas []Delta) (int, error) {
	switch len(deltas) {
	case 0:
		return 0, nil
	case 1:
		// Fast path for the single-object batches keyed ingestion issues.
		if err := s.ApplyDelta(deltas[0]); err != nil {
			return 0, err
		}
		return 1, nil
	}

	b, _ := s.batches.Get().(*shardedBatch)
	if b == nil {
		b = &shardedBatch{groups: make([][]core.Delta, len(s.shards))}
	}
	defer func() {
		for _, idx := range b.touched {
			b.groups[idx] = b.groups[idx][:0]
		}
		b.touched = b.touched[:0]
		s.batches.Put(b)
	}()

	applied := 0
	var firstErr error
	for _, d := range deltas {
		if d.Object < 0 || d.Object >= s.m {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: id %d, capacity %d", ErrObjectRange, d.Object, s.m)
			}
			continue
		}
		idx := d.Object / s.shardSize
		d.Object -= s.shards[idx].base
		if len(b.groups[idx]) == 0 {
			b.touched = append(b.touched, idx)
		}
		b.groups[idx] = append(b.groups[idx], d)
	}

	// Parallel application must buy more than the goroutine spawns and the
	// WaitGroup barrier cost; small batches take the sequential loop below.
	const parallelMin = 256
	if len(b.touched) > 1 && len(deltas) >= parallelMin && runtime.GOMAXPROCS(0) > 1 {
		if cap(b.counts) < len(b.touched) {
			b.counts = make([]int, len(b.touched))
			b.errs = make([]error, len(b.touched))
		}
		counts := b.counts[:len(b.touched)]
		errs := b.errs[:len(b.touched)]
		clear(counts)
		clear(errs)
		var wg sync.WaitGroup
		for i, idx := range b.touched {
			wg.Add(1)
			go func(i, idx int) {
				defer wg.Done()
				counts[i], errs[i] = s.applyGroup(&s.shards[idx], b.groups[idx])
			}(i, idx)
		}
		wg.Wait()
		for i := range b.touched {
			applied += counts[i]
			if errs[i] != nil && firstErr == nil {
				firstErr = errs[i]
			}
		}
		return applied, firstErr
	}

	for _, idx := range b.touched {
		n, err := s.applyGroup(&s.shards[idx], b.groups[idx])
		applied += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return applied, firstErr
}

// Count returns the current frequency of object x.
func (s *Sharded) Count(x int) (int64, error) {
	sh, local, err := s.locate(x)
	if err != nil {
		return 0, err
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.p.Count(local)
}

// Total returns the sum of all frequencies, read from one cut of every shard.
func (s *Sharded) Total() int64 {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.Total()
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().Total()
}

// events returns the adds and removes counters summed over one cut of every
// shard.
func (s *Sharded) events() (adds, removes uint64) {
	s.rlockAll()
	defer s.runlockAll()
	for i := range s.shards {
		a, r := s.shards[i].p.Events()
		adds += a
		removes += r
	}
	return adds, removes
}

// rlockAll takes every shard's read lock, in index order, so that a global
// read sees one cut of the whole profile; runlockAll releases them.
func (s *Sharded) rlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
}

func (s *Sharded) runlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
}

// lockAll takes every shard's write lock, in index order; unlockAll releases
// them.
func (s *Sharded) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

func (s *Sharded) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// single returns the shard of a one-shard Sharded, nil with several. Its
// local ids are the global ids, so its own profile answers every global
// statistic. The getters call that profile directly, not through view's
// interface value, and take its lock inline: the lock helpers loop, so they
// are never inlined, and their two calls would add about a fifth to a
// one-shard Mode.
func (s *Sharded) single() *shardedShard {
	if len(s.shards) == 1 {
		return &s.shards[0]
	}
	return nil
}

// merged returns the statistics view of a several-shard cut.
func (s *Sharded) merged() *mergedView { return &mergedView{s: s} }

// view returns the statistics view of the cut a caller holding rlockAll
// reads: the one shard's profile, or the merged view of several.
func (s *Sharded) view() core.Queryable {
	if sh := s.single(); sh != nil {
		return sh.p
	}
	return s.merged()
}

// Mode returns an object with the maximum frequency, that frequency, and how
// many objects share it, by combining each shard's O(1) answer.
func (s *Sharded) Mode() (Entry, int, error) {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.Mode()
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().Mode()
}

// Min returns an object with the minimum frequency, that frequency, and how
// many objects share it.
func (s *Sharded) Min() (Entry, int, error) {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.Min()
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().Min()
}

// Distribution returns the global frequency histogram in ascending frequency
// order; with several shards it merges the shards' histograms. Cost
// O(total distinct frequencies).
func (s *Sharded) Distribution() []FreqCount {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.Distribution()
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().Distribution()
}

// AtRank returns the entry at 0-based rank r of the global ascending-sorted
// frequency array (rank 0 is a minimum-frequency object, rank m-1 a
// maximum-frequency object). Cost O(1) with one shard, O(total distinct
// frequencies) with several.
func (s *Sharded) AtRank(r int) (Entry, error) {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.AtRank(r)
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().AtRank(r)
}

// KthLargest returns an object holding the k-th largest frequency (1-based).
func (s *Sharded) KthLargest(k int) (Entry, error) {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.KthLargest(k)
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().KthLargest(k)
}

// Median returns the lower-median entry of the global frequency multiset.
func (s *Sharded) Median() (Entry, error) {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.Median()
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().Median()
}

// Quantile returns the entry at quantile q in [0, 1] of the global frequency
// multiset. The rank is computed by core.QuantileRank, the same nearest-rank
// mapping Profile.Quantile uses, so a sharded profile and a plain profile
// over the same stream always answer identically. Finite q outside [0, 1] is
// clamped; NaN is an error.
func (s *Sharded) Quantile(q float64) (Entry, error) {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.Quantile(q)
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().Quantile(q)
}

// Majority returns the object holding a strict majority of the total count,
// if one exists. The mode and the total are read from one cut, so the
// comparison sees a single consistent state.
func (s *Sharded) Majority() (Entry, bool, error) {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.Majority()
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().Majority()
}

// Summarize returns aggregate statistics of the whole profile, merging every
// shard's summary from one cut.
func (s *Sharded) Summarize() Summary {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.Summarize()
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().Summarize()
}

// TopK returns the k globally most frequent entries in non-increasing
// frequency order, merging each shard's top-k list. Cost O(shards·k).
func (s *Sharded) TopK(k int) []Entry {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.TopK(k)
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().TopK(k)
}

// BottomK returns the k globally least frequent entries in non-decreasing
// frequency order, merging each shard's bottom-k list. Cost O(shards·k).
func (s *Sharded) BottomK(k int) []Entry {
	if sh := s.single(); sh != nil {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.p.BottomK(k)
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.merged().BottomK(k)
}

// Query answers a composite query atomically: every shard's read lock is held
// once across the whole evaluation, and core.EvalQuery reads every statistic
// from the one view of that cut. With several shards every rank statistic
// the query selects — median, quantiles, k-th largest, the distribution
// itself, the summary's distinct-frequency count — is answered from ONE
// merged frequency histogram, so a composite with R rank statistics costs one
// lock round-trip and one merge, where R individual getters cost R of each.
func (s *Sharded) Query(q Query) (QueryResult, error) {
	s.rlockAll()
	defer s.runlockAll()
	return core.EvalQuery(s.view(), q)
}

// Snapshot merges every shard into one consistent standalone Profile (cost
// O(m); a one-shard profile is cloned); use it when a burst of rank queries
// must see a single state.
// The snapshot preserves the true adds/removes counters and the strict-mode
// flag, so it is also a faithful checkpoint image, not just a query view.
func (s *Sharded) Snapshot() (*Profile, error) {
	s.rlockAll()
	defer s.runlockAll()
	if sh := s.single(); sh != nil {
		return sh.p.Clone(), nil
	}

	freqs := make([]int64, s.m)
	var adds, removes uint64
	for i := range s.shards {
		sh := &s.shards[i]
		local := sh.p.Frequencies(nil)
		copy(freqs[sh.base:sh.base+len(local)], local)
		a, r := sh.p.Events()
		adds += a
		removes += r
	}
	var opts []Option
	if s.shards[0].p.StrictNonNegative() {
		opts = append(opts, WithStrictNonNegative())
	}
	p, err := core.New(s.m, opts...)
	if err != nil {
		return nil, err
	}
	if err := p.LoadFrequencies(freqs, adds, removes); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadFrequencies replaces the whole sharded state: object x ends at
// frequency freqs[x] and the global adds/removes counters at the given
// totals. Each shard receives its id range plus the minimal event counts
// that produce it; the surplus of the historical counters over that minimum
// is attributed to shard 0, so Summarize sums back to exactly the totals
// given. The counters and the frequencies' sums over the whole profile must
// lie within core.MaxMagnitude, and the loaded counters are where the delta
// path's bound starts. Validation runs before any shard is mutated; the
// shards then load concurrently, on at most GOMAXPROCS goroutines.
func (s *Sharded) LoadFrequencies(freqs []int64, adds, removes uint64) error {
	if len(freqs) != s.m {
		return fmt.Errorf("%w: %d frequencies for capacity %d", core.ErrBadSnapshot, len(freqs), s.m)
	}
	if adds > core.MaxMagnitude || removes > core.MaxMagnitude {
		return fmt.Errorf("%w: %d adds and %d removes exceed %d", core.ErrBadSnapshot, adds, removes, uint64(core.MaxMagnitude))
	}
	strict := s.shards[0].p.StrictNonNegative()
	synthAdds := make([]uint64, len(s.shards))
	synthRemoves := make([]uint64, len(s.shards))
	var pos, neg uint64
	for i := range s.shards {
		sh := &s.shards[i]
		a, r, err := core.FrequencySums(freqs[sh.base:sh.base+sh.p.Cap()], strict, sh.base)
		if err != nil {
			return err
		}
		synthAdds[i], synthRemoves[i] = a, r
		// Each term and each running sum is within the bound, so the sums
		// cannot wrap before the check.
		if pos, neg = pos+a, neg+r; pos|neg > core.MaxMagnitude {
			return fmt.Errorf("%w: the frequencies' sums pass %d", core.ErrBadSnapshot, uint64(core.MaxMagnitude))
		}
	}
	// Historical counters can only exceed the minimal ones, by the same
	// surplus of add/remove pairs that cancelled out.
	if adds < pos || removes < neg || adds-pos != removes-neg {
		return fmt.Errorf("%w: %d adds - %d removes does not produce the loaded frequencies",
			core.ErrBadSnapshot, adds, removes)
	}
	surplus := adds - pos
	s.lockAll()
	defer s.unlockAll()
	s.adds.Store(adds)
	s.removes.Store(removes)
	return parallelEach(len(s.shards), func(i int) error {
		sh := &s.shards[i]
		a, r := synthAdds[i], synthRemoves[i]
		if i == 0 {
			a += surplus
			r += surplus
		}
		return sh.p.LoadFrequencies(freqs[sh.base:sh.base+sh.p.Cap()], a, r)
	})
}

// parallelEach calls fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines, the caller's among them, each taking the next i until none is
// left, and returns once every call has. It returns the error of the least
// i that failed.
func parallelEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergedView answers the global statistics of a several-shard cut, whose
// read locks the caller holds, by combining the shards' own answers. The
// merged frequency histogram every rank statistic needs is built once, on
// first use, and shared by the view's later reads.
type mergedView struct {
	s    *Sharded
	dist []FreqCount
}

func (v *mergedView) Cap() int { return v.s.m }

func (v *mergedView) Count(x int) (int64, error) {
	sh, local, err := v.s.locate(x)
	if err != nil {
		return 0, err
	}
	return sh.p.Count(local)
}

func (v *mergedView) Total() int64 {
	var total int64
	for i := range v.s.shards {
		total += v.s.shards[i].p.Total()
	}
	return total
}

func (v *mergedView) Mode() (Entry, int, error) {
	var best Entry
	ties := 0
	found := false
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		e, shardTies, err := sh.p.Mode()
		if err != nil {
			continue
		}
		globalEntry := Entry{Object: e.Object + sh.base, Frequency: e.Frequency}
		switch {
		case !found || globalEntry.Frequency > best.Frequency:
			best = globalEntry
			ties = shardTies
			found = true
		case globalEntry.Frequency == best.Frequency:
			ties += shardTies
		}
	}
	if !found {
		return Entry{}, 0, ErrEmptyProfile
	}
	return best, ties, nil
}

func (v *mergedView) Min() (Entry, int, error) {
	var best Entry
	ties := 0
	found := false
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		e, shardTies, err := sh.p.Min()
		if err != nil {
			continue
		}
		globalEntry := Entry{Object: e.Object + sh.base, Frequency: e.Frequency}
		switch {
		case !found || globalEntry.Frequency < best.Frequency:
			best = globalEntry
			ties = shardTies
			found = true
		case globalEntry.Frequency == best.Frequency:
			ties += shardTies
		}
	}
	if !found {
		return Entry{}, 0, ErrEmptyProfile
	}
	return best, ties, nil
}

func (v *mergedView) Distribution() []FreqCount {
	if v.dist != nil {
		return v.dist
	}
	merged := make(map[int64]int)
	for i := range v.s.shards {
		for _, fc := range v.s.shards[i].p.Distribution() {
			merged[fc.Freq] += fc.Count
		}
	}
	out := make([]FreqCount, 0, len(merged))
	for f, c := range merged {
		out = append(out, FreqCount{Freq: f, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Freq < out[j].Freq })
	v.dist = out
	return out
}

// AtRank finds the frequency at global rank r in the merged distribution,
// then a shard holding an object with that frequency.
func (v *mergedView) AtRank(r int) (Entry, error) {
	if r < 0 || r >= v.s.m {
		return Entry{}, fmt.Errorf("%w: k %d, capacity %d", ErrBadRank, r, v.s.m)
	}
	remaining := r
	var targetFreq int64
	for _, fc := range v.Distribution() {
		if remaining < fc.Count {
			targetFreq = fc.Freq
			break
		}
		remaining -= fc.Count
	}
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		below := sh.p.Cap() - sh.p.CountWithFrequencyAtLeast(targetFreq)
		if below >= sh.p.Cap() {
			continue // no object in this shard has frequency >= target
		}
		e, err := sh.p.KthSmallest(below + 1)
		if err != nil || e.Frequency != targetFreq {
			continue
		}
		return Entry{Object: e.Object + sh.base, Frequency: e.Frequency}, nil
	}
	// An impossible state (ranks were counted from the same locked shards
	// this walk reads): deliberately NOT part of the wire taxonomy, so it
	// surfaces as a 500, not as a client-addressable error class.
	return Entry{}, fmt.Errorf("sprofile: internal error: no shard holds rank %d", r) //lint:allow errtaxonomy
}

func (v *mergedView) KthLargest(k int) (Entry, error) {
	if k < 1 || k > v.s.m {
		return Entry{}, fmt.Errorf("%w: k %d, capacity %d", ErrBadRank, k, v.s.m)
	}
	return v.AtRank(v.s.m - k)
}

// Median needs no empty-profile check: several shards means m >= 2.
func (v *mergedView) Median() (Entry, error) { return v.AtRank((v.s.m - 1) / 2) }

func (v *mergedView) Quantile(q float64) (Entry, error) {
	if err := core.CheckQuantile(q); err != nil {
		return Entry{}, err
	}
	return v.AtRank(core.QuantileRank(q, v.s.m))
}

func (v *mergedView) Majority() (Entry, bool, error) {
	var best Entry
	var total int64
	found := false
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		total += sh.p.Total()
		e, _, err := sh.p.Mode()
		if err != nil {
			continue
		}
		if !found || e.Frequency > best.Frequency {
			best = Entry{Object: e.Object + sh.base, Frequency: e.Frequency}
			found = true
		}
	}
	if !found {
		return Entry{}, false, ErrEmptyProfile
	}
	if total > 0 && best.Frequency*2 > total {
		return best, true, nil
	}
	return Entry{}, false, nil
}

func (v *mergedView) Summarize() Summary {
	sum := Summary{Capacity: v.s.m}
	for i := range v.s.shards {
		shardSum := v.s.shards[i].p.Summarize()
		sum.Total += shardSum.Total
		sum.Active += shardSum.Active
		sum.Negative += shardSum.Negative
		sum.Adds += shardSum.Adds
		sum.Removes += shardSum.Removes
		if i == 0 || shardSum.MaxFrequency > sum.MaxFrequency {
			sum.MaxFrequency = shardSum.MaxFrequency
		}
		if i == 0 || shardSum.MinFrequency < sum.MinFrequency {
			sum.MinFrequency = shardSum.MinFrequency
		}
	}
	// Distinct frequencies must be counted globally: two shards holding the
	// same frequency contribute one distinct value, not two.
	sum.DistinctFrequencies = len(v.Distribution())
	return sum
}

func (v *mergedView) TopK(k int) []Entry {
	if k <= 0 {
		return nil
	}
	if k > v.s.m {
		k = v.s.m
	}
	candidates := make([]Entry, 0, k*len(v.s.shards))
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		for _, e := range sh.p.TopK(k) {
			candidates = append(candidates, Entry{Object: e.Object + sh.base, Frequency: e.Frequency})
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Frequency != candidates[j].Frequency {
			return candidates[i].Frequency > candidates[j].Frequency
		}
		return candidates[i].Object < candidates[j].Object
	})
	if len(candidates) > k {
		candidates = candidates[:k]
	}
	return candidates
}

func (v *mergedView) BottomK(k int) []Entry {
	if k <= 0 {
		return nil
	}
	if k > v.s.m {
		k = v.s.m
	}
	candidates := make([]Entry, 0, k*len(v.s.shards))
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		for _, e := range sh.p.BottomK(k) {
			candidates = append(candidates, Entry{Object: e.Object + sh.base, Frequency: e.Frequency})
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Frequency != candidates[j].Frequency {
			return candidates[i].Frequency < candidates[j].Frequency
		}
		return candidates[i].Object < candidates[j].Object
	})
	if len(candidates) > k {
		candidates = candidates[:k]
	}
	return candidates
}
