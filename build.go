package sprofile

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sprofile/internal/checkpoint"
	"sprofile/internal/wal"
)

// ErrBuildConfig is returned by Build when the requested capability
// combination is invalid or unsupported.
var ErrBuildConfig = errors.New("sprofile: invalid build configuration")

// buildConfig accumulates the capabilities requested through BuildOptions.
type buildConfig struct {
	shards       int
	shardsSet    bool
	synchronized bool
	windowSize   int
	windowSet    bool
	windowSpan   time.Duration
	spanSet      bool
	walPath      string
	walSyncEvery int
	ckpt         CheckpointPolicy
	ckptSet      bool
	profileOpts  []Option
	noKeyRecycle bool
}

// BuildOption declares one capability of the profile Build assembles.
type BuildOption func(*buildConfig)

// WithSharding splits the object-id space across n independently locked
// shards, removing the single-mutex bottleneck under many concurrent
// producers. A sharded profile is always safe for concurrent use, so
// Synchronized is implied.
func WithSharding(n int) BuildOption {
	return func(c *buildConfig) { c.shards = n; c.shardsSet = true }
}

// Synchronized protects the profile with one read-write mutex so multiple
// goroutines can update and query it: it is the documented spelling of
// WithSharding(1), in Build and BuildKeyed alike, and builds a one-shard
// *Sharded whose statistics cost what a plain Profile's do plus the lock.
// Redundant (and harmless) when WithSharding is also given.
func Synchronized() BuildOption {
	return func(c *buildConfig) { c.synchronized = true }
}

// Windowed maintains a count-based sliding window of the given size: the
// profile always reflects exactly the last size tuples. Window adapters are
// single-goroutine; combining Windowed with Synchronized or WithSharding is
// an error — wrap the built profiler in external locking instead.
func Windowed(size int) BuildOption {
	return func(c *buildConfig) { c.windowSize = size; c.windowSet = true }
}

// TimeWindowed maintains a duration-based sliding window: the profile always
// reflects the tuples of the last span of logical time. The same composition
// restrictions as Windowed apply.
func TimeWindowed(span time.Duration) BuildOption {
	return func(c *buildConfig) { c.windowSpan = span; c.spanSet = true }
}

// WithWAL makes ingestion durable: every applied update is appended to a
// write-ahead log, and the log's existing contents are replayed into the
// profile when Build runs. path names a directory of rotating log segments
// (plus checkpoint snapshots, when WithCheckpoints is also given). A
// single-file log left at path by an older version, or a leftover of its
// migration, makes Build fail with an error wrapping
// errors.ErrUnsupported that names the last commit able to migrate it. The
// built profiler is a *Durable; close it (or call Sync) to flush buffered
// records to stable storage.
func WithWAL(path string) BuildOption {
	return func(c *buildConfig) { c.walPath = path }
}

// WithWALSyncEvery fsyncs the write-ahead log after every n appended records
// instead of only on ApplyAll batch boundaries, Sync and Close. Only
// meaningful together with WithWAL.
func WithWALSyncEvery(n int) BuildOption {
	return func(c *buildConfig) { c.walSyncEvery = n }
}

// CheckpointPolicy says when a durable profile writes a snapshot and
// truncates its log. Either trigger (or both) may be set; the zero policy
// disables automatic checkpointing, leaving only explicit Checkpoint calls.
type CheckpointPolicy struct {
	// Every checkpoints once this much time has passed since the previous
	// checkpoint and at least one event has been journaled since.
	Every time.Duration
	// EveryBytes checkpoints once the log tail (the records not yet covered
	// by a snapshot) grows past this many bytes.
	EveryBytes int64
}

// Enabled reports whether the policy triggers automatic checkpoints.
func (p CheckpointPolicy) Enabled() bool { return p.Every > 0 || p.EveryBytes > 0 }

// WithCheckpoints bounds recovery time and disk use: the profile
// periodically writes an atomic snapshot of its full state into the WAL
// directory and deletes the log segments the snapshot covers, so a restart
// loads the snapshot and replays only the tail written after it. Requires
// WithWAL; incompatible with Windowed and TimeWindowed (a window's ring of
// in-flight tuples is not captured by a frequency snapshot). A manual
// checkpoint can always be taken with (*Durable).Checkpoint or
// (*KeyedConcurrent).Checkpoint, with or without this option.
func WithCheckpoints(p CheckpointPolicy) BuildOption {
	return func(c *buildConfig) { c.ckpt = p; c.ckptSet = true }
}

// RecoveryStats describes how a durable profile was rebuilt at startup:
// what the snapshot restored outright and how much log tail had to be
// replayed on top of it.
type RecoveryStats struct {
	// SnapshotSeq is the sequence number of the snapshot recovery loaded
	// (zero when the directory held none).
	SnapshotSeq uint64
	// SnapshotObjects is how many keys (or nonzero dense slots) the
	// snapshot restored without replay.
	SnapshotObjects int
	// SnapshotEvents is the number of add/remove events the snapshot
	// covers — history that did not need replaying.
	SnapshotEvents uint64
	// TailSegments and TailRecords count the log segments newer than the
	// snapshot and the records replayed from them.
	TailSegments int
	TailRecords  int
}

func recoveryStats(s checkpoint.RecoveryStats) RecoveryStats {
	return RecoveryStats{
		SnapshotSeq:     s.SnapshotSeq,
		SnapshotObjects: s.SnapshotObjects,
		SnapshotEvents:  s.SnapshotEvents,
		TailSegments:    s.TailSegments,
		TailRecords:     s.TailRecords,
	}
}

// WithOptions forwards profile options (WithStrictNonNegative,
// WithBlockHint) to the underlying profile(s) the builder creates.
func WithOptions(opts ...Option) BuildOption {
	return func(c *buildConfig) { c.profileOpts = append(c.profileOpts, opts...) }
}

// Strict is shorthand for WithOptions(WithStrictNonNegative()).
func Strict() BuildOption {
	return WithOptions(WithStrictNonNegative())
}

// WithoutKeyRecycling keeps a key's dense id assigned even after its
// frequency returns to zero — BuildKeyed's equivalent of the Keyed option
// WithoutRecycling. Use it when the key set is closed or when negative
// frequencies are meaningful; without recycling the profile follows the
// paper's default semantics and allows negative frequencies. Only meaningful
// with BuildKeyed; plain Build rejects it.
func WithoutKeyRecycling() BuildOption {
	return func(c *buildConfig) { c.noKeyRecycle = true }
}

// defaultShards is the shard (and mapper stripe) count BuildKeyed uses when
// WithSharding is not given: one per unit of real parallelism, the point
// where parallel ingestion stops gaining from further splitting. The count
// is min(GOMAXPROCS, NumCPU): splitting beyond either bound buys no
// parallelism but still pays the per-event striping cost (BENCH_keyed.json,
// 2 CPUs, 2 producers: striped 646–821 ns/event at 1–16 shards, one mutex
// 576–628 ns/event), so a single-core host — GOMAXPROCS=1, or a
// quota-limited container where the runtime sees one usable CPU — gets one
// stripe and one shard.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Build assembles a profile over m dense object ids from declared
// capabilities instead of hand-nested wrappers:
//
//	p, err := sprofile.Build(1_000_000)                          // plain Profile
//	p, err := sprofile.Build(m, sprofile.Synchronized())         // one mutex (one shard)
//	p, err := sprofile.Build(m, sprofile.WithSharding(16))       // 16 lock shards
//	p, err := sprofile.Build(m, sprofile.Windowed(100_000))      // last 100k tuples
//	p, err := sprofile.Build(m, sprofile.TimeWindowed(time.Hour))
//	p, err := sprofile.Build(m, sprofile.WithSharding(16), sprofile.WithWAL("events.wal"))
//
// Whatever the combination, the result satisfies Profiler, so ingestion and
// query code is written once and the representation can be swapped by
// changing only the Build call.
func Build(m int, opts ...BuildOption) (Profiler, error) {
	var cfg buildConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.shardsSet && cfg.shards <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrBuildConfig, cfg.shards)
	}
	if cfg.noKeyRecycle {
		return nil, fmt.Errorf("%w: WithoutKeyRecycling configures key recycling and applies only to BuildKeyed", ErrBuildConfig)
	}
	if cfg.windowSet && cfg.spanSet {
		return nil, fmt.Errorf("%w: Windowed and TimeWindowed are mutually exclusive", ErrBuildConfig)
	}
	if cfg.windowSet && cfg.windowSize <= 0 {
		return nil, fmt.Errorf("%w: window size must be positive, got %d", ErrBuildConfig, cfg.windowSize)
	}
	if cfg.spanSet && cfg.windowSpan <= 0 {
		return nil, fmt.Errorf("%w: window span must be positive, got %v", ErrBuildConfig, cfg.windowSpan)
	}
	if (cfg.windowSet || cfg.spanSet) && (cfg.shards > 0 || cfg.synchronized) {
		return nil, fmt.Errorf("%w: window adapters are single-goroutine; they cannot be combined with Synchronized or WithSharding", ErrBuildConfig)
	}
	// The WAL stores no timestamps, so replaying into a time window would
	// restamp every historical event with the replay-time clock and resurrect
	// long-expired events. Count windows replay correctly (the sequence alone
	// determines their contents).
	if cfg.spanSet && cfg.walPath != "" {
		return nil, fmt.Errorf("%w: WithWAL cannot restore a TimeWindowed profile (the log has no event timestamps)", ErrBuildConfig)
	}
	if cfg.ckptSet {
		if cfg.walPath == "" {
			return nil, fmt.Errorf("%w: WithCheckpoints requires WithWAL", ErrBuildConfig)
		}
		if cfg.windowSet || cfg.spanSet {
			return nil, fmt.Errorf("%w: a frequency snapshot cannot capture a window's in-flight tuples; WithCheckpoints does not compose with Windowed or TimeWindowed", ErrBuildConfig)
		}
	}

	var (
		p   Profiler
		err error
	)
	switch {
	case cfg.shards > 0 || cfg.synchronized:
		p, err = NewSharded(m, max(cfg.shards, 1), cfg.profileOpts...)
	case cfg.windowSet:
		var base *Profile
		base, err = New(m, cfg.profileOpts...)
		if err == nil {
			p, err = NewWindow(base, cfg.windowSize)
		}
	case cfg.spanSet:
		var base *Profile
		base, err = New(m, cfg.profileOpts...)
		if err == nil {
			p, err = NewTimeWindow(base, cfg.windowSpan)
		}
	default:
		p, err = New(m, cfg.profileOpts...)
	}
	if err != nil {
		return nil, err
	}

	if cfg.walPath != "" {
		p, err = newDurable(p, cfg.walPath, cfg.walSyncEvery, cfg.ckpt)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// MustBuild is Build for callers with a known-good configuration; it panics
// on error.
func MustBuild(m int, opts ...BuildOption) Profiler {
	p, err := Build(m, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Durable wraps any Profiler with a write-ahead log: every successful update
// is appended to the log, and construction replays the log's existing
// contents into the profiler first, so the profile survives process
// restarts. Every statistic of the Reader contract (Count, Mode, TopK, ...,
// Total) comes straight from the wrapped profile; Query delegates to it too.
// The log is a directory of rotating segments; with checkpointing
// (WithCheckpoints or explicit Checkpoint calls) the directory also holds
// atomic snapshots, recovery loads the latest snapshot and replays only the
// tail segments, and covered segments are deleted — bounding both restart
// time and disk use.
//
// Records are buffered; they reach stable storage on Sync, Close, at the end
// of every ApplyAll batch, and every n records when built with
// WithWALSyncEvery(n). Updates serialise on an internal mutex (checkpoint
// capture needs a precise cut between profile state and log position), so a
// Durable over a concurrency-safe inner profiler is itself safe for
// concurrent updates; fsyncs run outside the mutex with group commit.
type Durable struct {
	reader // the wrapped profile, answering every statistic
	inner  Profiler
	store  *checkpoint.Store
	// mu serialises updates with each other and with checkpoint capture, so
	// a snapshot covers exactly the events journaled before its rotation.
	mu sync.Mutex
	// replayed is the number of tail records replayed at build time.
	replayed int
	stats    RecoveryStats
	ckpt     *checkpoint.Checkpointer
	// entries is the reusable WAL batch-record scratch of ApplyDeltas;
	// guarded by mu.
	entries []wal.BatchEntry
}

// NewDurable opens (or creates) the write-ahead log directory at path,
// restores the latest checkpoint snapshot (if one exists), replays the tail
// records into p, and returns the journaling wrapper. syncEvery fsyncs after
// that many appends; zero syncs only on batch boundaries, Sync and Close.
func NewDurable(p Profiler, path string, syncEvery int) (*Durable, error) {
	return newDurable(p, path, syncEvery, CheckpointPolicy{})
}

func newDurable(p Profiler, path string, syncEvery int, policy CheckpointPolicy) (*Durable, error) {
	if p == nil {
		return nil, errNilProfiler
	}
	store, err := checkpoint.Open(path, checkpoint.Options{SyncEvery: syncEvery})
	if err != nil {
		return nil, fmt.Errorf("sprofile: opening WAL %s: %w", path, err)
	}
	if st := store.TakeState(); st != nil {
		if st.Keyed {
			return nil, fmt.Errorf("sprofile: WAL %s holds a keyed snapshot; open it with BuildKeyed: %w", path, ErrBadSnapshot)
		}
		loader, ok := p.(FrequencyLoader)
		if !ok {
			return nil, fmt.Errorf("sprofile: WAL %s holds a snapshot but %T cannot restore one (no FrequencyLoader capability): %w", path, p, errors.ErrUnsupported)
		}
		freqs := st.Dense.Frequencies(nil)
		if len(freqs) != p.Cap() {
			return nil, fmt.Errorf("sprofile: snapshot in %s holds %d object slots but the profile has %d: %w", path, len(freqs), p.Cap(), ErrBadSnapshot)
		}
		adds, removes := st.Dense.Events()
		if err := loader.LoadFrequencies(freqs, adds, removes); err != nil {
			return nil, fmt.Errorf("sprofile: restoring snapshot from %s: %w", path, err)
		}
	}
	replayed, err := store.ReplayTail(func(rec wal.Record) error {
		x, convErr := strconv.Atoi(rec.Key)
		if convErr != nil {
			return fmt.Errorf("sprofile: WAL record key %q is not a dense object id: %w", rec.Key, convErr)
		}
		if rec.Batch {
			dl := Delta{Object: x, Delta: int64(rec.Adds) - int64(rec.Removes), Adds: rec.Adds, Removes: rec.Removes}
			if du, ok := p.(DeltaUpdater); ok {
				return du.ApplyDelta(dl)
			}
			// Batch records are only journaled through the DeltaUpdater fast
			// path, so this expansion runs only when a log is reopened with a
			// profiler weaker than the one that wrote it.
			for i := uint64(0); i < rec.Adds; i++ {
				if err := p.Add(x); err != nil {
					return err
				}
			}
			for i := uint64(0); i < rec.Removes; i++ {
				if err := p.Remove(x); err != nil {
					return err
				}
			}
			return nil
		}
		return p.Apply(Tuple{Object: x, Action: rec.Action})
	})
	if err != nil {
		return nil, fmt.Errorf("sprofile: replaying WAL %s: %w", path, err)
	}
	d := &Durable{reader: p, inner: p, store: store, replayed: replayed, stats: recoveryStats(store.Stats())}
	if policy.Enabled() {
		if _, ok := p.(Snapshotter); !ok {
			return nil, fmt.Errorf("%w: WithCheckpoints needs a snapshottable profiler, got %T", ErrBuildConfig, p)
		}
		d.ckpt = checkpoint.Start(checkpoint.Policy{Every: policy.Every, EveryBytes: policy.EveryBytes},
			d.Checkpoint, store.TailBytes)
	}
	return d, nil
}

// Replayed returns the number of WAL tail records replayed into the profile
// when the Durable was built — with checkpointing, only the records after
// the last snapshot, not the full ingest history.
func (d *Durable) Replayed() int { return d.replayed }

// Recovery returns the full recovery breakdown: what the snapshot restored
// and what the tail replay added.
func (d *Durable) Recovery() RecoveryStats { return d.stats }

// Unwrap returns the journaled inner profiler. Updating it directly bypasses
// the log and must be avoided.
func (d *Durable) Unwrap() Profiler { return d.inner }

// Sync flushes buffered log records to stable storage.
func (d *Durable) Sync() error { return d.store.Sync() }

// Close stops background checkpointing, then flushes and closes the
// write-ahead log. The inner profiler remains usable, but further updates
// through the Durable will fail.
func (d *Durable) Close() error {
	if d.ckpt != nil {
		d.ckpt.Stop()
	}
	return d.store.Close()
}

// CheckpointError returns the outcome of the most recent background
// checkpoint (always nil without WithCheckpoints, or while none has run).
func (d *Durable) CheckpointError() error {
	if d.ckpt == nil {
		return nil
	}
	return d.ckpt.LastError()
}

// Checkpoint writes an atomic snapshot of the profile's current state into
// the WAL directory and deletes the log segments it covers. The inner
// profiler must offer the Snapshotter capability (every non-window variant
// does). Updates are paused only while the log rotates and the in-memory
// state is captured; serialisation and fsync of the snapshot happen outside
// the update path. One checkpoint runs at a time.
func (d *Durable) Checkpoint() error {
	snapper, ok := d.inner.(Snapshotter)
	if !ok {
		return fmt.Errorf("sprofile: %T cannot be checkpointed (no Snapshotter capability): %w", d.inner, errors.ErrUnsupported)
	}
	return d.store.Checkpoint(func() (*checkpoint.State, uint64, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		sealed, err := d.store.Rotate()
		if err != nil {
			return nil, 0, err
		}
		snap, err := snapper.Snapshot()
		if err != nil {
			return nil, 0, err
		}
		return &checkpoint.State{Dense: snap}, sealed, nil
	})
}

// append journals one applied tuple; the caller holds d.mu.
func (d *Durable) append(x int, a Action) (syncDue bool, err error) {
	return d.store.Append(wal.Record{Key: strconv.Itoa(x), Action: a})
}

// Add increments the frequency of object x and journals the event. A
// journaling failure after a successful update is reported as an error even
// though the in-memory profile changed (the same write-behind contract the
// HTTP server uses); Sync/Close errors surface the same divergence.
func (d *Durable) Add(x int) error { return d.update(x, ActionAdd) }

// Remove decrements the frequency of object x and journals the event.
func (d *Durable) Remove(x int) error { return d.update(x, ActionRemove) }

func (d *Durable) update(x int, a Action) error {
	d.mu.Lock()
	err := d.inner.Apply(Tuple{Object: x, Action: a})
	var syncDue bool
	if err == nil {
		syncDue, err = d.append(x, a)
	}
	d.mu.Unlock()
	if err != nil || !syncDue {
		return err
	}
	// The WithWALSyncEvery fsync runs outside the update mutex (group
	// commit), so concurrent producers keep appending while the disk works.
	return d.store.Sync()
}

// AddN raises the frequency of object x by k in one step and journals the
// coalesced event count.
func (d *Durable) AddN(x int, k int64) error {
	if k < 0 {
		return fmt.Errorf("%w: negative add count %d for object %d", ErrOutOfRange, k, x)
	}
	return d.ApplyDelta(Delta{Object: x, Delta: k})
}

// RemoveN lowers the frequency of object x by k in one step and journals the
// coalesced event count.
func (d *Durable) RemoveN(x int, k int64) error {
	if k < 0 {
		return fmt.Errorf("%w: negative remove count %d for object %d", ErrOutOfRange, k, x)
	}
	return d.ApplyDelta(Delta{Object: x, Delta: -k})
}

// ApplyDelta applies one coalesced delta and journals it as a one-entry
// batch record, syncing per the WithWALSyncEvery contract.
func (d *Durable) ApplyDelta(dl Delta) error {
	if dl.Object < 0 || dl.Object >= d.inner.Cap() {
		// Checked here so a no-op delta rejects bad ids exactly like the
		// other DeltaUpdater implementations.
		return fmt.Errorf("%w: id %d, capacity %d", ErrObjectRange, dl.Object, d.inner.Cap())
	}
	adds, removes := dl.Gross()
	if adds == 0 && removes == 0 {
		return nil
	}
	d.mu.Lock()
	err := d.applyDeltaLocked(dl)
	var syncDue bool
	if err == nil {
		d.entries = append(d.entries[:0], wal.BatchEntry{Key: strconv.Itoa(dl.Object), Adds: adds, Removes: removes})
		syncDue, err = d.store.AppendBatch(d.entries)
	}
	d.mu.Unlock()
	if err != nil || !syncDue {
		return err
	}
	return d.store.Sync()
}

// applyDeltaLocked applies one delta to the inner profiler; the caller holds
// d.mu. A profiler without the DeltaUpdater capability (a window adapter,
// which must observe every individual tuple to expire it later) is rejected
// rather than silently expanded: a coalesced delta has already lost the
// intra-batch order a window's ring depends on.
func (d *Durable) applyDeltaLocked(dl Delta) error {
	du, ok := d.inner.(DeltaUpdater)
	if !ok {
		return fmt.Errorf("%w: %T cannot apply coalesced deltas; use the per-event Apply path", ErrBuildConfig, d.inner)
	}
	return du.ApplyDelta(dl)
}

// ApplyDeltas applies a coalesced batch, stopping at the first error, and
// journals the applied prefix as ONE physical write-ahead-log record
// (batches beyond the log's 2^26-entry frame limit span several records,
// each atomic on its own; see wal.Dir.AppendBatch) followed by ONE
// group-commit fsync — the whole point of the bulk path: a 64k-event batch
// that coalesces to a few thousand deltas costs a few thousand block walks,
// one log write and one fsync, instead of 64k of each. It returns the
// number of deltas applied.
//
// Deltas are applied one at a time rather than through the inner profiler's
// own ApplyDeltas: a sharded inner applies a failing batch shard by shard
// (not as a prefix), and the journal must record exactly what was applied.
// The per-delta shard locks this costs are uncontended noise next to the
// fsync; the update mutex serialises durable updates regardless.
func (d *Durable) ApplyDeltas(deltas []Delta) (int, error) {
	d.mu.Lock()
	n := 0
	var applyErr error
	d.entries = d.entries[:0]
	for i := range deltas {
		dl := deltas[i]
		if dl.Object < 0 || dl.Object >= d.inner.Cap() {
			// Range-checked before the no-op skip, matching ApplyDelta and
			// the other DeltaUpdater implementations.
			applyErr = fmt.Errorf("%w: id %d, capacity %d", ErrObjectRange, dl.Object, d.inner.Cap())
			break
		}
		adds, removes := dl.Gross()
		if adds == 0 && removes == 0 {
			n++
			continue
		}
		if applyErr = d.applyDeltaLocked(dl); applyErr != nil {
			break
		}
		n++
		d.entries = append(d.entries, wal.BatchEntry{Key: strconv.Itoa(dl.Object), Adds: adds, Removes: removes})
	}
	var journalErr error
	if len(d.entries) > 0 {
		_, journalErr = d.store.AppendBatch(d.entries)
	}
	d.mu.Unlock()
	if journalErr != nil {
		if syncErr := d.store.Sync(); syncErr != nil {
			return n, fmt.Errorf("sprofile: %d deltas applied but none journaled: %w (and WAL sync failed: %v)", n, journalErr, syncErr)
		}
		return n, fmt.Errorf("sprofile: %d deltas applied but none journaled: %w", n, journalErr)
	}
	if err := d.store.Sync(); err != nil {
		if applyErr != nil {
			return n, fmt.Errorf("sprofile: deltas applied but WAL sync failed: %v (batch stopped early: %w)", err, applyErr)
		}
		return n, fmt.Errorf("sprofile: deltas applied but WAL sync failed: %w", err)
	}
	return n, applyErr
}

// Apply applies one log tuple and journals it.
func (d *Durable) Apply(t Tuple) error {
	if !t.Action.Valid() {
		return errInvalidAction(t.Action)
	}
	return d.update(t.Object, t.Action)
}

// ApplyAll applies tuples through the inner profiler's own batched ApplyAll
// (keeping its lock amortisation), journals the applied prefix, and flushes
// the log once at the end; it returns the number applied and the first error.
// The returned count always reflects the in-memory profile; if journaling
// fails partway, the error reports how many of the applied tuples reached the
// log.
func (d *Durable) ApplyAll(tuples []Tuple) (int, error) {
	d.mu.Lock()
	n, applyErr := d.inner.ApplyAll(tuples)
	for i := 0; i < n; i++ {
		if _, err := d.append(tuples[i].Object, tuples[i].Action); err != nil {
			d.mu.Unlock()
			if syncErr := d.store.Sync(); syncErr != nil {
				return n, fmt.Errorf("sprofile: %d events applied but only %d journaled: %w (and WAL sync failed: %v)", n, i, err, syncErr)
			}
			return n, fmt.Errorf("sprofile: %d events applied but only %d journaled: %w", n, i, err)
		}
	}
	d.mu.Unlock()
	if err := d.store.Sync(); err != nil {
		if applyErr != nil {
			// Keep the apply error inspectable (errors.Is still matches it)
			// alongside the sync failure.
			return n, fmt.Errorf("sprofile: events applied but WAL sync failed: %v (batch stopped early: %w)", err, applyErr)
		}
		return n, fmt.Errorf("sprofile: events applied but WAL sync failed: %w", err)
	}
	return n, applyErr
}

// Query answers a composite query by delegating to the inner profiler's own
// cut-pinning Querier capability (falling back to a snapshot-based cut for
// inner profilers that lack it — see QueryProfiler). The write-ahead log is
// not involved: queries read only in-memory state.
func (d *Durable) Query(q Query) (QueryResult, error) { return QueryProfiler(d.inner, q) }
