package sprofile

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"sprofile/internal/checkpoint"
)

// ErrBuildConfig is returned by Build, BuildKeyed and NewKeyedFollower when
// the requested capability combination is invalid or unsupported.
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

// newBuildConfig applies opts to a fresh configuration.
func newBuildConfig(opts []BuildOption) buildConfig {
	var cfg buildConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// journalOption names the first journal option c carries (WithWAL,
// WithWALSyncEvery or WithCheckpoints), or returns "" when it carries none.
// WithWALSyncEvery(0) asks for the default sync cadence and counts as
// absent. Build and NewKeyedFollower refuse every journal option; BuildKeyed
// refuses the other two without WithWAL.
func (c *buildConfig) journalOption() string {
	switch {
	case c.walPath != "":
		return "WithWAL"
	case c.walSyncEvery != 0:
		return "WithWALSyncEvery"
	case c.ckptSet:
		return "WithCheckpoints"
	}
	return ""
}

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

// WithWAL makes a BuildKeyed[string] profile durable: every applied update
// is appended to a write-ahead log, and the log's existing contents are
// replayed into the profile before BuildKeyed returns. path names a
// directory of rotating log segments (plus checkpoint snapshots, when
// WithCheckpoints is also given). A single-file log left at path by an
// older version, or a leftover of its migration, and a directory holding a
// dense-id snapshot both make BuildKeyed fail with an error wrapping
// errors.ErrUnsupported that names the last commit able to read them. Close
// the profile (or call Sync) to flush buffered records to stable storage.
// Build rejects WithWAL: the keyed profile is the one durable profile, and
// it reads a log of dense ids as decimal-string keys.
func WithWAL(path string) BuildOption {
	return func(c *buildConfig) { c.walPath = path }
}

// WithWALSyncEvery fsyncs the write-ahead log after every n appended records
// instead of only at the end of each ApplyBatch, on Sync and on Close.
// BuildKeyed accepts it only together with WithWAL; Build rejects it.
func WithWALSyncEvery(n int) BuildOption {
	return func(c *buildConfig) { c.walSyncEvery = n }
}

// CheckpointPolicy says when a durable keyed profile writes a snapshot and
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
// loads the snapshot and replays only the tail written after it. BuildKeyed
// accepts it only together with WithWAL; Build rejects it. A manual
// checkpoint can always be taken with (*KeyedConcurrent).Checkpoint, with
// or without this option.
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
	// SnapshotObjects is how many keys the snapshot restored without
	// replay.
	SnapshotObjects int
	// SnapshotEvents is the number of add/remove events the snapshot
	// covers — history that did not need replaying.
	SnapshotEvents uint64
	// TailSegments counts the log segments newer than the snapshot.
	// TailRecords counts the entries replayed from them: one per
	// single-event record and one per key of a batch record.
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
//
// Whatever the combination, the result satisfies Profiler, so ingestion and
// query code is written once and the representation can be swapped by
// changing only the Build call. Build profiles live in memory only: the
// journal options WithWAL, WithWALSyncEvery and WithCheckpoints fail with
// ErrBuildConfig, and durable profiles are built with BuildKeyed[string].
func Build(m int, opts ...BuildOption) (Profiler, error) {
	cfg := newBuildConfig(opts)
	if opt := cfg.journalOption(); opt != "" {
		return nil, fmt.Errorf("%w: %s needs a keyed profile; build durable profiles with BuildKeyed[string], which reads a log of dense ids as decimal keys", ErrBuildConfig, opt)
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
