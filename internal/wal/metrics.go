package wal

import (
	"time"

	"sprofile/internal/metrics"
)

// Package-level WAL metric families, registered once at init on the default
// registry. They aggregate across every Dir in the process — the normal
// deployment has exactly one — and each hot-path update is a single atomic
// add, so instrumentation never touches the append mutex.
var (
	mAppends = metrics.Default().Counter("sprofile_wal_appends_total",
		"Records appended to the write-ahead log (batch entries count individually).")
	mAppendedBytes = metrics.Default().Counter("sprofile_wal_appended_bytes_total",
		"Encoded record bytes appended to the write-ahead log.")
	mFsyncs = metrics.Default().Counter("sprofile_wal_fsyncs_total",
		"Record-durability fsyncs issued (group commit keeps this far below batch count).")
	mFsyncSeconds = metrics.Default().Histogram("sprofile_wal_fsync_seconds",
		"Latency of record-durability fsyncs.", metrics.LatencyBuckets())
	mRotations = metrics.Default().Counter("sprofile_wal_segment_rotations_total",
		"Segment rotations (seal + fsync + open next).")
	mReplayed = metrics.Default().Counter("sprofile_wal_replayed_records_total",
		"Entries replayed from segments during recovery or audits: one per single-event record, one per key of a batch record.")
	mRolls = metrics.Default().Counter("sprofile_wal_rolls_total",
		"Poisoned segments rolled away to recover from a persistent I/O failure.")
	mSalvaged = metrics.Default().Counter("sprofile_wal_salvaged_records_total",
		"Applied-but-unacknowledged records a Roll carried from a poisoned segment into its replacement.")
)

// syncTimed runs one durability fsync on f-like sync functions, recording
// count and latency. The time.Now pair costs nanoseconds against an fsync's
// milliseconds, so it is unconditional; the histogram itself honours the
// global enable switch.
func syncTimed(sync func() error) error {
	start := time.Now()
	err := sync()
	if err == nil {
		mFsyncs.Inc()
		mFsyncSeconds.ObserveSince(start)
	}
	return err
}
