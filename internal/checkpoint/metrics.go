package checkpoint

import (
	"sprofile/internal/metrics"
)

// Checkpoint/recovery metric families, registered once at init. Like the WAL
// families they aggregate across every Store in the process.
var (
	mCheckpoints = metrics.Default().CounterVec("sprofile_checkpoints_total",
		"Checkpoint cycles by outcome.", "result")
	mCheckpointsOK     = mCheckpoints.With("ok")
	mCheckpointsErr    = mCheckpoints.With("error")
	mCheckpointSeconds = metrics.Default().Histogram("sprofile_checkpoint_seconds",
		"End-to-end checkpoint duration: capture, serialise, fsync, rename, prune.",
		metrics.ExpBuckets(1e-3, 2, 16))
	mLastCheckpointUnix = metrics.Default().Gauge("sprofile_checkpoint_last_success_unix_seconds",
		"Unix timestamp of the last successful checkpoint (0 = none this process).")
	mSnapshotSeq = metrics.Default().Gauge("sprofile_checkpoint_snapshot_seq",
		"Sequence number of the latest published snapshot.")
	mRecoveryReplayed = metrics.Default().Counter("sprofile_recovery_replayed_records_total",
		"WAL tail entries replayed into profiles at startup (after snapshot restore): one per single-event record, one per key of a batch record.")
	mRecoverySnapshotEvents = metrics.Default().Counter("sprofile_recovery_snapshot_events_total",
		"Events restored from checkpoint snapshots at startup without replay.")
)
