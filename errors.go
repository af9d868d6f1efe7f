package sprofile

import (
	"errors"
	"fmt"

	"sprofile/internal/core"
	"sprofile/internal/idmap"
)

// errInvalidAction wraps ErrInvalidAction with the offending value; every
// variant's action-validation path returns it, so the message is uniform.
func errInvalidAction(a Action) error {
	return fmt.Errorf("%w %d", ErrInvalidAction, a)
}

// This file is the package's error taxonomy: every operational error any
// variant returns resolves, via errors.Is, to one of the class roots below,
// and usually also to a more specific sentinel. Callers branch on the closed
// set of classes; the HTTP server maps the same classes onto status codes
// and wire error codes, and the client SDK maps those codes back, so
// errors.Is works identically against a local profile and a remote one.
//
// Class roots (coarse):
//
//	ErrOutOfRange      — an argument outside its domain (object id, rank,
//	                     K parameter, NaN quantile, negative delta count)
//	ErrStrictViolation — an update a strict non-negative profile refused
//	ErrCapExceeded     — more concurrently tracked objects than slots
//	ErrEmptyProfile    — a statistic that needs at least one object slot
//	ErrUnknownKey      — a keyed operation on a key with no dense id
//	ErrInvalidAction   — a log tuple that is neither add nor remove
//	ErrInvalidQuery    — a malformed composite Query
//	ErrReadOnly        — a write sent to a replication follower
//	ErrWALAppend       — applied in memory but not journaled (divergence)
//
// Specific sentinels (fine; each resolves to its class):
//
//	ErrObjectRange       → ErrOutOfRange
//	ErrBadRank           → ErrOutOfRange
//	ErrNegativeFrequency → ErrStrictViolation
//	ErrKeyedFull         → ErrCapExceeded
var (
	// ErrOutOfRange classifies every argument outside its domain: object ids
	// outside [0, m), ranks and K parameters outside [1, m], NaN quantiles,
	// negative AddN/RemoveN counts.
	ErrOutOfRange = core.ErrOutOfRange

	// ErrStrictViolation classifies updates a profile built with
	// WithStrictNonNegative (or with keyed recycling) must refuse because a
	// frequency would drop below zero.
	ErrStrictViolation = core.ErrStrictViolation

	// ErrCapExceeded classifies requests that need more concurrently tracked
	// objects than the profile has slots.
	ErrCapExceeded = core.ErrCapExceeded

	// ErrInvalidAction reports a log tuple whose action is neither ActionAdd
	// nor ActionRemove.
	ErrInvalidAction = core.ErrInvalidAction

	// ErrInvalidQuery reports a malformed composite Query; the offending
	// argument's class (usually ErrOutOfRange) is wrapped alongside it.
	ErrInvalidQuery = core.ErrInvalidQuery

	// ErrReadOnly reports a write sent to a replication follower, which can
	// only be driven by its leader's WAL.
	ErrReadOnly = errors.New("sprofile: profiler view is read-only")

	// ErrStaleRead reports a read refused because the answering follower
	// could not meet the caller's max-staleness bound; retry against the
	// leader or loosen the bound.
	ErrStaleRead = errors.New("sprofile: follower is too stale for this read")

	// ErrDegraded reports a write refused because the node is in degraded
	// read-only mode: its write-ahead log hit a persistent I/O failure
	// (failed fsync, ENOSPC) and the server is refusing writes fast — the
	// event was NOT applied — while a background probe tries to roll the log
	// onto a fresh segment. Reads keep serving throughout. The HTTP server
	// maps it to 503 with code "degraded" and a Retry-After; the client SDK
	// maps that back, treating it as retryable for reads only (a write may
	// land on a node that stays degraded — fail over instead).
	ErrDegraded = errors.New("sprofile: node is degraded (write-ahead log I/O failure); writes refused")

	// ErrShed reports a request refused at admission because the server was
	// at its concurrent-request limit (load shedding, wire code "shed",
	// HTTP 503 with Retry-After). Nothing was applied; back off and retry.
	ErrShed = errors.New("sprofile: server at max in-flight requests")
)

// Specific sentinels. Test with errors.Is; each also matches its class root.
var (
	// ErrObjectRange reports an object id outside [0, m). Resolves to
	// ErrOutOfRange.
	ErrObjectRange = core.ErrObjectRange

	// ErrNegativeFrequency reports a strict-mode removal that would drive a
	// frequency below zero. Resolves to ErrStrictViolation.
	ErrNegativeFrequency = core.ErrNegativeFrequency

	// ErrEmptyProfile reports a statistical query on a profile with no slots.
	ErrEmptyProfile = core.ErrEmptyProfile

	// ErrBadRank reports an out-of-range rank, K or quantile parameter.
	// Resolves to ErrOutOfRange.
	ErrBadRank = core.ErrBadRank

	// ErrBadSnapshot reports a corrupt or incompatible snapshot.
	ErrBadSnapshot = core.ErrBadSnapshot

	// ErrCapacity reports an invalid capacity passed to New.
	ErrCapacity = core.ErrCapacity

	// ErrKeyedFull is returned by keyed Add when every dense id is occupied
	// by a live key and no id can be recycled. Resolves to ErrCapExceeded.
	ErrKeyedFull = idmap.ErrFull

	// ErrUnknownKey is returned by keyed operations on keys that were never
	// added (or whose id has been recycled).
	ErrUnknownKey = idmap.ErrUnknownKey
)

// Package-internal sentinels for construction-time misuse. They are
// programming errors, not operational ones, so they stay unexported — but
// they are still package-level documented sentinels, as the errtaxonomy
// analyzer requires: wire-path code never mints one-off errors.New values
// inside a function body.
var (
	// errNilProfiler reports a constructor handed a nil profiler; returned
	// by NewWindow, NewTimeWindow and NewKeyedOver.
	errNilProfiler = errors.New("sprofile: nil profiler")

	// errNoWAL reports a checkpoint request on a profile built without
	// WithWAL: there is no log to rotate and no store to snapshot into.
	errNoWAL = errors.New("sprofile: profile has no write-ahead log to checkpoint (build with WithWAL)")

	// errFollowerPromoted reports a replication operation on a follower
	// handle after Promote already turned it into a leader.
	errFollowerPromoted = errors.New("sprofile: follower was promoted")
)
