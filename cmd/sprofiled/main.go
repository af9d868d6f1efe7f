// Command sprofiled runs the HTTP ingest/query server: producers POST
// (object, action) events and consumers GET the statistics of the profiled
// stream (mode, top-K, quantiles, distribution) at any time.
//
// Usage:
//
//	sprofiled -addr :8080 -capacity 1000000
//
// See internal/server for the API surface.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	// Registers the profiling handlers on http.DefaultServeMux, which only
	// the optional -pprof listener serves; the API mux stays clean.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sprofile"
	"sprofile/internal/failpoint"
	"sprofile/internal/server"
)

// newLogger builds the process logger from the -log-format / -log-level
// flags. JSON output is what log shippers want; text is for humans at a
// terminal. An unknown level or format falls back to info/text with a
// warning rather than refusing to start.
func newLogger(format, level string) *slog.Logger {
	var lvl slog.Level
	badLevel := false
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		lvl = slog.LevelInfo
		badLevel = true
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	badFormat := false
	switch strings.ToLower(format) {
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	case "", "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	default:
		h = slog.NewTextHandler(os.Stderr, opts)
		badFormat = true
	}
	logger := slog.New(h)
	if badLevel {
		logger.Warn("unknown -log-level, using info", "level", level)
	}
	if badFormat {
		logger.Warn("unknown -log-format, using text", "format", format)
	}
	return logger
}

func main() {
	fs := flag.NewFlagSet("sprofiled", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		capacity    = fs.Int("capacity", 1_000_000, "maximum number of concurrently tracked objects; costs 12 B per slot up front (dense profile) plus 8 B per 4096 slots (id map chunk pointers), and 31-41 B per tracked object (an index slot plus a 20 B key-table entry) plus its key's bytes, plus 4 B while its count is zero")
		shards      = fs.Int("shards", 0, "split the profile across this many lock shards (0 = one per CPU)")
		maxBatch    = fs.Int("max-batch", 10_000, "maximum number of events per POST")
		walPath     = fs.String("wal", "", "write-ahead log directory; state is recovered from it on startup (a single-file log from an older version is refused: open it once with commit 3727a8a and checkpoint)")
		ckptEvery   = fs.Duration("checkpoint-every", 0, "snapshot the profile and truncate the WAL on this cadence (0 = disabled; requires -wal)")
		ckptBytes   = fs.Int64("checkpoint-bytes", 0, "additionally checkpoint once the WAL tail exceeds this many bytes (0 = disabled; requires -wal)")
		follow      = fs.String("follow", "", "run as a read-only follower of the leader at this base URL; -wal names the local mirror directory (required). Writes are refused with the leader's address until POST /v1/admin/promote")
		pollWait    = fs.Duration("follow-poll", 0, "long-poll wait per WAL tail fetch in follower mode (0 = 20s default)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) on a listener separate from the API, so hot-path regressions can be profiled in production; empty disables")
		logFormat   = fs.String("log-format", "text", "log output format: text or json")
		logLevel    = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		maxInFlight = fs.Int("max-in-flight", 0, "shed requests beyond this many in flight with 503 (0 = 1024 default, negative disables; /healthz and /metrics are exempt)")
		reqTimeout  = fs.Duration("request-timeout", 0, "per-route response deadline; lapsed requests answer 503 code \"deadline\" (0 = 15s default, negative disables; streaming routes are never bounded)")
		debugFaults = fs.Bool("debug-failpoints", false, "register POST /v1/admin/failpoint for runtime fault injection (chaos rigs and tests only; NEVER in production)")
		drainWait   = fs.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests to drain before the data plane is settled (final checkpoint, WAL close)")
	)
	fs.Parse(os.Args[1:])

	logger := newLogger(*logFormat, *logLevel)
	slog.SetDefault(logger)
	logger.Info("starting", "version", sprofile.Version, "commit", sprofile.Commit)

	// Failpoints armed from the environment work in any build, debug surface
	// or not — the chaos harness and crash-recovery rigs start faulty
	// processes this way.
	if env := os.Getenv(failpoint.EnvVar); env != "" {
		if err := failpoint.ParseEnv(env); err != nil {
			logger.Error("invalid "+failpoint.EnvVar, "err", err)
			os.Exit(1)
		}
		logger.Warn("failpoints armed from environment", "spec", env)
	}

	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			// DefaultServeMux carries only the net/http/pprof handlers; a
			// failure here (port in use, say) must not take the API down.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
	}

	srv, err := server.New(server.Config{
		Capacity:        *capacity,
		Shards:          *shards,
		MaxBatch:        *maxBatch,
		WALPath:         *walPath,
		CheckpointEvery: *ckptEvery,
		CheckpointBytes: *ckptBytes,
		Follow:          *follow,
		FollowPoll:      *pollWait,
		MaxInFlight:     *maxInFlight,
		RequestTimeout:  *reqTimeout,
		DebugFailpoints: *debugFaults,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	if *follow != "" {
		logger.Info("following leader; writes are refused until promoted",
			"leader", *follow, "mirror", *walPath)
	} else if *walPath != "" {
		rec := srv.Recovery()
		if rec.SnapshotSeq > 0 {
			logger.Info("recovered from checkpoint",
				"wal", *walPath,
				"snapshot_seq", rec.SnapshotSeq,
				"snapshot_objects", rec.SnapshotObjects,
				"snapshot_events", rec.SnapshotEvents,
				"tail_entries", rec.TailRecords,
				"tail_segments", rec.TailSegments)
		} else {
			logger.Info("replayed WAL", "wal", *walPath, "entries", srv.Replayed())
		}
	}

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "capacity", *capacity)
		errCh <- httpServer.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		// Drain-ordered shutdown: stop accepting and drain in-flight
		// requests (with a bound, so a stuck client cannot hold the process
		// hostage), then settle the data plane — take a final checkpoint,
		// close the WAL. Order matters: the final checkpoint must cover
		// everything the drained requests acknowledged.
		logger.Info("draining", "timeout", *drainWait)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			logger.Error("drain incomplete; settling the data plane anyway", "err", err)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
			os.Exit(1)
		}
		logger.Info("stopped")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			if cerr := srv.Close(); cerr != nil {
				logger.Error("closing WAL", "err", cerr)
			}
			os.Exit(1)
		}
	}
	fmt.Println()
}
