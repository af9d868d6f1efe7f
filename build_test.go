package sprofile_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sprofile"
	"sprofile/internal/wal"
)

func TestBuildVariantTypes(t *testing.T) {
	cases := []struct {
		name string
		opts []sprofile.BuildOption
		want string
	}{
		{"plain", nil, "*core.Profile"},
		{"synchronized", []sprofile.BuildOption{sprofile.Synchronized()}, "*sprofile.Sharded"},
		{"sharded", []sprofile.BuildOption{sprofile.WithSharding(4)}, "*sprofile.Sharded"},
		{"sharded-synchronized", []sprofile.BuildOption{sprofile.WithSharding(4), sprofile.Synchronized()}, "*sprofile.Sharded"},
		{"windowed", []sprofile.BuildOption{sprofile.Windowed(10)}, "*sprofile.Window"},
		{"time-windowed", []sprofile.BuildOption{sprofile.TimeWindowed(time.Hour)}, "*sprofile.TimeWindow"},
	}
	for _, c := range cases {
		p, err := sprofile.Build(16, c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got string
		switch p.(type) {
		case *sprofile.Profile:
			got = "*core.Profile"
		case *sprofile.Sharded:
			got = "*sprofile.Sharded"
		case *sprofile.Window:
			got = "*sprofile.Window"
		case *sprofile.TimeWindow:
			got = "*sprofile.TimeWindow"
		default:
			got = "unknown"
		}
		if got != c.want {
			t.Errorf("%s: Build produced %s, want %s", c.name, got, c.want)
		}
	}
	// Synchronized alone is WithSharding(1).
	if n := sprofile.MustBuild(16, sprofile.Synchronized()).(*sprofile.Sharded).Shards(); n != 1 {
		t.Errorf("Build(Synchronized()) has %d shards, want 1", n)
	}
}

func TestBuildRejectsInvalidCombinations(t *testing.T) {
	invalid := [][]sprofile.BuildOption{
		{sprofile.Windowed(10), sprofile.TimeWindowed(time.Hour)},
		{sprofile.Windowed(10), sprofile.Synchronized()},
		{sprofile.Windowed(10), sprofile.WithSharding(4)},
		{sprofile.TimeWindowed(time.Hour), sprofile.WithSharding(4)},
	}
	for i, opts := range invalid {
		if _, err := sprofile.Build(16, opts...); !errors.Is(err, sprofile.ErrBuildConfig) {
			t.Errorf("case %d: Build = %v, want ErrBuildConfig", i, err)
		}
	}
	if _, err := sprofile.Build(-1); !errors.Is(err, sprofile.ErrCapacity) {
		t.Errorf("Build(-1) = %v, want ErrCapacity", err)
	}
	if _, err := sprofile.Build(16, sprofile.Windowed(0)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Errorf("Build(Windowed(0)) = %v, want ErrBuildConfig", err)
	}
	if _, err := sprofile.Build(16, sprofile.TimeWindowed(-time.Second)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Errorf("Build(TimeWindowed(-1s)) = %v, want ErrBuildConfig", err)
	}
	if _, err := sprofile.Build(16, sprofile.WithSharding(0)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Errorf("Build(WithSharding(0)) = %v, want ErrBuildConfig", err)
	}
	if _, err := sprofile.Build(16, sprofile.WithSharding(-3)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Errorf("Build(WithSharding(-3)) = %v, want ErrBuildConfig", err)
	}
	// WAL replay cannot restore event timestamps, so durable time windows are
	// rejected rather than silently resurrecting expired events on restart.
	if _, err := sprofile.Build(16, sprofile.TimeWindowed(time.Hour), sprofile.WithWAL(filepath.Join(t.TempDir(), "x.wal"))); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Errorf("Build(TimeWindowed, WithWAL) = %v, want ErrBuildConfig", err)
	}
}

func TestBuildStrictOptionPropagates(t *testing.T) {
	for _, opts := range [][]sprofile.BuildOption{
		{sprofile.Strict()},
		{sprofile.Strict(), sprofile.WithSharding(4)},
		{sprofile.Strict(), sprofile.Synchronized()},
		{sprofile.Strict(), sprofile.Windowed(8)},
	} {
		p, err := sprofile.Build(4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Remove(0); !errors.Is(err, sprofile.ErrNegativeFrequency) {
			t.Errorf("strict build %T: Remove at zero = %v, want ErrNegativeFrequency", p, err)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustBuild with invalid config did not panic")
		}
	}()
	sprofile.MustBuild(16, sprofile.Windowed(1), sprofile.TimeWindowed(time.Hour))
}

// legacyWALLeftovers plants, under a fresh WAL path, each leftover of the
// retired single-file SWL1 log, keyed by name: the log itself at the path,
// the staging file of an interrupted migration, and a migrated log whose
// segment 1 still carries the SWL1 header. Each returns the WAL path.
func legacyWALLeftovers(t *testing.T) map[string]func() string {
	t.Helper()
	swl1 := []byte{'S', 'W', 'L', '1', 1, '1', 0} // one add of key "1"
	write := func(path string) {
		if err := os.WriteFile(path, swl1, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]func() string{
		"file at path": func() string {
			path := filepath.Join(t.TempDir(), "events.wal")
			write(path)
			return path
		},
		"staging file": func() string {
			path := filepath.Join(t.TempDir(), "events.wal")
			write(path + ".legacy")
			return path
		},
		"segment header": func() string {
			path := t.TempDir()
			write(filepath.Join(path, wal.SegmentName(1)))
			return path
		},
	}
}

// TestDurableLegacyWALMigration: the single-file SWL1 log is no longer
// migrated. Every leftover of it refuses to open under BuildKeyed with
// errors.ErrUnsupported and the last commit that can still migrate it.
func TestDurableLegacyWALMigration(t *testing.T) {
	for name, plant := range legacyWALLeftovers(t) {
		for _, b := range []struct {
			api   string
			build func(path string) (io.Closer, error)
		}{
			{"BuildKeyed", func(path string) (io.Closer, error) {
				return sprofile.BuildKeyed[string](8, sprofile.WithWAL(path))
			}},
		} {
			c, err := b.build(plant())
			if err == nil {
				c.Close()
				t.Fatalf("%s: %s opened an SWL1 leftover", name, b.api)
			}
			if !errors.Is(err, errors.ErrUnsupported) || !strings.Contains(err.Error(), "3727a8a") {
				t.Fatalf("%s: %s = %v, want errors.ErrUnsupported naming commit 3727a8a", name, b.api, err)
			}
		}
	}
}

func TestWithCheckpointsConfigErrors(t *testing.T) {
	policy := sprofile.CheckpointPolicy{Every: time.Minute}
	if _, err := sprofile.Build(8, sprofile.WithCheckpoints(policy)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("WithCheckpoints without WithWAL = %v, want ErrBuildConfig", err)
	}
	path := filepath.Join(t.TempDir(), "w.wal")
	if _, err := sprofile.Build(8, sprofile.Windowed(4), sprofile.WithWAL(path),
		sprofile.WithCheckpoints(policy)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("WithCheckpoints with Windowed = %v, want ErrBuildConfig", err)
	}
	if _, err := sprofile.BuildKeyed[string](8, sprofile.WithCheckpoints(policy)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("BuildKeyed WithCheckpoints without WithWAL = %v, want ErrBuildConfig", err)
	}
	// A count window cannot be journaled at all: the durable profile is
	// keyed.
	if _, err := sprofile.Build(8, sprofile.Windowed(4), sprofile.WithWAL(filepath.Join(t.TempDir(), "win.wal"))); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("Build(Windowed, WithWAL) = %v, want ErrBuildConfig", err)
	}
}

// TestDurableCheckpointTimeTrigger exercises the interval-based background
// checkpointer (CheckpointPolicy.Every, behind sprofiled -checkpoint-every)
// end to end on a durable keyed profile.
func TestDurableCheckpointTimeTrigger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	d, err := sprofile.BuildKeyed[string](8, sprofile.WithSharding(2), sprofile.WithWAL(path),
		sprofile.WithCheckpoints(sprofile.CheckpointPolicy{Every: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for x := 0; x < 8; x++ {
		if err := d.Add(strconv.Itoa(x)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := d.CheckpointError(); err != nil {
			t.Fatalf("background checkpoint failed: %v", err)
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".sks") {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint after 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := sprofile.BuildKeyed[string](8, sprofile.WithSharding(2), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Recovery().SnapshotSeq == 0 {
		t.Fatalf("recovery loaded no snapshot: %+v", d2.Recovery())
	}
	if got := d2.Total(); got != 8 {
		t.Fatalf("recovered Total = %d, want 8", got)
	}
}

// TestBuildRefusesJournalOptions: Build profiles live in memory only. Each
// journal option fails with ErrBuildConfig naming BuildKeyed, before
// anything is created at the WAL path.
func TestBuildRefusesJournalOptions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	for name, opt := range map[string]sprofile.BuildOption{
		"WithWAL":          sprofile.WithWAL(path),
		"WithWALSyncEvery": sprofile.WithWALSyncEvery(8),
		"WithCheckpoints":  sprofile.WithCheckpoints(sprofile.CheckpointPolicy{EveryBytes: 1 << 20}),
	} {
		p, err := sprofile.Build(16, sprofile.WithSharding(4), opt)
		if !errors.Is(err, sprofile.ErrBuildConfig) || !strings.Contains(err.Error(), "BuildKeyed") {
			t.Fatalf("Build with %s = (%T, %v), want ErrBuildConfig naming BuildKeyed", name, p, err)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused Build touched the WAL path: %v", err)
	}
}

// TestBuildKeyedJournalOptionsRequireWAL: without WithWAL there is no log
// to sync, so WithWALSyncEvery is refused like WithCheckpoints.
func TestBuildKeyedJournalOptionsRequireWAL(t *testing.T) {
	if _, err := sprofile.BuildKeyed[string](16, sprofile.WithWALSyncEvery(8)); !errors.Is(err, sprofile.ErrBuildConfig) {
		t.Fatalf("BuildKeyed with WithWALSyncEvery and no WAL = %v, want ErrBuildConfig", err)
	}
}

// TestDenseLogReadsAsDecimalKeys pins the migration of a log written by the
// retired dense-id profile: without a snapshot it is a valid keyed log
// whose keys are the decimal object ids, single-event and batch records
// alike.
func TestDenseLogReadsAsDecimalKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events.wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	log, err := wal.OpenDir(dir, wal.Options{}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []wal.Record{
		{Key: "0", Action: sprofile.ActionAdd},
		{Key: "1", Action: sprofile.ActionAdd},
		{Key: "2", Action: sprofile.ActionAdd},
		{Key: "2", Action: sprofile.ActionRemove},
	} {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.AppendBatch([]wal.BatchEntry{{Key: "0", Adds: 1}, {Key: "2", Adds: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	k, err := sprofile.BuildKeyed[string](8, sprofile.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	// Replay counts each single event and each batch entry.
	if got := k.Replayed(); got != 6 {
		t.Fatalf("Replayed = %d, want 6", got)
	}
	for key, want := range map[string]int64{"0": 2, "1": 1, "2": 4, "3": 0} {
		if got, err := k.Count(key); err != nil || got != want {
			t.Errorf("Count(%q) = %d, %v; want %d", key, got, err, want)
		}
	}
	if sum := keyedSummary(t, k); sum.Adds != 8 || sum.Removes != 1 {
		t.Errorf("adds/removes = %d/%d, want 8/1", sum.Adds, sum.Removes)
	}
}

// TestFollowerRejectsJournalOptions: a follower replays its mirror itself,
// so a journal option in FollowerConfig.Build is refused. With WithWAL the
// profile used to replay the mirror a second time on resume and double
// every count.
func TestFollowerRejectsJournalOptions(t *testing.T) {
	leader, err := sprofile.BuildKeyed[string](16, sprofile.WithSharding(2), sprofile.WithWAL(filepath.Join(t.TempDir(), "leader")))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for range 3 {
		if err := leader.Add("a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	feed := leader.ReplicationHandler()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/replication/snapshot", feed.ServeSnapshot)
	mux.HandleFunc("/v1/replication/wal", feed.ServeWAL)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	mirror := filepath.Join(t.TempDir(), "mirror")
	follow := func(build ...sprofile.BuildOption) (*sprofile.KeyedFollower, error) {
		return sprofile.NewKeyedFollower(sprofile.FollowerConfig{Capacity: 16, Leader: ts.URL, Dir: mirror, Build: build})
	}
	for name, opt := range map[string]sprofile.BuildOption{
		"WithWAL":          sprofile.WithWAL(mirror),
		"WithWALSyncEvery": sprofile.WithWALSyncEvery(8),
		"WithCheckpoints":  sprofile.WithCheckpoints(sprofile.CheckpointPolicy{EveryBytes: 1 << 20}),
	} {
		kf, err := follow(sprofile.WithSharding(2), opt)
		if err == nil {
			kf.Close()
		}
		if !errors.Is(err, sprofile.ErrBuildConfig) {
			t.Fatalf("NewKeyedFollower with %s in Build = %v, want ErrBuildConfig", name, err)
		}
	}

	// The follower reads the leader's count, and so does a resume over the
	// same mirror.
	for pass := range 2 {
		kf, err := follow(sprofile.WithSharding(2))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = kf.CatchUp(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := kf.Profile().Count("a"); got != 3 {
			t.Fatalf("pass %d: follower reads Count(a) = %d, want 3", pass, got)
		}
		if err := kf.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
