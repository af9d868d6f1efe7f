package sprofile_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
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

// TestDurableRecoversAcrossRestart is the durability round trip: ingest
// through a WAL-wrapped profiler, close it, rebuild from the same path, and
// require the recovered profile to answer identically.
func TestDurableRecoversAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")

	p1, err := sprofile.Build(32, sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	d1, ok := p1.(*sprofile.Durable)
	if !ok {
		t.Fatalf("Build with WithWAL produced %T, want *sprofile.Durable", p1)
	}
	if d1.Replayed() != 0 {
		t.Fatalf("fresh WAL replayed %d records", d1.Replayed())
	}
	tuples := []sprofile.Tuple{
		{Object: 3, Action: sprofile.ActionAdd},
		{Object: 3, Action: sprofile.ActionAdd},
		{Object: 7, Action: sprofile.ActionAdd},
		{Object: 3, Action: sprofile.ActionRemove},
		{Object: 11, Action: sprofile.ActionAdd},
	}
	if n, err := d1.ApplyAll(tuples); err != nil || n != len(tuples) {
		t.Fatalf("ApplyAll = (%d, %v)", n, err)
	}
	if err := d1.Add(7); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := sprofile.Build(32, sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	d2 := p2.(*sprofile.Durable)
	defer d2.Close()
	if d2.Replayed() != len(tuples)+1 {
		t.Fatalf("Replayed = %d, want %d", d2.Replayed(), len(tuples)+1)
	}
	for _, c := range []struct {
		object int
		want   int64
	}{{3, 1}, {7, 2}, {11, 1}, {0, 0}} {
		got, err := d2.Count(c.object)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("recovered Count(%d) = %d, want %d", c.object, got, c.want)
		}
	}
	if got := d2.Total(); got != 4 {
		t.Errorf("recovered Total = %d, want 4", got)
	}
	mode, _, err := d2.Mode()
	if err != nil {
		t.Fatal(err)
	}
	if mode.Object != 7 || mode.Frequency != 2 {
		t.Errorf("recovered Mode = %+v, want object 7 frequency 2", mode)
	}
}

// TestDurableComposesWithSharding checks that WAL journaling wraps whatever
// representation the other options selected.
func TestDurableComposesWithSharding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.wal")
	p, err := sprofile.Build(64, sprofile.WithSharding(8), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	d := p.(*sprofile.Durable)
	if _, ok := d.Unwrap().(*sprofile.Sharded); !ok {
		t.Fatalf("Unwrap() = %T, want *sprofile.Sharded", d.Unwrap())
	}
	for i := 0; i < 64; i++ {
		if err := d.Add(i % 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := sprofile.Build(64, sprofile.WithSharding(8), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.(*sprofile.Durable).Close()
	if got := p2.Total(); got != 64 {
		t.Fatalf("recovered sharded Total = %d, want 64", got)
	}
}

// TestDurableCheckpointRoundTrip: checkpoint a dense durable profile, append
// a tail, and require recovery to restore the snapshot and replay only the
// tail — with the historical event counters intact.
func TestDurableCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	opts := []sprofile.BuildOption{sprofile.WithSharding(3), sprofile.WithWAL(path)}

	p1, err := sprofile.Build(32, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d1 := p1.(*sprofile.Durable)
	for _, x := range []int{3, 3, 7, 11} {
		if err := d1.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.Remove(11); err != nil {
		t.Fatal(err)
	}
	if err := d1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, x := range []int{7, 19} {
		if err := d1.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := sprofile.Build(32, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d2 := p2.(*sprofile.Durable)
	defer d2.Close()
	if d2.Replayed() != 2 {
		t.Fatalf("Replayed = %d, want 2 (only the post-checkpoint tail)", d2.Replayed())
	}
	rec := d2.Recovery()
	if rec.SnapshotSeq != 1 || rec.SnapshotEvents != 5 || rec.TailRecords != 2 {
		t.Fatalf("Recovery = %+v, want snapshot 1 covering 5 events plus 2 tail records", rec)
	}
	for _, c := range []struct {
		object int
		want   int64
	}{{3, 2}, {7, 2}, {11, 0}, {19, 1}} {
		if got, _ := d2.Count(c.object); got != c.want {
			t.Errorf("recovered Count(%d) = %d, want %d", c.object, got, c.want)
		}
	}
	sum := d2.Summarize()
	if sum.Adds != 6 || sum.Removes != 1 {
		t.Errorf("recovered adds/removes = %d/%d, want 6/1", sum.Adds, sum.Removes)
	}

	// A second checkpoint covering the whole state leaves nothing to replay.
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	p3, err := sprofile.Build(32, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d3 := p3.(*sprofile.Durable)
	defer d3.Close()
	if d3.Replayed() != 0 {
		t.Fatalf("after full checkpoint, Replayed = %d, want 0", d3.Replayed())
	}
	if got := d3.Total(); got != 5 {
		t.Fatalf("recovered Total = %d, want 5", got)
	}
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
// migrated. Every leftover of it refuses to open, under Build and
// BuildKeyed alike, with errors.ErrUnsupported and the last commit that can
// still migrate it.
func TestDurableLegacyWALMigration(t *testing.T) {
	for name, plant := range legacyWALLeftovers(t) {
		for _, b := range []struct {
			api   string
			build func(path string) (io.Closer, error)
		}{
			{"Build", func(path string) (io.Closer, error) {
				p, err := sprofile.Build(8, sprofile.WithWAL(path))
				if err != nil {
					return nil, err
				}
				return p.(*sprofile.Durable), nil
			}},
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
	// A count-window WAL profile still builds, but cannot be checkpointed.
	p, err := sprofile.Build(8, sprofile.Windowed(4), sprofile.WithWAL(filepath.Join(t.TempDir(), "win.wal")))
	if err != nil {
		t.Fatal(err)
	}
	d := p.(*sprofile.Durable)
	defer d.Close()
	if err := d.Checkpoint(); err == nil {
		t.Fatalf("checkpointing a windowed profile succeeded; a frequency snapshot cannot capture the window ring")
	}
}

// TestDurableCheckpointTimeTrigger exercises the interval-based background
// checkpointer end to end on a dense durable profile.
func TestDurableCheckpointTimeTrigger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	p, err := sprofile.Build(8, sprofile.WithSharding(2), sprofile.WithWAL(path),
		sprofile.WithCheckpoints(sprofile.CheckpointPolicy{Every: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	d := p.(*sprofile.Durable)
	defer d.Close()
	for x := 0; x < 8; x++ {
		if err := d.Add(x); err != nil {
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
	p2, err := sprofile.Build(8, sprofile.WithSharding(2), sprofile.WithWAL(path))
	if err != nil {
		t.Fatal(err)
	}
	d2 := p2.(*sprofile.Durable)
	defer d2.Close()
	if d2.Recovery().SnapshotSeq == 0 {
		t.Fatalf("recovery loaded no snapshot: %+v", d2.Recovery())
	}
	if got := d2.Total(); got != 8 {
		t.Fatalf("recovered Total = %d, want 8", got)
	}
}
