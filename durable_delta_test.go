package sprofile

// Internal tests for the keyed WAL's batch path: they reach into the id
// map to see which stripes a batch spans.

import (
	"path/filepath"
	"strconv"
	"testing"
)

// TestDurableApplyDeltasOneFsync pins the bulk contract: a whole batch
// reaches stable storage with exactly one fsync, however many stripes (and
// so WAL records) its keys span.
func TestDurableApplyDeltasOneFsync(t *testing.T) {
	k, err := BuildKeyed[string](100, WithSharding(4), WithWAL(filepath.Join(t.TempDir(), "wal")))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	fsyncs := func() uint64 {
		st, _ := k.WALStats()
		return st.Fsyncs
	}

	events := make([]KeyedTuple[string], 200)
	stripes := make(map[int]bool)
	for i := range events {
		key := strconv.Itoa(i % 50)
		events[i] = KeyedTuple[string]{Key: key, Action: ActionAdd}
		stripes[k.ids.StripeOfHash(k.ids.Hash(key))] = true
	}
	if len(stripes) < 2 {
		t.Fatalf("batch keys span %d stripes, want several", len(stripes))
	}
	base := fsyncs()
	if n, err := k.ApplyBatch(events); err != nil || n != len(events) {
		t.Fatalf("ApplyBatch: n=%d err=%v", n, err)
	}
	if got := fsyncs() - base; got != 1 {
		t.Fatalf("batch over %d stripes cost %d fsyncs, want exactly 1", len(stripes), got)
	}

	// A second batch costs exactly one more.
	if _, err := k.ApplyBatch([]KeyedTuple[string]{{Key: "3", Action: ActionRemove}, {Key: "4", Action: ActionAdd}}); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs() - base; got != 2 {
		t.Fatalf("two batches cost %d fsyncs, want 2", got)
	}
}

// TestKeyedBatchRejectsUnjournalableKeys: with a WAL, a key the log could
// not record rejects the batch before anything applies — one bad key must
// not void journaling for the valid entries sharing its stripe record.
func TestKeyedBatchRejectsUnjournalableKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	k, err := BuildKeyed[string](16, WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	huge := string(make([]byte, (1<<20)+1))
	n, err := k.ApplyBatch([]KeyedTuple[string]{
		{Key: "fine", Action: ActionAdd},
		{Key: huge, Action: ActionAdd},
	})
	if err == nil || n != 0 {
		t.Fatalf("oversized key in batch: n=%d err=%v", n, err)
	}
	if f, _ := k.Count("fine"); f != 0 {
		t.Fatalf("rejected batch applied a valid entry: %d", f)
	}
	if err := k.ApplyDelta(huge, 1, 0); err == nil {
		t.Fatal("oversized key accepted by ApplyDelta")
	}
	// Without a WAL any comparable key is fine.
	plain := MustBuildKeyed[string](16)
	if _, err := plain.ApplyBatch([]KeyedTuple[string]{{Key: huge, Action: ActionAdd}}); err != nil {
		t.Fatalf("in-memory profile rejected a large key: %v", err)
	}
}
