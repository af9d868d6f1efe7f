package idmap

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// stripedOpsCoverage counts the index and idle-list events a run of
// runStripedOps exercised, so a test can insist the seed corpus reaches
// them.
type stripedOpsCoverage struct {
	growths     int // a stripe's slot array grew
	wrapDeletes int // a deletion's probe run continued past the last slot
	evictions   int // an evicting Acquire took an idle key's id
	midDrops    int // an idle id left its list from before the last position
	loads       int // a Load mapped keys on an empty stripe
	compactions int // a range's pages were compacted
}

// fixedHash stands in for the mapper's seeded maphash in runStripedOps:
// FNV-1a over the key's length and its first 32 bytes, then splitmix64's
// finaliser, which spreads the keys over stripes and slots like a random
// hash but gives the same value on every run.
func fixedHash(key string) uint64 {
	x := uint64(14695981039346656037) ^ uint64(len(key))
	for i := 0; i < min(len(key), 32); i++ {
		x = (x ^ uint64(key[i])) * 1099511628211
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// opKeys holds opKey's answers below 256.
var opKeys = func() []string {
	keys := make([]string, 256)
	for k := range keys {
		key := strconv.Itoa(k)
		switch k % 16 {
		case 3:
			key += strings.Repeat("x", 70_000)
		case 7:
			key += strings.Repeat("y", 5_000)
		case 11:
			key += strings.Repeat("z", 300)
		}
		keys[k] = key
	}
	keys[0] = ""
	return keys
}()

// opKey is the key the ops and loads of these tests call k: its decimal
// form, except that below 256 the empty key (k = 0) and keys of about 300,
// 5,000 and 70,000 bytes mix in. Keys over 4 KiB take a page of their own,
// and releasing one of 70,000 bytes can take its range past the compaction
// threshold by itself.
func opKey(k int) string {
	if k < len(opKeys) {
		return opKeys[k]
	}
	return strconv.Itoa(k)
}

// runStripedOps interprets data as a sequence of operations on a small
// Striped[string] (churnStriped). The first two bytes choose the capacity
// (1..64) and the stripe count (1..8). The mapper hashes with fixedHash,
// so the same data takes the same path on every run and a saved failing
// input reproduces.
func runStripedOps(t *testing.T, data []byte) stripedOpsCoverage {
	if len(data) < 2 {
		return stripedOpsCoverage{}
	}
	s := MustNewStriped[string](1+int(data[0])%64, 1+int(data[1])%8)
	s.hash = fixedHash
	return churnStriped(t, s, make(map[string]int), data[2:])
}

// compactions sums the compactions of s's ranges.
func compactions(s *Striped[string]) int {
	n := 0
	for i := range s.allocs {
		n += s.allocs[i].pages.compactions
	}
	return n
}

// churnStriped applies ops, pairs of an operation and its key, to s, whose
// mapping is model and which has no key marked idle, and checks every
// answer against model and, per stripe, the set of keys marked idle. Keys
// are opKey(k) for k drawn from [0, 2*s.Cap()+1), so at capacity some of
// them are unmapped.
func churnStriped(t *testing.T, s *Striped[string], model map[string]int, ops []byte) stripedOpsCoverage {
	t.Helper()
	var cov stripedOpsCoverage
	capacity := s.Cap()
	idle := make([]map[string]bool, s.NumStripes())
	for si := range idle {
		idle[si] = make(map[string]bool)
	}
	keySpace := 2*capacity + 1

	// wrapsOnDelete reports whether deleting key's slot shifts a probe run
	// that continues past the end of the slot array.
	wrapsOnDelete := func(key string) bool {
		h := s.Hash(key)
		ms := &s.stripes[s.StripeOfHash(h)]
		slot, _ := s.find(ms, key, h)
		if slot < 0 {
			return false
		}
		for j := slot + 1; j < len(ms.slots); j++ {
			if ms.slots[j] == 0 {
				return false
			}
		}
		return ms.slots[0] != 0
	}
	// dropsMidList reports whether unmarking or releasing key takes an id
	// off its idle list from before the list's last position.
	dropsMidList := func(key string) bool {
		id, mapped := model[key]
		p := int(s.keys.word(id)) - idleBase
		return mapped && p >= 0 && p < len(s.stripes[stripeOf(s, key)].idle)-1
	}
	// unmapped drops key from the model after the mapper released it.
	unmapped := func(key string) {
		delete(model, key)
		delete(idle[stripeOf(s, key)], key)
	}
	// expectAcquire checks a non-evicting acquisition of key against the
	// model and records it.
	expectAcquire := func(key string, id int, isNew bool, err error) {
		t.Helper()
		if want, ok := model[key]; ok {
			if err != nil || isNew || id != want {
				t.Fatalf("re-acquire %.20q = (%d, %v, %v), want (%d, false, nil)", key, id, isNew, err, want)
			}
			return
		}
		if len(model) == capacity {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("acquire %.20q at capacity = (%d, %v, %v), want ErrFull", key, id, isNew, err)
			}
			return
		}
		if err != nil || !isNew {
			t.Fatalf("acquire %.20q = (%d, %v, %v), want a fresh id", key, id, isNew, err)
		}
		model[key] = id
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, k := ops[i]%9, int(ops[i+1])%keySpace
		key := opKey(k)
		h := s.Hash(key)
		compacted := compactions(s)
		si := s.StripeOfHash(h)
		before := make([]int, len(s.stripes))
		for j := range s.stripes {
			before[j] = len(s.stripes[j].slots)
		}
		switch op {
		case 0: // Acquire
			id, isNew, err := s.Acquire(key)
			expectAcquire(key, id, isNew, err)
		case 1: // Get, DenseID and Contains
			want, mapped := model[key]
			_ = s.BatchFunc(si, func(txn StripeTxn[string]) error {
				if id, ok := txn.Get(key, h); ok != mapped || (ok && id != want) {
					t.Fatalf("Get(%.20q) = (%d, %v), want (%d, %v)", key, id, ok, want, mapped)
				}
				return nil
			})
			id, err := s.DenseID(key)
			if mapped && (err != nil || id != want) || !mapped && !errors.Is(err, ErrUnknownKey) {
				t.Fatalf("DenseID(%.20q) = (%d, %.40v), model (%d, %v)", key, id, err, want, mapped)
			}
			if s.Contains(key) != mapped {
				t.Fatalf("Contains(%.20q) = %v, want %v", key, !mapped, mapped)
			}
		case 2: // Release, which drops an idle mark
			want, mapped := model[key]
			if mapped && wrapsOnDelete(key) {
				cov.wrapDeletes++
			}
			if dropsMidList(key) {
				cov.midDrops++
			}
			id, err := s.Release(key)
			if mapped && (err != nil || id != want) || !mapped && !errors.Is(err, ErrUnknownKey) {
				t.Fatalf("Release(%.20q) = (%d, %.40v), model (%d, %v)", key, id, err, want, mapped)
			}
			unmapped(key)
		case 3: // Acquire that evicts an idle key of the same stripe when full
			_, mapped := model[key]
			if mapped || len(model) < capacity || len(idle[si]) == 0 {
				var id int
				var isNew bool
				err := s.BatchFunc(si, func(txn StripeTxn[string]) error {
					var err error
					id, isNew, err = txn.Acquire(key, h, true)
					return err
				})
				expectAcquire(key, id, isNew, err)
				break
			}
			ms := &s.stripes[si]
			if wrapsOnDelete(string(s.keyBytes(int(ms.idle[len(ms.idle)-1])))) {
				cov.wrapDeletes++
			}
			var id int
			var isNew bool
			err := s.BatchFunc(si, func(txn StripeTxn[string]) error {
				var err error
				id, isNew, err = txn.Acquire(key, h, true)
				return err
			})
			victim, found := "", false
			for v := range idle[si] {
				if model[v] == id {
					victim, found = v, true
				}
			}
			if err != nil || !isNew || !found {
				t.Fatalf("evicting acquire %.20q = (%d, %v, %v), want the id of one of stripe %d's %d idle keys", key, id, isNew, err, si, len(idle[si]))
			}
			unmapped(victim)
			model[key] = id
			cov.evictions++
		case 4: // a fresh Acquire rolled back in the same transaction
			_, mapped := model[key]
			err := s.BatchFunc(si, func(txn StripeTxn[string]) error {
				id, isNew, err := txn.Acquire(key, h, false)
				if err != nil {
					return err
				}
				if isNew == mapped {
					t.Fatalf("acquire %.20q: isNew=%v with model mapped=%v", key, isNew, mapped)
				}
				if isNew {
					if wrapsOnDelete(key) {
						cov.wrapDeletes++
					}
					txn.Rollback(key, h, id)
				}
				return nil
			})
			if err != nil && (mapped || len(model) < capacity || !errors.Is(err, ErrFull)) {
				t.Fatalf("rolled-back acquire %.20q: %v", key, err)
			}
		case 5: // Load an empty stripe with its keys from key on, up to the free ids
			if s.stripes[si].used > 0 {
				break
			}
			var keys []string
			var hashes []uint64
			var group []int32
			for j := k; j < k+keySpace && len(model)+len(keys) < capacity; j++ {
				lk := opKey(j % keySpace)
				if kh := s.Hash(lk); s.StripeOfHash(kh) == si {
					group = append(group, int32(len(keys)))
					keys, hashes = append(keys, lk), append(hashes, kh)
				}
			}
			ids := make([]int, len(keys))
			err := s.BatchFunc(si, func(txn StripeTxn[string]) error {
				return txn.Load(func(i int) []byte { return []byte(keys[i]) }, hashes, group, ids)
			})
			if err != nil {
				t.Fatalf("Load of stripe %d with %d keys: %v", si, len(keys), err)
			}
			for j, k := range keys {
				model[k] = ids[j]
			}
			if len(keys) > 0 {
				cov.loads++
			}
		case 6, 7: // mark a mapped key idle (6) or active (7)
			id, mapped := model[key]
			if !mapped {
				break
			}
			mark := op == 6
			if !mark && dropsMidList(key) {
				cov.midDrops++
			}
			_ = s.BatchFunc(si, func(txn StripeTxn[string]) error {
				txn.SetIdle(id, mark)
				return nil
			})
			if mark {
				idle[si][key] = true
			} else {
				delete(idle[si], key)
			}
		case 8: // ReleaseIdle: one idle key of the first stripe holding one
			first := -1
			for j := range idle {
				if len(idle[j]) > 0 {
					first = j
					break
				}
			}
			victim, ok := s.ReleaseIdle()
			if ok != (first >= 0) || ok && !idle[first][victim] {
				t.Fatalf("ReleaseIdle = (%.20q, %v), want a key of the first nonempty idle set, stripe %d", victim, ok, first)
			}
			if ok {
				unmapped(victim)
			}
		}
		for j := range s.stripes {
			if len(s.stripes[j].slots) > before[j] && before[j] > 0 {
				cov.growths++
			}
		}
		cov.compactions += compactions(s) - compacted
		checkStriped(t, s, model, idle)
	}
	return cov
}

// checkStriped asserts the mapper agrees with the model and that every
// stripe's index is well formed: used counts the nonzero slots, the load
// stays within 3/4, and each entry is reachable from its probe start. It
// also checks each stripe's idle list against the keys marked idle (idle[si]
// for stripe si; nil when no key is), every id's state word (free for an
// unmapped id, idleBase plus its list position for an idle one, mapped for
// the rest) and each range's pages (checkPages).
func checkStriped(t *testing.T, s *Striped[string], model map[string]int, idle []map[string]bool) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", s.Len(), len(model))
	}
	seen := make(map[int]string)
	s.Range(func(key string, id int) bool {
		if want, ok := model[key]; !ok || want != id {
			t.Fatalf("Range yields (%.20q, %d), model (%d, %v)", key, id, want, ok)
		}
		if other, dup := seen[id]; dup {
			t.Fatalf("id %d bound to %.20q and %.20q", id, other, key)
		}
		seen[id] = key
		if k, ok := s.Key(id); !ok || k != key {
			t.Fatalf("Key(%d) = (%.20q, %v), want %.20q", id, k, ok, key)
		}
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("Range visited %d pairs, model holds %d", len(seen), len(model))
	}
	for id := 0; id < s.Cap(); id++ {
		key, mapped := seen[id]
		w := s.keys.word(id)
		switch {
		case !mapped:
			if _, ok := s.Key(id); ok || w != stateFree {
				t.Fatalf("Key(%d) resolves (%v) or state word %d, but no key holds it", id, ok, w)
			}
		case idle != nil && idle[stripeOf(s, key)][key]:
			if p := int(w) - idleBase; p < 0 || s.stripes[stripeOf(s, key)].idle[p] != int32(id) {
				t.Fatalf("idle key %.20q: id %d's state word %d is not its idle-list position", key, id, w)
			}
		case w != stateMapped:
			t.Fatalf("active key %.20q: id %d's state word is %d, want %d", key, id, w, stateMapped)
		}
	}
	checkPages(t, s, seen)
	for si := range s.stripes {
		ms := &s.stripes[si]
		var want int
		if idle != nil {
			want = len(idle[si])
		}
		if len(ms.idle) != want {
			t.Fatalf("stripe %d: idle list holds %d ids, model marks %d keys idle", si, len(ms.idle), want)
		}
		used := 0
		mask := len(ms.slots) - 1
		for j, e := range ms.slots {
			if e == 0 {
				continue
			}
			used++
			for k := int(e>>32) & mask; k != j; k = (k + 1) & mask {
				if ms.slots[k] == 0 {
					t.Fatalf("stripe %d: slot %d unreachable, empty slot %d in its probe run", si, j, k)
				}
			}
		}
		if used != ms.used || used*4 > len(ms.slots)*3 {
			t.Fatalf("stripe %d: %d slots used, counted %d, table of %d", si, used, ms.used, len(ms.slots))
		}
	}
}

// stripedOpsSeeds are the seed corpus of FuzzStripedOps: a few hand-made
// sequences plus pseudo-random ones that fill small mappers to capacity and
// churn them. Every seed runs checkStriped after each operation, so the
// pseudo-random streams are cut into seeds of at most 100 operations, each
// on a fresh mapper of the stream's shape: the fuzzer minimises each new
// interesting input with work quadratic in its length, and long seeds breed
// long inputs that stall it.
func stripedOpsSeeds() [][]byte {
	seeds := [][]byte{
		{0, 0},
		{7, 3, 0, 1, 0, 2, 2, 1, 1, 1, 4, 5, 3, 9},
		{63, 0, 5, 40, 0, 1, 0, 2, 0, 3, 2, 2, 1, 2},
	}
	// split appends ops, operation and key pairs, as seeds of shape.
	split := func(shape [2]byte, ops []byte) {
		for len(ops) > 0 {
			n := min(len(ops), 2*100)
			seeds = append(seeds, append([]byte{shape[0], shape[1]}, ops[:n]...))
			ops = ops[n:]
		}
	}
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]byte{{63, 0}, {31, 2}, {15, 7}, {40, 3}, {2, 5}}
	// Small single-stripe mappers keep their 8-slot tables near 3/4 load,
	// where deletions often shift a probe run across the end of the array.
	for c := byte(2); c <= 5; c++ {
		shapes = append(shapes, [2]byte{c, 0})
	}
	for _, shape := range shapes {
		var ops []byte
		for i := 0; i < 1500; i++ {
			ops = append(ops, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		split(shape, ops)
	}
	// Idle-list paths by hand: three keys of one stripe go idle, the first
	// is unmarked from the middle of the list, a fourth key evicts, then
	// ReleaseIdle and a Release from the middle of the list.
	seeds = append(seeds, []byte{2, 0, 0, 1, 0, 2, 0, 3, 6, 1, 6, 2, 6, 3, 7, 1, 3, 4, 8, 0, 6, 1, 6, 4, 2, 1})
	// Idle churn at capacity: mostly acquires, evicting acquires and marks.
	ops := []byte{0, 3, 3, 6, 6, 7, 2, 8}
	var churn []byte
	for i := 0; i < 1500; i++ {
		churn = append(churn, ops[rng.Intn(len(ops))], byte(rng.Intn(256)))
	}
	split([2]byte{47, 2}, churn)
	// Compaction by hand, on 2 ids over one stripe, whose keys 1..4 include
	// opKey(3) of 70,000 bytes: it is released; then evicted by key 2 after
	// key 1 fills the mapper; then released by ReleaseIdle. Each time its
	// bytes alone pass the threshold.
	seeds = append(seeds,
		[]byte{1, 0, 0, 3, 2, 3, 0, 3},
		[]byte{1, 0, 0, 3, 0, 1, 6, 3, 3, 2, 1, 3, 1, 2},
		[]byte{1, 0, 0, 3, 6, 3, 8, 0, 0, 4, 0, 3})
	return seeds
}

// FuzzStripedOps is a model-based test of Striped: random Acquire, Get,
// Release, evicting Acquire, Rollback, Load, SetIdle and ReleaseIdle
// sequences over small capacities and 1–8 stripes, on keys from empty to
// 70,000 bytes long, must agree with a plain map and per-stripe idle sets
// at every step, and keep each range's page accounting, compactions
// included.
func FuzzStripedOps(f *testing.F) {
	for _, seed := range stripedOpsSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runStripedOps(t, data)
	})
}

// TestStripedOpsSeedCoverage: the seed corpus FuzzStripedOps runs under go
// test must reach index growth, deletions whose probe run wraps past the end
// of the slot array, evictions, idle ids leaving their list from the
// middle, loads of an empty stripe and page compactions, the paths a small
// random test could miss. The corpus runs twice and must reach exactly the same counts both
// times: a run depends on its input alone.
func TestStripedOpsSeedCoverage(t *testing.T) {
	corpus := func() (total stripedOpsCoverage) {
		for _, seed := range stripedOpsSeeds() {
			cov := runStripedOps(t, seed)
			total.growths += cov.growths
			total.wrapDeletes += cov.wrapDeletes
			total.evictions += cov.evictions
			total.midDrops += cov.midDrops
			total.loads += cov.loads
			total.compactions += cov.compactions
		}
		return total
	}
	total := corpus()
	if total.growths == 0 || total.wrapDeletes == 0 || total.evictions == 0 || total.midDrops == 0 || total.loads == 0 || total.compactions == 0 {
		t.Fatalf("seed corpus reached %+v, want every count > 0", total)
	}
	if again := corpus(); again != total {
		t.Fatalf("two runs of the seed corpus reached %+v and %+v, want the same", total, again)
	}
	t.Logf("%+v", total)
}
