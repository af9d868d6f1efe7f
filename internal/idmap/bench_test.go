package idmap

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// BenchmarkStripedLookup times lookups on a two-stripe mapper of 1M keys,
// as the end-to-end benchmark's ingest-events-uniform preloads: DenseID of
// a hit, a key the mapper holds, and Contains of a miss, one it does not
// (DenseID's miss formats an error, which would outweigh the probe), in
// random order and through cloned strings, as keys reach a server in
// requests. The mapper is built once by Load, the restore path, which
// leaves each stripe's index near 3/4 load, and once by one Acquire per
// key, the growth path. grow-after-load times the single growth that the
// first new key after a restore triggers in a stripe of 500k keys; that
// key's writer waits for it with the stripe locked.
func BenchmarkStripedLookup(b *testing.B) {
	const n, stripes = 1_000_000, 2
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = ik(i)
	}
	lookups := func(first int) []string {
		out := make([]string, n)
		for i, k := range rng.Perm(n) {
			out[i] = strings.Clone(ik(first + k))
		}
		return out
	}
	hits, misses := lookups(0), lookups(n)
	for _, build := range []struct {
		name string
		fill func(s *Striped[string])
	}{
		{"load", func(s *Striped[string]) {
			if _, err := loadStriped(s, keys, false); err != nil {
				b.Fatal(err)
			}
		}},
		{"acquire", func(s *Striped[string]) {
			for _, key := range keys {
				if _, _, err := s.Acquire(key); err != nil {
					b.Fatal(err)
				}
			}
		}},
	} {
		b.Run(build.name, func(b *testing.B) {
			s := MustNewStriped[string](1<<20, stripes)
			build.fill(s)
			for _, lookup := range []struct {
				name string
				keys []string
				hit  bool
			}{{"hit", hits, true}, {"miss", misses, false}} {
				b.Run(lookup.name, func(b *testing.B) {
					for i := range b.N {
						key := lookup.keys[i%n]
						if lookup.hit {
							if _, err := s.DenseID(key); err != nil {
								b.Fatal(err)
							}
						} else if s.Contains(key) {
							b.Fatalf("Contains(%q) of a key never acquired", key)
						}
					}
					b.ReportMetric(float64(s.IndexBytes())/n, "index_B/key")
				})
			}
		})
	}
	b.Run("grow-after-load", func(b *testing.B) {
		const perStripe = n / stripes
		s := MustNewStriped[string](perStripe+1, 1)
		if _, err := loadStriped(s, keys[:perStripe], false); err != nil {
			b.Fatal(err)
		}
		loaded, h := s.stripes[0].slots, s.Hash(ik(perStripe))
		for range b.N {
			b.StopTimer()
			ms := &mapStripe{slots: slices.Clone(loaded), used: perStripe}
			b.StartTimer()
			ms.insert(h, perStripe)
			if len(ms.slots) == len(loaded) {
				b.Fatalf("the first new key after a load of %d keys left %d slots", perStripe, len(loaded))
			}
		}
	})
}
