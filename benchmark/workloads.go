package main

import (
	"fmt"
	"time"
)

// kind selects the path a workload drives.
type kind int

const (
	// kindCore runs the paper's protocol on an in-process core.Profile.
	kindCore kind = iota
	// kindEvents posts JSON event arrays to /v1/events.
	kindEvents
	// kindBulk streams NDJSON bodies to /v1/events/bulk.
	kindBulk
)

// workload is one traffic mix. The HTTP workloads share the server
// configuration of the durable `sprofiled -wal` deployment (see serverConfig)
// and the paper's 70% add / 30% remove stream.
type workload struct {
	name string
	kind kind
	// body is the number of events per ingest request.
	body int
	// producers is the number of closed-loop ingest connections.
	producers int
	// keys is the size of the key space; zipf selects zipf(s=1.1) over it
	// instead of uniform.
	keys int
	zipf bool
	// preload is the number of events applied before the server starts.
	preload int
	// queryRate is the open-loop composite query rate per second, sent on a
	// connection of its own; zero sends no queries.
	queryRate int
}

// scale holds every size a run uses. fullScale is the benchmark; tinyScale
// keeps the same shape small enough for the smoke test.
type scale struct {
	capacity       int
	uniformKeys    int
	zipfKeys       int
	uniformPreload int
	zipfPreload    int
	warmup         time.Duration
	// Paper protocol: coreM is the m of the mode streams, coreMedianM the m
	// of the median stream, coreTuples the tuples per stream per pass, and
	// corePasses the minimum number of passes.
	coreM       int
	coreMedianM int
	coreTuples  int
	corePasses  int
	// replayShare bounds the traced run's replay phase to this share of the
	// window.
	replayShare float64
}

func fullScale() scale {
	return scale{
		capacity:       1 << 20,
		uniformKeys:    1_000_000,
		zipfKeys:       100_000,
		uniformPreload: 2_000_000,
		zipfPreload:    1_000_000,
		warmup:         3 * time.Second,
		coreM:          1_000_000,
		coreMedianM:    100_000,
		coreTuples:     4_000_000,
		corePasses:     5,
		replayShare:    0.25,
	}
}

func tinyScale() scale {
	return scale{
		capacity:       1 << 12,
		uniformKeys:    2_000,
		zipfKeys:       500,
		uniformPreload: 4_000,
		zipfPreload:    2_000,
		warmup:         20 * time.Millisecond,
		coreM:          2_000,
		coreMedianM:    500,
		coreTuples:     20_000,
		corePasses:     2,
		replayShare:    1,
	}
}

// workloads lists the benchmark's workloads at a scale. The names are the
// ones BENCHMARK.json declares, which also says why each exists.
func workloads(sc scale) []workload {
	return []workload{
		{
			name: "paper-core",
			kind: kindCore,
		},
		{
			name:      "ingest-events-uniform",
			kind:      kindEvents,
			body:      16,
			producers: 2,
			keys:      sc.uniformKeys,
			preload:   sc.uniformPreload,
		},
		{
			name:      "ingest-bulk-zipf",
			kind:      kindBulk,
			body:      4096,
			producers: 2,
			keys:      sc.zipfKeys,
			zipf:      true,
			preload:   sc.zipfPreload,
		},
		{
			name:      "mixed-dashboard",
			kind:      kindBulk,
			body:      1024,
			producers: 1,
			keys:      sc.zipfKeys,
			zipf:      true,
			preload:   sc.zipfPreload,
			queryRate: 200,
		},
	}
}

func findWorkload(sc scale, name string) (workload, error) {
	var names []string
	for _, w := range workloads(sc) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v and all)", name, names)
}
