// Live dashboard: concurrent ingestion with periodic statistics snapshots
// and a second pane driven by the /metrics exposition.
//
// Run with:
//
//	go run ./examples/livedashboard
//
// Several producer goroutines ingest (object, add|remove) events into one
// shared durable keyed profile — think one goroutine per Kafka partition of
// a click stream — while two reporter panes run alongside:
//
//   - pane 1 answers ONE composite query per completed batch (mode, p50/p99
//     of the popularity distribution, summary), all from the same instant;
//   - pane 2 polls GET /metrics — the same Prometheus endpoint a scraper
//     would hit — and renders ingest throughput (the rate of
//     sprofile_wal_appends_total) and the fsync p99 (from the
//     sprofile_wal_fsync_seconds histogram buckets).
//
// The metrics pane reads only what any external dashboard could read; it
// holds no reference to the profile at all.
package main

import (
	"bufio"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sprofile"
)

const (
	objects          = 10_000
	producers        = 4
	eventsPerBatch   = 50_000
	batchesPerWorker = 4
)

// scrapeWAL fetches /metrics and extracts the two series pane 2 renders:
// the total WAL appends (one per ingested event on a durable profile) and
// the cumulative fsync histogram buckets.
func scrapeWAL(url string) (appends float64, buckets map[float64]float64, fsyncs float64, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	buckets = make(map[float64]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, perr := strconv.ParseFloat(value, 64)
		if perr != nil {
			continue
		}
		switch {
		case series == "sprofile_wal_appends_total":
			appends = v
		case series == "sprofile_wal_fsync_seconds_count":
			fsyncs = v
		case strings.HasPrefix(series, "sprofile_wal_fsync_seconds_bucket{le=\""):
			le := strings.TrimSuffix(strings.TrimPrefix(series, "sprofile_wal_fsync_seconds_bucket{le=\""), "\"}")
			b, perr := strconv.ParseFloat(le, 64)
			if perr == nil {
				buckets[b] = v
			}
		}
	}
	return appends, buckets, fsyncs, sc.Err()
}

// p99 returns the upper bound of the histogram bucket that contains the
// 99th percentile (the resolution a fixed-bucket histogram offers).
func p99(buckets map[float64]float64) float64 {
	var les []float64
	for le := range buckets {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return math.NaN()
	}
	total := buckets[les[len(les)-1]] // the +Inf bucket holds the count
	if total == 0 {
		return math.NaN()
	}
	target := 0.99 * total
	for _, le := range les {
		if buckets[le] >= target {
			return le
		}
	}
	return math.Inf(1)
}

func main() {
	// A durable synchronized profile: every applied event is appended to a
	// rotating WAL segment, fsynced every 5000 records — which is what makes
	// the WAL families on /metrics move. The log stores string keys, so the
	// objects are the decimal keys "0".."9999", all tracked up front; without
	// key recycling a frequency may go negative, as in the paper.
	walDir, err := os.MkdirTemp("", "livedashboard-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)
	profile, err := sprofile.BuildKeyed[string](objects, sprofile.Synchronized(),
		sprofile.WithoutKeyRecycling(), sprofile.WithWAL(walDir), sprofile.WithWALSyncEvery(5000))
	if err != nil {
		log.Fatal(err)
	}
	keys := make([]string, objects)
	for x := range keys {
		keys[x] = strconv.Itoa(x)
		if err := profile.Track(keys[x]); err != nil {
			log.Fatal(err)
		}
	}

	// Serve the exposition exactly as sprofiled would, on an ephemeral port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", sprofile.MetricsHandler())
	go http.Serve(ln, mux)
	metricsURL := "http://" + ln.Addr().String() + "/metrics"
	fmt.Printf("metrics pane scraping %s\n\n", metricsURL)

	var wg sync.WaitGroup
	batchDone := make(chan int, producers*batchesPerWorker)

	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker + 1)))
			for batch := 0; batch < batchesPerWorker; batch++ {
				for i := 0; i < eventsPerBatch; i++ {
					// Skewed popularity: a small hot set plus a uniform tail.
					var x int
					if rng.Float64() < 0.3 {
						x = rng.Intn(objects / 100)
					} else {
						x = rng.Intn(objects)
					}
					if rng.Float64() < 0.75 {
						_ = profile.Add(keys[x])
					} else {
						_ = profile.Remove(keys[x])
					}
				}
				batchDone <- worker
			}
		}(w)
	}

	// Pane 2: poll /metrics on a fixed cadence and render the ingest rate
	// and the fsync p99 from the scrape alone.
	metricsDone := make(chan struct{})
	stopMetrics := make(chan struct{})
	go func() {
		defer close(metricsDone)
		var lastAppends float64
		lastAt := time.Now()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopMetrics:
				return
			case <-tick.C:
			}
			appends, buckets, fsyncs, err := scrapeWAL(metricsURL)
			if err != nil {
				continue
			}
			now := time.Now()
			rate := (appends - lastAppends) / now.Sub(lastAt).Seconds()
			lastAppends, lastAt = appends, now
			fmt.Printf("  [metrics] ingest %8.0f ev/s | wal appends %8.0f | fsyncs %4.0f | fsync p99 <= %s\n",
				rate, appends, fsyncs, fmtSeconds(p99(buckets)))
		}
	}()

	// Pane 1: after every completed batch, print a dashboard line. The whole
	// line is ONE composite query answered from one quiesced cut, so the
	// mode, both quantiles and the summary always describe the same instant
	// of the stream.
	dashboard := sprofile.KeyedQuery[string]{
		Mode:      true,
		Quantiles: []float64{0.50, 0.99},
		Summary:   true,
	}
	reporterDone := make(chan struct{})
	go func() {
		defer close(reporterDone)
		for i := 0; i < producers*batchesPerWorker; i++ {
			worker := <-batchDone
			res, err := profile.QueryKeys(dashboard)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("batch %2d (worker %d): events=%d mode=obj%-5s freq=%-6d ties=%-4d p50=%-4d p99=%-5d distinct-freqs=%d\n",
				i+1, worker, res.Summary.Adds+res.Summary.Removes, res.Mode.Key, res.Mode.Frequency, res.Mode.Ties,
				res.Quantiles[0].Frequency, res.Quantiles[1].Frequency, res.Summary.DistinctFrequencies)
		}
	}()

	wg.Wait()
	<-reporterDone
	close(stopMetrics)
	<-metricsDone

	// The end-of-run report is one more composite query, so the top 10 and
	// the distribution describe the same final state.
	final, err := profile.QueryKeys(sprofile.KeyedQuery[string]{TopK: 10, Distribution: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfinal top 10 objects:")
	for rank, e := range final.TopK {
		fmt.Printf("  #%2d object %-6s net count %d\n", rank+1, e.Key, e.Frequency)
	}
	dist := final.Distribution
	fmt.Printf("\nfinal distribution spans %d distinct frequencies (min %d, max %d)\n",
		len(dist), dist[0].Freq, dist[len(dist)-1].Freq)

	// One last scrape after Close, when the final fsync has landed.
	if err := profile.Close(); err != nil {
		log.Fatal(err)
	}
	appends, buckets, fsyncs, err := scrapeWAL(metricsURL)
	if err == nil {
		fmt.Printf("\nfinal scrape: %0.f wal appends, %0.f fsyncs, fsync p99 <= %s\n",
			appends, fsyncs, fmtSeconds(p99(buckets)))
	}
}

func fmtSeconds(s float64) string {
	switch {
	case math.IsNaN(s):
		return "n/a"
	case math.IsInf(s, +1):
		return ">max bucket"
	default:
		return time.Duration(s * float64(time.Second)).String()
	}
}
