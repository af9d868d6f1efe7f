// Trending: a "most popular live channels right now" dashboard.
//
// Run with:
//
//	go run ./examples/trending
//
// This is the scenario from the paper's introduction: a system with many
// users emits a log stream of enter/exit events for live video channels, and
// the operator wants the most and top-popular channels at any moment.
//
// Two profiles are maintained side by side:
//
//   - an all-time profile over every event seen so far (Keyed, so channels
//     are identified by name rather than by pre-assigned integer ids), and
//   - a sliding-window profile over the most recent events only, which is
//     what "trending" usually means; expiring old events costs one extra O(1)
//     update per push (paper §2.3).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sprofile"
)

const (
	channels    = 200
	totalEvents = 100_000
	windowSize  = 5_000
	reportEvery = 25_000
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// All-time popularity, keyed by channel name.
	allTime, err := sprofile.NewKeyed[string](channels)
	if err != nil {
		log.Fatal(err)
	}

	// Trending = popularity inside a sliding window of recent events. The
	// windowed profile is assembled with Build and queried through the same
	// Profiler interface as any other variant.
	window, err := sprofile.Build(channels, sprofile.Windowed(windowSize))
	if err != nil {
		log.Fatal(err)
	}

	// Channel popularity drifts over time: early on, low-numbered channels
	// dominate; later, a "breaking news" channel takes over. The all-time and
	// windowed views should therefore disagree at the end.
	for i := 0; i < totalEvents; i++ {
		ch := pickChannel(rng, i)
		name := fmt.Sprintf("channel-%03d", ch)

		// 80% of events are viewers entering, 20% leaving.
		if rng.Float64() < 0.8 {
			if err := allTime.Add(name); err != nil {
				log.Fatal(err)
			}
			if err := window.Add(ch); err != nil {
				log.Fatal(err)
			}
		} else {
			// Leaving a channel the windowed profile no longer remembers is
			// fine: frequencies may dip below zero in the dense profile, and
			// the all-time keyed profile just skips unknown channels.
			if f, _ := allTime.Count(name); f > 0 {
				if err := allTime.Remove(name); err != nil {
					log.Fatal(err)
				}
			}
			if err := window.Remove(ch); err != nil {
				log.Fatal(err)
			}
		}

		if (i+1)%reportEvery == 0 {
			report(i+1, allTime, window)
		}
	}
}

// pickChannel models drifting popularity: the hot set moves from the low ids
// to the high ids as the stream progresses.
func pickChannel(rng *rand.Rand, event int) int {
	phase := float64(event) / float64(totalEvents)
	if rng.Float64() < 0.6 {
		// Hot traffic: early on channels 0-9, later channels 190-199.
		hotBase := int(phase * float64(channels-10))
		return hotBase + rng.Intn(10)
	}
	return rng.Intn(channels)
}

func report(event int, allTime *sprofile.Keyed[string], window sprofile.Profiler) {
	fmt.Printf("=== after %d events ===\n", event)

	top, err := allTime.QueryKeys(sprofile.KeyedQuery[string]{TopK: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("all-time top 5:")
	for rank, e := range top.TopK {
		fmt.Printf("  #%d %-12s %6d viewers-net\n", rank+1, e.Key, e.Frequency)
	}

	fmt.Printf("trending top 5 (last %d events):\n", windowSize)
	for rank, e := range window.TopK(5) {
		fmt.Printf("  #%d channel-%03d %6d viewers-net\n", rank+1, e.Object, e.Frequency)
	}

	mode, ties, err := window.Mode()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hottest right now: channel-%03d (net %d, %d tied)\n\n", mode.Object, mode.Frequency, ties)
}
