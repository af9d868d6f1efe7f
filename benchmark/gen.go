package main

import (
	"math"
	"sort"
	"strconv"

	"sprofile/internal/stream"
)

// addProb is the paper's add share: 70% add, 30% remove.
const addProb = 0.7

// keyTable precomputes the key strings k0000000, k0000001, ... so that
// generating an event costs a draw and a model update, not a format call.
func keyTable(n int) []string {
	keys := make([]string, n)
	buf := make([]byte, 0, 16)
	for i := range keys {
		buf = append(buf[:0], 'k')
		digits := strconv.AppendInt(nil, int64(i), 10)
		for pad := 7 - len(digits); pad > 0; pad-- {
			buf = append(buf, '0')
		}
		keys[i] = string(append(buf, digits...))
	}
	return keys
}

// zipfCDF is the cumulative zipf(s) distribution over n ranks, rank 0 the
// most popular; a draw is one uniform variate and a binary search.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// event is one generated event: a global key id and its action.
type event struct {
	key int32
	add bool
}

// producer generates one closed-loop connection's events. It owns the key
// ids congruent to idx modulo of, and keeps a reference count model of them:
// it removes only keys whose model count is positive, so the server's strict
// mode never legitimately refuses one of its events. A drawn remove of a key
// at zero becomes an add.
type producer struct {
	idx, of int
	own     int
	rng     *stream.RNG
	cdf     []float64 // nil draws uniformly
	counts  []int32   // model count of local key i (global id i*of+idx)

	adds, removes uint64
}

// newProducer returns producer idx of of over a key space of keys ids,
// drawing its own keys uniformly or, with zipf, by zipf(s=1.1) rank.
func newProducer(idx, of, keys int, zipf bool, rng *stream.RNG) *producer {
	own := (keys - idx + of - 1) / of
	p := &producer{idx: idx, of: of, own: own, rng: rng, counts: make([]int32, own)}
	if zipf {
		p.cdf = zipfCDF(own, 1.1)
	}
	return p
}

// draw returns one of the producer's local key indexes from its
// distribution, without touching the model.
func (p *producer) draw() int {
	if p.cdf == nil {
		return p.rng.Intn(p.own)
	}
	return min(sort.SearchFloat64s(p.cdf, p.rng.Float64()), p.own-1)
}

// next draws one event and applies it to the model.
func (p *producer) next() event {
	local := p.draw()
	add := p.rng.Float64() < addProb || p.counts[local] == 0
	if add {
		p.counts[local]++
		p.adds++
	} else {
		p.counts[local]--
		p.removes++
	}
	return event{key: int32(local*p.of + p.idx), add: add}
}

// addEach returns one add of every key the producer owns, applied to the
// model.
func (p *producer) addEach() []event {
	evs := make([]event, p.own)
	for local := range evs {
		p.counts[local]++
		p.adds++
		evs[local] = event{key: int32(local*p.of + p.idx), add: true}
	}
	return evs
}

// fill overwrites dst with the next len(dst) events.
func (p *producer) fill(dst []event) []event {
	for i := range dst {
		dst[i] = p.next()
	}
	return dst
}

// model is the reference state of a workload: the union of its producers'
// disjoint count models.
type model struct {
	prods []*producer
}

// count returns the model count of global key id.
func (m model) count(id int) int64 {
	p := m.prods[id%len(m.prods)]
	return int64(p.counts[id/len(m.prods)])
}

// totals returns the summed count and the add and remove event totals.
func (m model) totals() (total int64, adds, removes uint64) {
	for _, p := range m.prods {
		for _, c := range p.counts {
			total += int64(c)
		}
		adds += p.adds
		removes += p.removes
	}
	return total, adds, removes
}

// topFrequencies returns the k largest model counts in non-increasing order.
func (m model) topFrequencies(k int) []int64 {
	top := make([]int64, 0, k+1)
	for _, p := range m.prods {
		for _, c := range p.counts {
			f := int64(c)
			if len(top) == k && f <= top[k-1] {
				continue
			}
			i := sort.Search(len(top), func(i int) bool { return top[i] < f })
			top = append(top, 0)
			copy(top[i+1:], top[i:])
			top[i] = f
			if len(top) > k {
				top = top[:k]
			}
		}
	}
	return top
}
