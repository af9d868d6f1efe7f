package server

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"sprofile"
)

// queryLimit bounds the per-request list arguments of a composite query, and
// the top_k/bottom_k sizes of its answer lists (also ?k= on GET top and
// bottom), so a single request cannot ask for an unbounded amount of work;
// it reuses the server's batch bound.
func (s *Server) queryLimit() int { return s.maxBatch }

// withinQueryLimit reports whether every size is within queryLimit, writing
// a 400 when one is not.
func (s *Server) withinQueryLimit(w http.ResponseWriter, sizes ...int) bool {
	limit := s.queryLimit()
	for _, n := range sizes {
		if n > limit {
			writeError(w, http.StatusBadRequest, "query lists and top/bottom k are bounded to %d entries each", limit)
			return false
		}
	}
	return true
}

// handleQuery answers POST /v1/query: ONE composite, atomic multi-statistic
// query per request. The body is a sprofile.KeyedQuery in JSON — any subset
// of count/mode/min/top_k/bottom_k/kth_largest/median/quantiles/majority/
// distribution/summary — and the response is the matching
// sprofile.KeyedQueryResult, every statistic answered from one quiesced cut
// of the profile (see KeyedConcurrent.QueryKeys). A dashboard that used to
// issue N GETs — and could observe N different profiles under concurrent
// ingest — issues one POST and gets one consistent answer.
//
// Errors follow the taxonomy mapping of errorCode: a malformed selection is
// 400 invalid_query, an unanswerable statistic on an empty profile is 422
// empty_profile.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var q sprofile.KeyedQuery[string]
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := decodeOnly(dec, &q); err != nil {
		writeError(w, http.StatusBadRequest, "invalid query document: %v", err)
		return
	}
	if !s.withinQueryLimit(w, len(q.Count), len(q.Quantiles), len(q.KthLargest), q.TopK, q.BottomK) {
		return
	}
	start := time.Now()
	res, err := s.prof().QueryKeys(q)
	if err != nil {
		writeProfileError(w, err)
		return
	}
	observeQuery(q, start)
	// On replicated deployments the answer carries the staleness watermark of
	// the node that produced it, so the caller can judge it against a
	// freshness budget after the fact (or demand one upfront via the
	// X-Sprofile-Max-Staleness-Ms header).
	res.Replication = s.replicationStatus()
	writeJSON(w, http.StatusOK, res)
}

// entryResponse is the wire form of a single statistics answer.
type entryResponse struct {
	Object    string `json:"object"`
	Frequency int64  `json:"frequency"`
	Ties      int    `json:"ties,omitempty"`
}

// majorityResponse answers GET /v1/stats/majority; Object and Frequency are
// meaningful only when Majority is true.
type majorityResponse struct {
	Object    string `json:"object,omitempty"`
	Frequency int64  `json:"frequency,omitempty"`
	Majority  bool   `json:"majority"`
}

// rankResponse answers GET /v1/stats/rank.
type rankResponse struct {
	Object     string  `json:"object"`
	Frequency  int64   `json:"frequency"`
	Rank       int     `json:"rank"`       // 1 = most frequent
	Percentile float64 `json:"percentile"` // fraction of slots with frequency <= this object's
}

type (
	keyedQuery  = sprofile.KeyedQuery[string]
	keyedResult = sprofile.KeyedQueryResult[string]
)

// statsQuery reads a statistics route's URL parameters into the KeyedQuery
// that answers it; on a bad parameter it writes the 400 itself and reports
// false.
type statsQuery func(s *Server, w http.ResponseWriter, params url.Values) (keyedQuery, bool)

// statsRoutes is the table of GET /v1/stats/* routes. Each is a projection
// of one QueryKeys call: its query, then its render of the answer onto the
// route's wire shape.
var statsRoutes = map[string]struct {
	query  statsQuery
	render func(s *Server, a *keyedResult) any
}{
	"/v1/stats/mode":         {fixed(keyedQuery{Mode: true}), func(_ *Server, a *keyedResult) any { return extreme(a.Mode) }},
	"/v1/stats/min":          {fixed(keyedQuery{Min: true}), func(_ *Server, a *keyedResult) any { return extreme(a.Min) }},
	"/v1/stats/top":          {kQuery(false), func(_ *Server, a *keyedResult) any { return entries(a.TopK) }},
	"/v1/stats/bottom":       {kQuery(true), func(_ *Server, a *keyedResult) any { return entries(a.BottomK) }},
	"/v1/stats/count":        {objectQuery(false), func(_ *Server, a *keyedResult) any { return entry(a.Counts[0]) }},
	"/v1/stats/median":       {fixed(keyedQuery{Median: true}), func(_ *Server, a *keyedResult) any { return entry(*a.Median) }},
	"/v1/stats/quantile":     {quantileQuery, func(_ *Server, a *keyedResult) any { return entry(a.Quantiles[0].KeyedEntry) }},
	"/v1/stats/distribution": {fixed(keyedQuery{Distribution: true}), func(_ *Server, a *keyedResult) any { return a.Distribution }},
	"/v1/stats/majority": {fixed(keyedQuery{Majority: true}), func(_ *Server, a *keyedResult) any {
		if !a.Majority.Majority {
			return majorityResponse{}
		}
		return majorityResponse{Object: a.Majority.Key, Frequency: a.Majority.Frequency, Majority: true}
	}},
	"/v1/stats/summary": {fixed(keyedQuery{Summary: true}), func(s *Server, a *keyedResult) any {
		return map[string]any{
			"capacity":             a.Summary.Capacity,
			"tracked":              s.prof().Tracked(),
			"total":                a.Summary.Total,
			"active":               a.Summary.Active,
			"distinct_frequencies": a.Summary.DistinctFrequencies,
			"max_frequency":        a.Summary.MaxFrequency,
			"min_frequency":        a.Summary.MinFrequency,
			"adds":                 a.Summary.Adds,
			"removes":              a.Summary.Removes,
		}
	}},
	// The object's rank among all slots and the fraction of slots at or
	// below its frequency, from the count and the distribution of one cut
	// (the distribution counts every slot, so its total is the capacity).
	"/v1/stats/rank": {objectQuery(true), func(_ *Server, a *keyedResult) any {
		c := a.Counts[0]
		slots, atLeast := 0, 0
		for _, fc := range a.Distribution {
			slots += fc.Count
			if fc.Freq >= c.Frequency {
				atLeast += fc.Count
			}
		}
		return rankResponse{Object: c.Key, Frequency: c.Frequency, Rank: atLeast,
			Percentile: float64(slots-atLeast) / float64(slots)}
	}},
}

// statsHandler serves one statistics route from one QueryKeys call.
func (s *Server) statsHandler(query statsQuery, render func(*Server, *keyedResult) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		q, ok := query(s, w, r.URL.Query())
		if !ok {
			return
		}
		res, err := s.prof().QueryKeys(q)
		if err != nil {
			writeProfileError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, render(s, &res))
	}
}

// fixed is the query of a route without parameters.
func fixed(q keyedQuery) statsQuery {
	return func(*Server, http.ResponseWriter, url.Values) (keyedQuery, bool) { return q, true }
}

// kQuery reads ?k= into TopK, or BottomK with bottom set: 10 when absent,
// else a positive integer bounded by queryLimit.
func kQuery(bottom bool) statsQuery {
	return func(s *Server, w http.ResponseWriter, params url.Values) (keyedQuery, bool) {
		k := 10
		if raw := params.Get("k"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v <= 0 {
				writeError(w, http.StatusBadRequest, "k must be a positive integer, got %q", raw)
				return keyedQuery{}, false
			}
			if !s.withinQueryLimit(w, v) {
				return keyedQuery{}, false
			}
			k = v
		}
		if bottom {
			return keyedQuery{BottomK: k}, true
		}
		return keyedQuery{TopK: k}, true
	}
}

// objectQuery reads the required ?object= into Count, with the distribution
// too when withDistribution is set.
func objectQuery(withDistribution bool) statsQuery {
	return func(_ *Server, w http.ResponseWriter, params url.Values) (keyedQuery, bool) {
		object := params.Get("object")
		if object == "" {
			writeError(w, http.StatusBadRequest, "missing object parameter")
			return keyedQuery{}, false
		}
		return keyedQuery{Count: []string{object}, Distribution: withDistribution}, true
	}
}

// quantileQuery reads the required ?q= in [0,1]; NaN is refused like any
// other value outside the interval.
func quantileQuery(_ *Server, w http.ResponseWriter, params url.Values) (keyedQuery, bool) {
	raw := params.Get("q")
	q, err := strconv.ParseFloat(raw, 64)
	if err != nil || !(q >= 0 && q <= 1) {
		writeError(w, http.StatusBadRequest, "q must be a number in [0,1], got %q", raw)
		return keyedQuery{}, false
	}
	return keyedQuery{Quantiles: []float64{q}}, true
}

// entry, extreme and entries are the wire forms of the answer's entries.
func entry(e sprofile.KeyedEntry[string]) entryResponse {
	return entryResponse{Object: e.Key, Frequency: e.Frequency}
}

func extreme(e *sprofile.KeyedExtreme[string]) entryResponse {
	return entryResponse{Object: e.Key, Frequency: e.Frequency, Ties: e.Ties}
}

func entries(es []sprofile.KeyedEntry[string]) []entryResponse {
	out := make([]entryResponse, len(es))
	for i, e := range es {
		out[i] = entry(e)
	}
	return out
}
