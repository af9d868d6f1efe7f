package server

import (
	"encoding/json"
	"net/http"
	"time"

	"sprofile"
)

// queryLimit bounds the per-request list arguments of a composite query, and
// the top_k/bottom_k sizes of its answer lists, so a single request cannot
// ask for an unbounded amount of work; it reuses the server's batch bound.
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
// of the profile (see KeyedConcurrent.QueryKeys). It is the server's only
// read route: a dashboard asks for every statistic it shows in one POST, so
// it cannot observe two different profiles under concurrent ingest.
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
