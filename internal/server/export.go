package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"sprofile"
)

// exportEntry is the wire form of one tracked object in an export document.
type exportEntry struct {
	Object    string `json:"object"`
	Frequency int64  `json:"frequency"`
}

// exportDoc is the full state document produced by GET /v1/export and
// consumed by POST /v1/import.
type exportDoc struct {
	Capacity int           `json:"capacity"`
	Objects  []exportEntry `json:"objects"`
}

// rankResponse answers GET /v1/stats/rank.
type rankResponse struct {
	Object     string  `json:"object"`
	Frequency  int64   `json:"frequency"`
	Rank       int     `json:"rank"`       // 1 = most frequent
	Percentile float64 `json:"percentile"` // fraction of slots with frequency <= this object's
}

// registerExportRoutes adds the export/import/rank endpoints; called from
// routes().
func (s *Server) registerExportRoutes() {
	// Export and import stream whole-profile NDJSON bodies, so neither is
	// deadline-wrapped (http.TimeoutHandler would buffer the export).
	s.mux.HandleFunc("/v1/export", s.handleExport)
	s.mux.HandleFunc("/v1/import", s.handleImport)
	s.mux.Handle("/v1/stats/rank", s.deadlineFunc(s.handleRank))
}

// handleExport dumps every tracked object and its frequency. The document can
// be re-imported into a fresh server to warm-start it after a restart. The
// frequencies come from one consistent point-in-time snapshot of the sharded
// profile; the id→key translation happens afterwards, so an object recycled
// mid-export can (rarely) be skipped — re-export during a quiet moment for
// an exact backup.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	doc := exportDoc{Capacity: s.keyed().Cap()}
	var p sprofile.Reader = s.keyed().Profile()
	if snapper, ok := p.(sprofile.Snapshotter); ok {
		snap, err := snapper.Snapshot()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "snapshotting profile: %v", err)
			return
		}
		p = snap
	}
	// Walk ranks from the most frequent downwards; stop once frequencies hit
	// zero (idle and unused slots contribute nothing to the export).
	for rank := 1; rank <= p.Cap(); rank++ {
		entry, err := p.KthLargest(rank)
		if err != nil || entry.Frequency <= 0 {
			break
		}
		key, tracked := s.keyed().KeyOf(entry.Object)
		if !tracked {
			continue
		}
		doc.Objects = append(doc.Objects, exportEntry{Object: key, Frequency: entry.Frequency})
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleImport replays an export document into the server's profile. Existing
// state is kept; imported counts add on top of it, so import into a fresh
// server for an exact restore.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		return
	}
	var doc exportDoc
	if err := decodeOnly(json.NewDecoder(r.Body), &doc); err != nil {
		writeError(w, http.StatusBadRequest, "invalid import document: %v", err)
		return
	}
	imported := 0
	for _, e := range doc.Objects {
		if e.Object == "" {
			writeError(w, http.StatusBadRequest, "import entry %d has an empty object", imported)
			return
		}
		if e.Frequency < 0 {
			writeError(w, http.StatusBadRequest, "import entry %q has negative frequency %d", e.Object, e.Frequency)
			return
		}
		for i := int64(0); i < e.Frequency; i++ {
			if err := s.keyed().Add(e.Object); err != nil {
				writeProfileError(w, fmt.Errorf("importing %q: %w", e.Object, err))
				return
			}
		}
		imported++
	}
	if s.async != nil {
		// An import must report capacity exhaustion synchronously, so drain
		// the plane and surface any deferred apply error here rather than on
		// a later flush.
		if err := s.async.Flush(); err != nil {
			writeProfileError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"imported": imported})
}

// handleRank reports where one object sits in the popularity order: its rank
// among all slots (1 = most frequent) and the fraction of slots at or below
// its frequency.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	object := r.URL.Query().Get("object")
	if object == "" {
		writeError(w, http.StatusBadRequest, "missing object parameter")
		return
	}
	m := s.keyed().Cap()
	if m == 0 {
		// Unreachable today (server.New rejects Capacity <= 0), but kept on
		// the taxonomy funnel so the contract holds if that ever changes.
		writeProfileError(w, sprofile.ErrEmptyProfile)
		return
	}
	f, err := s.keyed().Count(object)
	if err != nil {
		writeProfileError(w, err)
		return
	}
	// The histogram walk costs O(#distinct frequencies) but works against any
	// sprofile.Profiler representation, sharded included.
	atLeast := 0
	for _, fc := range s.keyed().Distribution() {
		if fc.Freq >= f {
			atLeast += fc.Count
		}
	}
	writeJSON(w, http.StatusOK, rankResponse{
		Object:     object,
		Frequency:  f,
		Rank:       atLeast,
		Percentile: float64(m-atLeast) / float64(m),
	})
}
