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

// registerExportRoutes adds the export/import endpoints; called from
// routes().
func (s *Server) registerExportRoutes() {
	// Export and import stream whole-profile NDJSON bodies, so neither is
	// deadline-wrapped (http.TimeoutHandler would buffer the export).
	s.mux.HandleFunc("/v1/export", s.handleExport)
	s.mux.HandleFunc("/v1/import", s.handleImport)
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
	k := s.prof()
	doc := exportDoc{Capacity: k.Cap()}
	var p sprofile.Reader = k.Profile()
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
		key, tracked := k.KeyOf(entry.Object)
		if !tracked {
			continue
		}
		doc.Objects = append(doc.Objects, exportEntry{Object: key, Frequency: entry.Frequency})
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleImport replays an export document into the server's profile through
// the shared chunk applier: each entry becomes frequency add events.
// Existing state is kept; imported counts add on top of it, so import into a
// fresh server for an exact restore.
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
	in := s.startIngest()
	defer in.close()
	for i, e := range doc.Objects {
		if err := checkObject(e.Object); err != nil {
			in.fail(w, fmt.Errorf("import entry %d: %w", i, err))
			return
		}
		if e.Frequency < 0 {
			in.badRequest(w, "import entry %q has negative frequency %d", e.Object, e.Frequency)
			return
		}
		t := sprofile.KeyedTuple[string]{Key: e.Object, Action: sprofile.ActionAdd}
		for n := e.Frequency; n > 0; n-- {
			if err := in.push(t); err != nil {
				in.fail(w, err)
				return
			}
		}
	}
	if err := in.flush(); err != nil {
		in.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"imported": len(doc.Objects)})
}
