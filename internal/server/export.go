package server

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"sprofile"
	"sprofile/internal/core"
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

// handleExport dumps every tracked object with a positive frequency, most
// frequent first and ties by object, so the document is canonical for a
// given state; imported into a fresh server it reproduces that state, a
// warm start after a restart. The entries come from one quiesced cut
// (KeyedConcurrent.Entries), so each object carries the frequency it held
// at that instant even while ids are recycled. Filtering and sorting run
// outside the locks.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	k := s.prof()
	entries, err := k.Entries()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading profile: %v", err)
		return
	}
	doc := exportDoc{Capacity: k.Cap(), Objects: make([]exportEntry, 0, len(entries))}
	for _, e := range entries {
		if e.Frequency > 0 { // idle keys contribute nothing
			doc.Objects = append(doc.Objects, exportEntry{Object: e.Key, Frequency: e.Frequency})
		}
	}
	slices.SortFunc(doc.Objects, func(a, b exportEntry) int {
		if c := cmp.Compare(b.Frequency, a.Frequency); c != 0 {
			return c
		}
		return strings.Compare(a.Object, b.Object)
	})
	writeJSON(w, http.StatusOK, doc)
}

// handleImport adds an export document's counts to the server's profile.
// Every entry is validated before any is applied: a negative frequency, or
// one past core.MaxMagnitude, which no profile can hold, refuses the whole
// document. Each entry is then one ApplyDelta of its frequency, the per-key
// step WAL replay takes, so the cost does not grow with the frequencies. As
// in ApplyBatch, an entry that fails (one that would take the profile's
// adds past the bound among them) leaves only itself unapplied, and
// "applied" counts the events of the others, which the bound keeps below
// 2^62. One WAL sync makes the applied entries durable before the answer.
// Existing state is kept; imported counts add on top of it, so import into
// a fresh server for an exact restore.
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
	for i, e := range doc.Objects {
		if err := checkObject(e.Object); err != nil {
			writeIngestError(w, 0, fmt.Errorf("import entry %d: %w", i, err))
			return
		}
		if e.Frequency < 0 {
			writeBadRequest(w, 0, "import entry %q has negative frequency %d", e.Object, e.Frequency)
			return
		}
		if e.Frequency > core.MaxMagnitude {
			writeIngestError(w, 0, fmt.Errorf("%w: import entry %q has frequency %d, past the %d a profile holds",
				sprofile.ErrOutOfRange, e.Object, e.Frequency, int64(core.MaxMagnitude)))
			return
		}
	}
	p := s.prof()
	applied := 0
	var firstErr error
	for _, e := range doc.Objects {
		err := p.ApplyDelta(e.Object, uint64(e.Frequency), 0)
		if err == nil || errors.Is(err, sprofile.ErrWALAppend) {
			applied += int(e.Frequency)
		}
		if errors.Is(err, sprofile.ErrWALAppend) {
			// Applied but not journaled; the log fails every later append.
			writeIngestError(w, applied, err)
			return
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := p.Sync(); err != nil {
		writeIngestError(w, applied, fmt.Errorf("%w: sync: %v", sprofile.ErrWALAppend, err))
		return
	}
	if firstErr != nil {
		writeIngestError(w, applied, firstErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"imported": len(doc.Objects)})
}
