package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"time"

	corepythia "github.com/pythia-db/pythia/internal/pythia"
)

// Admin error codes of the JSON error envelope.
const (
	CodeNoSnapshot      = "no_snapshot"
	CodeReloadFailed    = "reload_failed"
	CodeSnapshotCorrupt = "snapshot_corrupt"
)

// reloadRequest is the optional POST /v1/admin/reload body. An absent or
// empty body reloads from the server's configured SnapshotPath.
type reloadRequest struct {
	// Path overrides the configured snapshot file for this reload.
	Path string `json:"path,omitempty"`
}

// reloadResponse reports a completed model swap.
type reloadResponse struct {
	Status     string  `json:"status"`
	Path       string  `json:"path"`
	Generation uint64  `json:"generation"`
	Swaps      uint64  `json:"swaps"`
	Replicas   int     `json:"replicas"`
	DurationMS float64 `json:"duration_ms"`
}

// ReloadSnapshot performs a zero-downtime model swap from a snapshot file
// (pythia.System.Save): every replica of a standby generation decodes the
// snapshot, the standby warms on recently served plans, and the serving
// pointer swings atomically. An empty path uses Options.SnapshotPath. This
// is the programmatic entry behind both POST /v1/admin/reload and
// pythia-serve's SIGHUP handler.
func (s *Server) ReloadSnapshot(path string) (InfStatus, error) {
	if path == "" {
		path = s.opts.SnapshotPath
	}
	if path == "" {
		return InfStatus{}, errNoSnapshot
	}
	f, err := os.Open(path)
	if err != nil {
		return InfStatus{}, err
	}
	defer f.Close()
	if err := s.inf.Swap(f); err != nil {
		return InfStatus{}, err
	}
	return s.inf.Status(), nil
}

// handleReload is POST /v1/admin/reload: swap the serving models from a
// snapshot file without dropping a request. The optional JSON body may name
// a snapshot path; otherwise the server's -snapshot configuration is used.
// Deliberately not wrapped in shed(): an operator must be able to roll
// models on an overloaded server.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST to reload the serving snapshot")
		return
	}
	var req reloadRequest
	body := io.Reader(r.Body)
	if s.opts.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "reload body must be empty or {\"path\": \"...\"}")
		return
	}
	path := req.Path
	if path == "" {
		path = s.opts.SnapshotPath
	}
	start := time.Now()
	st, err := s.ReloadSnapshot(path)
	if err != nil {
		switch {
		case errors.Is(err, errNoSnapshot):
			writeError(w, http.StatusBadRequest, CodeNoSnapshot,
				"no snapshot path configured; pass {\"path\": \"...\"} or start the server with -snapshot")
		case errors.Is(err, corepythia.ErrSnapshotCorrupt), errors.Is(err, corepythia.ErrSnapshotVersion):
			// The swap already rolled back; the old generation keeps serving.
			// 422: the request was well-formed but the named snapshot is not
			// processable — replace the file, not the request.
			writeError(w, http.StatusUnprocessableEntity, CodeSnapshotCorrupt, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, CodeReloadFailed, err.Error())
		}
		return
	}
	writeJSON(w, reloadResponse{
		Status:     "ok",
		Path:       path,
		Generation: st.Generation,
		Swaps:      st.Swaps,
		Replicas:   len(st.Replicas),
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// handleReplicas is GET /v1/admin/replicas: the replica topology snapshot —
// per-replica generation, queue, breaker, cache, and quality state.
func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, s.inf.Status())
}
