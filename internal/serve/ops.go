package serve

import "net/http"

// Cache operations API: fleet operators observe and steer the solver
// cache directly — list what is compiled, expire stale topologies,
// warm a topology ahead of traffic (handleWarm), and pin hot tenants
// against LRU eviction.  Warm + pin is how a batched tenant graduates
// to the cached solo path (see batch.go).

// solversResponse is the JSON shape of GET /v1/solvers.
type solversResponse struct {
	Solvers []solverInfo `json:"solvers"`
}

// handleSolversList reports every cached solver of both kinds, most
// recently used first within each kind.
func (s *Server) handleSolversList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, solversResponse{Solvers: append(s.vc.list(), s.sc.list()...)})
}

// handleSolverDelete expires a cached solver by fingerprint.  The
// fingerprint is unique across kinds (it hashes the instance
// structure), so the endpoint tries both caches.
func (s *Server) handleSolverDelete(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if s.vc.remove(fp) || s.sc.remove(fp) {
		writeJSON(w, http.StatusOK, map[string]string{"expired": fp})
		return
	}
	writeError(w, http.StatusNotFound, "no cached solver for fingerprint %s", fp)
}

// handleSolverPin pins a cached solver against LRU eviction;
// handleSolverUnpin releases the pin (and lets deferred eviction run).
func (s *Server) handleSolverPin(w http.ResponseWriter, r *http.Request) {
	s.setPin(w, r.PathValue("fp"), true)
}

func (s *Server) handleSolverUnpin(w http.ResponseWriter, r *http.Request) {
	s.setPin(w, r.PathValue("fp"), false)
}

func (s *Server) setPin(w http.ResponseWriter, fp string, pinned bool) {
	if s.vc.setPinned(fp, pinned) || s.sc.setPinned(fp, pinned) {
		writeJSON(w, http.StatusOK, map[string]any{"fingerprint": fp, "pinned": pinned})
		return
	}
	writeError(w, http.StatusNotFound, "no cached solver for fingerprint %s", fp)
}

// warmResponse is the JSON shape of the warm endpoints.
type warmResponse struct {
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`
	Cache       string `json:"cache"` // "compile" or "hit"
	Pinned      bool   `json:"pinned"`
}
