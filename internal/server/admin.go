package server

import (
	"crypto/subtle"
	"errors"
	"net/http"
	"strings"
)

// The admin surface mutates the graph registry at runtime: hot reload,
// load, remove. It is deliberately not part of Handler's default route
// table — mutation does not belong on an open query port. Two mounting
// modes, both used by cmd/ssspd:
//
//   - AdminHandler: the full surface with no auth, for a separate
//     private listener (-admin-addr 127.0.0.1:...). Network reachability
//     is the guard.
//   - Config.AdminToken: mounts the same routes on the main handler,
//     each guarded by a constant-time bearer-token check.

// AdminHandler returns the admin route table (reload, load, remove,
// plus the health/readiness probes an operator pokes alongside them).
// Serve it on a private listener; it performs no authentication.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	s.mountAdmin(mux, nil)
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /v1/graphs", s.instrument("/v1/graphs", s.handleGraphs))
	return mux
}

// mountAdmin registers the admin routes on mux, wrapping each handler
// with guard when non-nil.
func (s *Server) mountAdmin(mux *http.ServeMux, guard func(http.HandlerFunc) http.HandlerFunc) {
	wrap := func(h http.HandlerFunc) http.HandlerFunc {
		if guard != nil {
			return guard(h)
		}
		return h
	}
	mux.HandleFunc("POST /v1/admin/reload", s.instrument("/v1/admin/reload", wrap(s.handleAdminReload)))
	mux.HandleFunc("POST /v1/admin/load", s.instrument("/v1/admin/load", wrap(s.handleAdminLoad)))
	mux.HandleFunc("DELETE /v1/admin/graphs/{name}", s.instrument("/v1/admin/remove", wrap(s.handleAdminRemove)))
}

// requireAdminToken guards an admin handler mounted on the query port:
// the request must carry "Authorization: Bearer <Config.AdminToken>".
// Comparison is constant-time; a missing or wrong token 403s without
// revealing whether the route exists beyond the 403 itself.
func (s *Server) requireAdminToken(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		auth := r.Header.Get("Authorization")
		token, ok := strings.CutPrefix(auth, "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(token), []byte(s.adminToken)) != 1 {
			s.fail(w, http.StatusForbidden, "admin endpoints require a valid bearer token")
			return
		}
		h(w, r)
	}
}

type adminReloadRequest struct {
	Graph string `json:"graph"`
}

// adminGraphResponse reports the outcome of a lifecycle mutation: the
// graph's health record afterward (state, epoch, quarantine error).
type adminGraphResponse struct {
	Graph  string      `json:"graph"`
	Health GraphHealth `json:"health"`
	Error  string      `json:"error,omitempty"`
}

// healthFor extracts one graph's health record (zero value when the
// graph is gone).
func (s *Server) healthFor(name string) GraphHealth {
	for _, h := range s.registry.Health() {
		if h.Name == name {
			return h
		}
	}
	return GraphHealth{Name: name}
}

// handleAdminReload re-reads a graph's source and swaps in a new
// epoch. Queries in flight on the old epoch finish on it; the swap is
// atomic for new queries. Failure quarantines: 422 with the error and
// the health record showing the old epoch still serving.
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	var req adminReloadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Graph == "" {
		s.fail(w, http.StatusBadRequest, "reload needs a graph name")
		return
	}
	err := s.registry.Reload(req.Graph)
	resp := adminGraphResponse{Graph: req.Graph, Health: s.healthFor(req.Graph)}
	switch {
	case err == nil:
		s.logAdmin("reload", req.Graph, resp.Health.Epoch, nil)
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrGraphUnknown):
		s.fail(w, http.StatusNotFound, "unknown graph %q", req.Graph)
	default:
		// Build/validation failure: the old epoch (if any) keeps
		// serving; the health record carries the quarantine details.
		resp.Error = err.Error()
		s.logAdmin("reload", req.Graph, resp.Health.Epoch, err)
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	}
}

// adminLoadRequest carries one graph in the -graph spec grammar
// ("name=snapshot=/path"). Any other field is rejected by decodeBody.
type adminLoadRequest struct {
	Spec string `json:"spec"`
}

// handleAdminLoad registers and loads a new graph at runtime. A spec
// that fails to build answers 422 with the error and leaves nothing
// registered: readiness and health are unchanged, the watcher has
// nothing to re-probe, and a corrected load may reuse the name.
func (s *Server) handleAdminLoad(w http.ResponseWriter, r *http.Request) {
	var req adminLoadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cfg, err := ParseGraphSpec(req.Spec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch err = s.registry.load(cfg, false); {
	case err == nil:
		resp := adminGraphResponse{Graph: cfg.Name, Health: s.healthFor(cfg.Name)}
		s.logAdmin("load", cfg.Name, resp.Health.Epoch, nil)
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrGraphDuplicate):
		s.fail(w, http.StatusConflict, "%v", err)
	default:
		s.logAdmin("load", cfg.Name, 0, err)
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// handleAdminRemove unregisters a graph. In-flight queries finish on
// their pinned epoch; new queries 404.
func (s *Server) handleAdminRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		s.fail(w, http.StatusBadRequest, "remove needs a graph name")
		return
	}
	if !s.registry.Remove(name) {
		s.fail(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	s.logAdmin("remove", name, 0, nil)
	writeJSON(w, http.StatusOK, map[string]string{"graph": name, "status": "removed"})
}

// logAdmin emits one structured log line per lifecycle mutation —
// admin actions are rare and load-bearing, so they always log.
func (s *Server) logAdmin(action, graph string, epoch uint64, err error) {
	if s.logger == nil {
		return
	}
	if err != nil {
		s.logger.Error("admin "+action+" failed", "graph", graph, "err", err.Error())
		return
	}
	s.logger.Info("admin "+action, "graph", graph, "epoch", epoch)
}
