package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs                submit one spec or {"jobs": [...]}; ?wait=1
//	                             blocks until settled, ?cancel_on_disconnect=1
//	                             cancels execution if the waiting client goes
//	                             away
//	GET  /v1/jobs/{id}           job status (+ report when done)
//	GET  /v1/jobs/{id}/report    raw report document bytes (the exact stored
//	                             payload — byte-identical across clients)
//	GET  /v1/jobs/{id}/stream    NDJSON progress snapshots, then the final
//	                             status line
//	POST /v1/jobs/{id}/cancel    abort the job's execution
//	GET  /v1/stats               store, execution (runner: dispatched,
//	                             run, singleflight joins) and limiter
//	                             counters
//	GET  /v1/healthz             {"status": "ok" | "draining"}
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// apiError is the JSON error body. Retriable errors (drain, full queue,
// rate limit) tell the client the same request can succeed later.
type apiError struct {
	Error     string `json:"error"`
	Retriable bool   `json:"retriable,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, retriable bool, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Retriable: retriable})
}

// clientKey identifies the caller for rate limiting: the X-UVE-Client
// header when present (lets multiplexed test clients separate), else the
// remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-UVE-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// jobJSON is the wire shape of one job's status. Report embeds the stored
// payload as JSON, not byte for byte: writeJSON's indenting encoder
// re-indents the embedded document to its nesting depth. A client that
// needs the stored bytes fetches GET /v1/jobs/{id}/report, the byte-exact
// path.
type jobJSON struct {
	ID        string          `json:"id"`
	State     JobState        `json:"state"`
	FromStore bool            `json:"from_store,omitempty"`
	Error     string          `json:"error,omitempty"`
	Retriable bool            `json:"retriable,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
}

func toJSON(st JobStatus) jobJSON {
	return jobJSON{
		ID: st.ID, State: st.State, FromStore: st.FromStore,
		Error: st.Error, Retriable: st.Retriable, Report: st.Payload,
	}
}

// submitBody accepts either a single JobSpec or a {"jobs": [...]} batch.
type submitBody struct {
	Jobs []JobSpec `json:"jobs"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.limit.allow(clientKey(r), time.Now()) {
		writeErr(w, http.StatusTooManyRequests, true, "rate limit exceeded")
		return
	}
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, true, "server draining")
		return
	}
	var raw json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		writeErr(w, http.StatusBadRequest, false, "bad request body: %v", err)
		return
	}
	var body submitBody
	if err := json.Unmarshal(raw, &body); err != nil || body.Jobs == nil {
		// Not a batch envelope: try a single spec.
		var spec JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil || spec.Kernel == "" {
			writeErr(w, http.StatusBadRequest, false, "body must be a job spec or {\"jobs\": [...]}")
			return
		}
		body.Jobs = []JobSpec{spec}
	}
	if len(body.Jobs) == 0 {
		writeErr(w, http.StatusBadRequest, false, "empty job list")
		return
	}

	ids := make([]string, 0, len(body.Jobs))
	for i, spec := range body.Jobs {
		id, err := s.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, false, "job %d: %v", i, err)
			return
		}
		ids = append(ids, id)
	}

	wait := r.URL.Query().Get("wait") != ""
	cancelOnDisconnect := r.URL.Query().Get("cancel_on_disconnect") != ""
	out := make([]jobJSON, 0, len(ids))
	for _, id := range ids {
		var st JobStatus
		if wait {
			st, _ = s.Wait(r.Context(), id)
			if r.Context().Err() != nil && cancelOnDisconnect &&
				st.State != StateDone && st.State != StateFailed {
				// The waiting client is gone and asked for its jobs to die
				// with it: cancel and report the final state.
				s.Cancel(id)
				st, _ = s.Wait(context.Background(), id)
			}
		} else {
			st, _ = s.Status(id)
		}
		out = append(out, toJSON(st))
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobJSON `json:"jobs"`
	}{out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, false, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, toJSON(st))
}

// handleReport serves the raw stored payload — the byte-identity surface.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, false, "unknown job %q", r.PathValue("id"))
		return
	}
	if st.State != StateDone {
		writeErr(w, http.StatusConflict, st.State == StateQueued || st.State == StateRunning,
			"job %s is %s, not done", st.ID, st.State)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(st.Payload)
}

// handleStream emits NDJSON: progress snapshots at the polling interval
// (traced jobs only — untraced jobs go straight to the final line), then
// one final line with the settled status and report.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var e *execution
	if ok {
		e = j.exec
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, false, "unknown job %q", id)
		return
	}

	interval := 50 * time.Millisecond
	if ms := r.URL.Query().Get("interval_ms"); ms != "" {
		var v int64
		if _, err := fmt.Sscanf(ms, "%d", &v); err == nil && v > 0 {
			interval = time.Duration(v) * time.Millisecond
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	type streamLine struct {
		Progress *Snapshot `json:"progress,omitempty"`
		Final    *jobJSON  `json:"final,omitempty"`
	}
	emit := func(l streamLine) {
		_ = enc.Encode(l)
		if flusher != nil {
			flusher.Flush()
		}
	}

	if e != nil {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
	poll:
		for {
			select {
			case <-e.done:
				break poll
			case <-r.Context().Done():
				if r.URL.Query().Get("cancel_on_disconnect") != "" {
					s.Cancel(id)
				}
				return
			case <-ticker.C:
				if e.progress != nil {
					snap := e.progress.snapshot()
					emit(streamLine{Progress: &snap})
				}
			}
		}
	}
	st, _ := s.Status(id)
	fin := toJSON(st)
	emit(streamLine{Final: &fin})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Cancel(id) {
		writeErr(w, http.StatusNotFound, false, "unknown job %q", id)
		return
	}
	st, _ := s.Status(id)
	writeJSON(w, http.StatusOK, toJSON(st))
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{status})
}
