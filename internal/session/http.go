package session

// http.go is semflowd's job API: submit a flow case + config, poll status,
// stream per-step StepRecord JSONL and trace artifacts, and scrape
// per-session /metrics and /progress (the same instrument handlers the
// one-shot semflow -listen endpoint serves, mounted per session).
//
//	POST /api/sessions                    {case, steps, ...} or {resume_from, steps}
//	GET  /api/sessions                    list job statuses
//	GET  /api/sessions/{id}               one job's status
//	POST /api/sessions/{id}/cancel        stop at the next step boundary
//	POST /api/sessions/{id}/checkpoint    deposit checkpoint.gob now
//	GET  /api/sessions/{id}/history       per-step JSONL (live while running)
//	GET  /api/sessions/{id}/artifacts     stored artifact names
//	GET  /api/sessions/{id}/artifacts/{name}  one stored artifact
//	GET  /api/sessions/{id}/metrics       per-session Prometheus text
//	GET  /api/sessions/{id}/progress      per-session progress JSON
//	GET  /healthz                         liveness
//
// /history serves the live in-memory series for known jobs (readable mid-
// run — this is the streaming surface) and falls back to the stored
// history.jsonl for sessions from a previous server life.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/instrument"
)

// SubmitRequest is the POST /api/sessions body: either a Config for a new
// session, or ResumeFrom naming a stored session to continue.
type SubmitRequest struct {
	Config
	// ResumeFrom continues a stored session from its latest checkpoint
	// artifact; Steps, when set, replaces the step target.
	ResumeFrom string `json:"resume_from,omitempty"`
}

// maxSubmitBytes bounds the POST /api/sessions body; a larger one is
// answered 413 before any job exists. A Config is a few hundred bytes.
const maxSubmitBytes = 1 << 20

// SubmitResponse is the POST /api/sessions reply.
type SubmitResponse struct {
	ID string `json:"id"`
}

// HTTPHandler serves the job API for a manager.
func HTTPHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	writeErr := func(w http.ResponseWriter, err error) {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrNotFound):
			code = http.StatusNotFound
		case errors.Is(err, ErrClosed):
			code = http.StatusConflict
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}
	job := func(w http.ResponseWriter, r *http.Request) (*Job, bool) {
		id := r.PathValue("id")
		j, ok := m.Get(id)
		if !ok {
			writeErr(w, fmt.Errorf("%w: %s", ErrNotFound, id))
			return nil, false
		}
		return j, true
	}

	mux.HandleFunc("POST /api/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		var j *Job
		var err error
		if req.ResumeFrom != "" {
			j, err = m.ResumeJob(req.ResumeFrom, req.Steps)
		} else {
			j, err = m.Submit(req.Config)
		}
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				writeErr(w, err)
			} else {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			}
			return
		}
		writeJSON(w, http.StatusCreated, SubmitResponse{ID: j.ID})
	})

	mux.HandleFunc("GET /api/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})

	mux.HandleFunc("GET /api/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := job(w, r); ok {
			writeJSON(w, http.StatusOK, j.Status())
		}
	})

	mux.HandleFunc("POST /api/sessions/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := job(w, r); ok {
			j.sess.Cancel()
			writeJSON(w, http.StatusOK, j.Status())
		}
	})

	mux.HandleFunc("POST /api/sessions/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		j, ok := job(w, r)
		if !ok {
			return
		}
		step, err := m.Checkpoint(j.ID)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "step": step, "artifact": ArtifactCheckpoint})
	})

	mux.HandleFunc("GET /api/sessions/{id}/history", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		w.Header().Set("Content-Type", "application/x-ndjson")
		if j, ok := m.Get(id); ok {
			if err := j.sess.History().WriteJSONL(w); err != nil {
				writeErr(w, err)
			}
			return
		}
		b, err := m.Store().Get(id, ArtifactHistory)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Write(b)
	})

	mux.HandleFunc("GET /api/sessions/{id}/artifacts", func(w http.ResponseWriter, r *http.Request) {
		names, err := m.Store().List(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, names)
	})

	mux.HandleFunc("GET /api/sessions/{id}/artifacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		b, err := m.Store().Get(r.PathValue("id"), r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(b)
	})

	mux.HandleFunc("GET /api/sessions/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := job(w, r); ok {
			instrument.MetricsHandler(j.sess.Registry()).ServeHTTP(w, r)
		}
	})

	mux.HandleFunc("GET /api/sessions/{id}/progress", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := job(w, r); ok {
			instrument.ProgressHandler(j.sess.Progress()).ServeHTTP(w, r)
		}
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "semflowd session service\n\n")
		for _, p := range []string{
			"POST /api/sessions", "GET  /api/sessions", "GET  /api/sessions/{id}",
			"POST /api/sessions/{id}/cancel", "POST /api/sessions/{id}/checkpoint",
			"GET  /api/sessions/{id}/history", "GET  /api/sessions/{id}/artifacts",
			"GET  /api/sessions/{id}/artifacts/{name}",
			"GET  /api/sessions/{id}/metrics", "GET  /api/sessions/{id}/progress",
			"GET  /healthz",
		} {
			fmt.Fprintf(w, "  %s\n", p)
		}
	})

	return mux
}
