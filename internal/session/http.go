package session

// http.go is the HTTP surface of sessions: Session.Handler, the live routes
// of one run (semflow -listen serves them at /), and HTTPHandler, semflowd's
// job API — submit a flow case + config, poll status, stream per-step
// StepRecord JSONL and trace artifacts, and scrape every session's live
// routes under its id.
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
//	GET  /api/sessions/{id}/stats         per-session instrument.Report JSON
//	GET  /healthz                         liveness
//
// /history serves the live in-memory series for known jobs (readable mid-
// run — this is the streaming surface) and falls back to the stored
// history.jsonl for sessions from a previous server life.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// decodeSubmit reads a submit body strictly: a field the service does not
// know (a knob that was removed, a typo) is an error naming it, not a job
// run without it. Stored config.json artifacts are read leniently
// (ResumeJob), so a session stored with such a field still resumes.
func decodeSubmit(r io.Reader) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// SubmitResponse is the POST /api/sessions reply.
type SubmitResponse struct {
	ID string `json:"id"`
}

// Handler serves the session's live instruments, relative to where it is
// mounted: GET metrics (the registry as Prometheus text), progress (the
// ProgressSnapshot as JSON) and stats (the full instrument.Report as JSON).
// The registry and progress may be updated concurrently: each request
// snapshots them under their own locks.
func (s *Session) Handler() http.Handler {
	serveJSON := func(w http.ResponseWriter, data []byte, err error) {
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := instrument.WritePrometheus(w, s.reg.Report()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /progress", func(w http.ResponseWriter, r *http.Request) {
		data, err := json.MarshalIndent(s.prog.Snapshot(), "", "  ")
		serveJSON(w, data, err)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.reg.Report().JSON()
		serveJSON(w, data, err)
	})
	return mux
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
		case errors.Is(err, ErrClosed), errors.Is(err, errNotStarted):
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
		r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
		req, err := decodeSubmit(r.Body)
		if err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		var j *Job
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

	// Every other GET one level below a session is one of its live routes.
	mux.HandleFunc("GET /api/sessions/{id}/{route}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := job(w, r); ok {
			http.StripPrefix("/api/sessions/"+j.ID, j.sess.Handler()).ServeHTTP(w, r)
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
			"GET  /api/sessions/{id}/stats", "GET  /healthz",
		} {
			fmt.Fprintf(w, "  %s\n", p)
		}
	})

	return mux
}
