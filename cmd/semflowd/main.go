// Command semflowd is the long-running session service: it keeps a table
// of simulation jobs, multiplexes them over a bounded scheduler
// (-max-active sessions step concurrently; the rest wait their turn
// between batches), and deposits every job's artifacts —
// per-step history JSONL, checkpoints, Chrome traces, result summaries —
// in a pluggable store. Submit a flow case over HTTP, poll its status,
// stream its telemetry while it runs, checkpoint it, cancel it, or resume
// a stored session bitwise-exactly where it left off, even across daemon
// restarts:
//
//	semflowd -listen 127.0.0.1:8080 -store ./semflowd-data
//	curl -s localhost:8080/api/sessions -d '{"case":"channel","steps":50}'
//	curl -s localhost:8080/api/sessions/s0001-channel
//	curl -s localhost:8080/api/sessions/s0001-channel/history
//
// A 201 answer to a submit means the job exists: its config is validated
// and stored. Its solver is built afterwards, on the job's runner inside a
// slot, so -max-active also bounds concurrent set-ups; a job still being
// built reads "running" at step 0 (a resume: at its snapshot's step) with an
// empty "precond".
//
// Each session's live routes — the ones the one-shot semflow CLI serves at /
// with -listen — are mounted under it: /api/sessions/{id}/metrics,
// /progress and /stats.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/session"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "host:port to serve the job API on (port 0 picks a free port)")
	storeDSN := flag.String("store", "./semflowd-data", "artifact store: a directory path, file://path, or mem://")
	maxActive := flag.Int("max-active", 2, "sessions allowed to build or step concurrently; queued jobs wait between step batches")
	flag.Parse()
	// Warnings and notes go through slog; the log package's Fatal calls,
	// which SetDefault routes through the same handler, are errors.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	slog.SetLogLoggerLevel(slog.LevelError)

	store, err := session.OpenStore(*storeDSN)
	if err != nil {
		log.Fatal(err)
	}
	mgr := session.NewManager(store, *maxActive)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	// No WriteTimeout: /history streams for as long as the job runs. The two
	// timeouts below bound what a client can hold open without sending.
	srv := &http.Server{
		Handler:           session.HTTPHandler(mgr),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// The resolved address line is the contract scripts parse to find a
	// port-0 server — keep it stable (scripts/ci.sh smoke depends on it).
	fmt.Printf("semflowd: listening on http://%s (store %s, max-active %d)\n",
		ln.Addr(), *storeDSN, *maxActive)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		slog.Info("shutting down", "signal", s.String())
	case err := <-done:
		log.Fatalf("serve: %v", err)
	}
	// Stop accepting requests, then cancel every running job; Close waits
	// for each runner to deposit its artifacts (including a resumable
	// checkpoint) and close its session.
	srv.Close()
	mgr.Close()
	slog.Info("all sessions checkpointed and closed")
}
