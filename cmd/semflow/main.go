// Command semflow is the production-style driver: it runs one of the
// canonical flow cases (shear layer, TS channel, convection cell, hairpin
// boundary layer) with configurable resolution, filter, projection and
// worker settings, printing per-step solver statistics — the same knobs the
// paper's production code exposes. There is one path: the flags become a
// session.Config, session.Create (or, with -resume, session.Resume from the
// latest snapshot in the -checkpoint directory) builds the run, StepN
// advances it with the per-step report on OnStep, and one set of writers
// emits the artifacts. -ranks P selects the machine, nothing else: 0 steps
// the shared-memory solver, P runs the same time loop as an SPMD program on
// the simulated machine (parrun.Stepper), where -faults degrades the
// machine and -trace carries a per-rank virtual-clock track with the
// traffic of every stepper phase. -checkpoint/-checkpoint-every/-resume,
// -trace (Chrome trace-event JSON, open in Perfetto or chrome://tracing),
// -history (per-step convergence telemetry, JSONL) and -stats work on both.
//
// At scale the observability flags compose: -trace-sample R keeps full
// span tracks for R deterministically chosen ranks while the merged
// histograms still cover every rank, and -listen addr serves the session's
// live routes — /metrics (Prometheus text), /progress and /stats (JSON) —
// with /debug/pprof beside them during the run (-linger keeps the endpoint
// up after it finishes).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on http.DefaultServeMux, beside the session's routes
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/flowcases"
	"repro/internal/ns"
	"repro/internal/parrun"
	"repro/internal/session"
	"repro/internal/solver"
)

func main() {
	caseName := flag.String("case", "shearlayer", "flow case: "+strings.Join(flowcases.CaseNames(), ", "))
	steps := flag.Int("steps", 100, "time steps")
	n := flag.Int("n", 8, "polynomial order")
	nel := flag.Int("nel", 8, "elements per direction (2D cases)")
	kx := flag.Int("kx", 0, "channel case: elements along the channel (0: case default 5); with -ky this sizes the mesh for large -ranks runs")
	ky := flag.Int("ky", 0, "channel case: elements across the channel (0: case default 3)")
	piters := flag.Int("piters", 0, "pressure CG iteration cap (0: case default; a small cap bounds the per-step message volume so large -ranks runs can be traced)")
	alpha := flag.Float64("alpha", 0.3, "filter strength")
	l := flag.Int("L", 20, "pressure projection basis size")
	workers := flag.Int("workers", 2, "element-loop workers of the shared-memory stepper (dual-processor mode analogue)")
	precond := flag.String("precond", "", "pressure preconditioner: schwarz (reference), chebjacobi, chebschwarz, none, or auto (pick per mesh size, order and tolerance from short trial solves, once per process)")
	every := flag.Int("report", 10, "report interval")
	stats := flag.Bool("stats", false, "print the per-phase instrumentation report after the run")
	statsJSON := flag.Bool("stats-json", false, "like -stats, but emit JSON")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	traceSample := flag.Int("trace-sample", 0, "with -ranks: record full virtual span tracks for only this many evenly spaced ranks (0: all); merged histograms still cover every rank, so large -ranks runs stay traceable without -piters")
	listen := flag.String("listen", "", "serve /metrics (Prometheus text), /progress and /stats (JSON) and /debug/pprof live on this host:port during the run (port 0 picks a free port)")
	linger := flag.Duration("linger", 0, "with -listen: keep the endpoint up this long after the run completes")
	ranks := flag.Int("ranks", 0, "run the whole time loop distributed over this many simulated ranks (0: serial shared-memory stepper)")
	faultsPath := flag.String("faults", "", "fault plan JSON degrading the simulated machine: stragglers, link jitter, drops with retry, pauses (requires -ranks)")
	ckptDir := flag.String("checkpoint", "", "write versioned snapshots of the run into this directory")
	ckptEvery := flag.Int("checkpoint-every", 10, "steps between snapshots when -checkpoint is set")
	resume := flag.Bool("resume", false, "continue from the latest snapshot in the -checkpoint directory (same case, resolution and -ranks)")
	historyOut := flag.String("history", "", "write per-step convergence telemetry (JSONL) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	if !slices.Contains(flowcases.CaseNames(), *caseName) {
		fmt.Fprintf(os.Stderr, "unknown case %q\n", *caseName)
		os.Exit(2)
	}
	if *precond != "" && !ns.ValidPrecond(*precond) {
		log.Fatalf("-precond %q: want schwarz, chebjacobi, chebschwarz, none or auto", *precond)
	}

	cfg := session.Config{
		Case: *caseName, Steps: *steps, N: *n, Nel: *nel, KX: *kx, KY: *ky,
		Alpha: *alpha, ProjectionL: *l, PIters: *piters, Workers: *workers,
		Precond: *precond, Ranks: *ranks,
		Trace: *traceOut != "", TraceSample: *traceSample,
	}
	if *faultsPath != "" {
		plan, err := fault.Load(*faultsPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = plan
	}
	var sess *session.Session // assigned below; OnStep only fires during StepN
	nonconverged := 0
	cfg.OnStep = func(st ns.StepStats) {
		if !st.PressureConverged {
			slog.Warn("pressure solve hit the iteration cap",
				"step", st.Step, "iters", st.PressureIters, "res", st.PressureResFinal)
		}
		if !st.PressureConverged || !st.ViscousConverged {
			nonconverged++
		}
		if st.Step%*every != 0 {
			return
		}
		// The last column is what each machine has at hand on every step:
		// the kinetic energy of the shared-memory fields, or the pressure
		// residual (the ranks' fields are only gathered at the end).
		last := st.PressureResFinal
		if *ranks == 0 {
			last = flowcases.KineticEnergy(sess.Solver())
		}
		fmt.Printf("%6d %9.4f %6.2f %8d %8d %8d %12.5e\n",
			st.Step, st.Time, st.CFL, st.PressureIters, st.HelmholtzIters[0],
			st.ProjectionBasis, last)
	}

	var ck *parrun.Checkpoint // nil: a fresh run
	if *resume {
		if *ckptDir == "" {
			log.Fatal("-resume needs -checkpoint DIR to find the snapshots")
		}
		path, err := parrun.LatestCheckpoint(*ckptDir)
		if err != nil {
			log.Fatal(err)
		}
		if path == "" {
			log.Fatalf("-resume: no snapshots in %s", *ckptDir)
		}
		if ck, err = parrun.LoadCheckpoint(path); err != nil {
			log.Fatal(err)
		}
		if ck.Step >= *steps {
			log.Fatalf("-resume: %s is already at step %d, -steps targets %d", path, ck.Step, *steps)
		}
		fmt.Printf("resuming from %s (completed steps: %d)\n", path, ck.Step)
	}
	sess, err := session.Resume(cfg, ck)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	s := sess.Solver()
	reportPrecond(s.PrecondSelection())
	var obs net.Listener
	if *listen != "" {
		if obs, err = net.Listen("tcp", *listen); err != nil {
			log.Fatalf("listen: %v", err)
		}
		defer obs.Close()
		http.Handle("/", sess.Handler())
		go http.Serve(obs, nil) //nolint:errcheck // returns when the listener closes
		// The resolved address (port 0 picks a free port) is what scrapers parse.
		fmt.Printf("observability: listening on http://%s (/metrics /progress /stats /debug/pprof)\n", obs.Addr())
	}
	machine, lastCol := fmt.Sprintf("workers=%d", *workers), "KE"
	if *ranks > 0 {
		machine, lastCol = fmt.Sprintf("ranks=%d (distributed)", *ranks), "p-res"
	}
	fmt.Printf("case=%s  K=%d  N=%d  dofs/component=%d  %s\n",
		*caseName, s.M.K, s.M.N, s.M.K*s.M.Np, machine)
	fmt.Printf("%6s %9s %6s %8s %8s %8s %12s\n",
		"step", "t", "CFL", "p-iters", "h-iters", "basis", lastCol)

	// Step to the target, in one batch or — with -checkpoint — one per
	// snapshot interval: a snapshot is the session's own, taken between two
	// batches, whichever machine is stepping.
	snapEvery, snapshots := 0, 0
	if *ckptDir != "" && *ckptEvery > 0 {
		snapEvery = *ckptEvery
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
	}
	s.Disc().ResetFlops()
	for sess.Step() < *steps {
		batch := *steps - sess.Step()
		if snapEvery > 0 {
			batch = min(batch, snapEvery-sess.Step()%snapEvery)
		}
		if _, err := sess.StepN(batch); err != nil {
			log.Fatalf("step %d: %v", sess.Step()+1, err)
		}
		if snapEvery > 0 && sess.Step()%snapEvery == 0 {
			snap, err := sess.Checkpoint()
			if err == nil {
				err = snap.WriteFile(parrun.CheckpointPath(*ckptDir, snap.Step))
			}
			if err != nil {
				log.Fatalf("checkpoint: %v", err)
			}
			snapshots++
		}
	}
	if nonconverged > 0 {
		slog.Warn("some steps did not converge", "nonconverged", nonconverged, "steps", *steps)
	}
	if res := sess.Distributed(); res != nil {
		if res.P != res.RequestedP {
			slog.Info("rank count clamped (one element minimum per rank)",
				"requested", res.RequestedP, "effective", res.P)
		}
		fmt.Printf("\ndistributed run: P=%d steps=%d virtual=%.3es traffic=%.1fkB/%d msgs cut-edges=%d\n",
			res.P, res.Steps, res.VirtualSeconds,
			float64(res.TotalBytes)/1024, res.TotalMsgs, res.CutEdges)
		if cfg.Faults != nil {
			fmt.Printf("fault recovery: drops=%d retries=%d pauses=%d stall=%.3es (virtual, summed over ranks)\n",
				res.Drops, res.Retries, res.Pauses, res.FaultStallSec)
		}
	} else {
		fmt.Printf("\nmetered flops (every operator of the step): %.3e\n", float64(s.Disc().Flops()))
	}
	if snapshots > 0 {
		fmt.Printf("wrote %d snapshots to %s (every %d steps)\n", snapshots, *ckptDir, snapEvery)
	}

	if tracer := sess.Tracer(); tracer != nil {
		writeArtifact("trace", *traceOut, tracer.WriteJSON)
		fmt.Printf("wrote %d trace events to %s (load in https://ui.perfetto.dev)\n",
			tracer.Len(), *traceOut)
	}
	if *historyOut != "" {
		writeArtifact("history", *historyOut, sess.History().WriteJSONL)
		fmt.Printf("wrote %d per-step telemetry records to %s\n", sess.History().Len(), *historyOut)
	}
	if *stats || *statsJSON {
		rep := sess.Registry().Report()
		if *statsJSON {
			j, err := rep.JSON()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n%s\n", j)
		} else {
			fmt.Printf("\n%s", rep.String())
			if res := sess.Distributed(); res != nil && res.Steps > res.FirstStep {
				calls, n := sess.Registry().Counter("comm/allreduce.calls").Value(), res.P*(res.Steps-res.FirstStep)
				fmt.Printf("\nallreduces per rank and step: %.2f (%d calls, set-up included)\n", float64(calls)/float64(n), calls)
			}
		}
	}
	if obs != nil {
		// Mark the run done on /progress and keep the endpoint up for the
		// linger window so post-run scrapes see the final state.
		snap := sess.Progress().Snapshot()
		snap.Done = true
		sess.Progress().Update(snap)
		if *linger > 0 {
			slog.Info("run complete, endpoint lingering", "addr", obs.Addr().String(), "for", linger.String())
			time.Sleep(*linger)
		}
	}
	if *memprofile != "" {
		runtime.GC()
		writeArtifact("memprofile", *memprofile, pprof.WriteHeapProfile)
	}
}

// writeArtifact creates path and fills it with write, fatally on any error.
func writeArtifact(what, path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		if err = write(f); err == nil {
			err = f.Close()
		}
	}
	if err != nil {
		log.Fatalf("%s: %v", what, err)
	}
}

// reportPrecond prints the resolved pressure preconditioner and, after an
// auto trial tournament, the per-candidate stats: the charged work the
// tournament ranks on, and the wall time beside it.
func reportPrecond(sel solver.PrecondSelection) {
	if sel.Name == "" {
		return
	}
	fmt.Printf("precond: %s (%s)\n", sel.Name, sel.Source)
	for _, tr := range sel.Trials {
		fmt.Printf("  trial %-12s %4d iters  converged=%-5v  flops=%-11d %9.4g/iter  %.3fs\n",
			tr.Name, tr.Iterations, tr.Converged, tr.Flops,
			float64(tr.Flops)/float64(max(tr.Iterations, 1)), tr.Seconds)
	}
}
