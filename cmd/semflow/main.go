// Command semflow is the production-style driver: it runs one of the
// canonical flow cases (shear layer, TS channel, convection cell, hairpin
// boundary layer) with configurable resolution, filter and projection
// settings, printing per-step solver statistics — the same knobs the
// paper's production code exposes. There is one path: the flags fill one
// session.Config, session.Create (or, with -resume, session.Resume from the
// snapshot in the -checkpoint store) validates it and builds the run, StepN
// advances it with the per-step report on OnStep, and one set of writers
// emits the artifacts. -ranks P selects the machine, nothing else: 0 steps
// the shared-memory solver, P runs the same time loop as an SPMD program on
// the simulated machine (parrun.Stepper), where -faults degrades the
// machine and -trace carries a per-rank virtual-clock track with the
// traffic of every stepper phase. -checkpoint/-checkpoint-every/-resume,
// -trace (Chrome trace-event JSON, open in Perfetto or chrome://tracing),
// -history (per-step convergence telemetry, JSONL) and -stats work on both.
// -checkpoint snapshots every -checkpoint-every steps and after the last
// (0: the last only), so a finished run can be extended with -resume.
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
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/flowcases"
	"repro/internal/ns"
	"repro/internal/parrun"
	"repro/internal/session"
)

func main() {
	var cfg session.Config
	flag.StringVar(&cfg.Case, "case", "shearlayer", "flow case: "+strings.Join(session.CaseNames(), ", "))
	flag.IntVar(&cfg.Steps, "steps", 100, "time steps")
	flag.IntVar(&cfg.N, "n", 0, "polynomial order (unset: the case's)")
	flag.IntVar(&cfg.Nel, "nel", 0, "elements per direction, shearlayer and convection (unset: the case's)")
	flag.IntVar(&cfg.KX, "kx", 0, "channel: elements along the channel (unset: the case's); with -ky this sizes the mesh for large -ranks runs")
	flag.IntVar(&cfg.KY, "ky", 0, "channel: elements across the channel (unset: the case's)")
	flag.IntVar(&cfg.PIters, "piters", 0, "pressure CG iteration cap (0: case default; a small cap bounds the per-step message volume so large -ranks runs can be traced)")
	flag.Func("alpha", "filter strength, 0 (unfiltered) to 1 (unset: the case's)", func(v string) error {
		a, err := strconv.ParseFloat(v, 64)
		cfg.Alpha = &a
		return err
	})
	flag.IntVar(&cfg.ProjectionL, "L", 0, "pressure projection basis size, -1 for no projection (unset: the case's)")
	flag.StringVar(&cfg.Precond, "precond", "", "pressure preconditioner: schwarz (reference), chebjacobi, chebschwarz, none, or auto (pick per mesh size, order and tolerance from short trial solves of schwarz and chebschwarz, once per process)")
	every := flag.Int("report", 10, "report interval")
	stats := flag.Bool("stats", false, "print the per-phase instrumentation report after the run")
	statsJSON := flag.Bool("stats-json", false, "like -stats, but emit JSON")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	flag.IntVar(&cfg.TraceSample, "trace-sample", 0, "with -ranks: record full virtual span tracks for only this many evenly spaced ranks (0: all); merged histograms still cover every rank, so large -ranks runs stay traceable without -piters")
	listen := flag.String("listen", "", "serve /metrics (Prometheus text), /progress and /stats (JSON) and /debug/pprof live on this host:port during the run (port 0 picks a free port)")
	linger := flag.Duration("linger", 0, "with -listen: keep the endpoint up this long after the run completes")
	flag.IntVar(&cfg.Ranks, "ranks", 0, "run the whole time loop distributed over this many simulated ranks (0: serial shared-memory stepper)")
	faultsPath := flag.String("faults", "", "fault plan JSON degrading the simulated machine: stragglers, link jitter, drops with retry, pauses (requires -ranks)")
	ckptDir := flag.String("checkpoint", "", "keep the run's newest snapshot in this directory, as <case>/checkpoint.gob (a semflowd -store layout)")
	flag.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 10, "steps between snapshots when -checkpoint is set")
	resume := flag.Bool("resume", false, "continue from the snapshot in the -checkpoint directory (same case, resolution and -ranks)")
	historyOut := flag.String("history", "", "write per-step convergence telemetry (JSONL) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Usage = usage
	flag.Parse()
	cfg.Trace = *traceOut != ""
	// Warnings and notes go through slog; the log package's Fatal calls,
	// which SetDefault routes through the same handler, are errors.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	slog.SetLogLoggerLevel(slog.LevelError)

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

	if !slices.Contains(session.CaseNames(), cfg.Case) {
		fmt.Fprintf(os.Stderr, "unknown case %q\n", cfg.Case)
		os.Exit(2)
	}
	if *every < 1 {
		fmt.Fprintf(os.Stderr, "-report %d: want a report interval of at least 1 step\n", *every)
		os.Exit(2)
	}
	if a := cfg.Alpha; a != nil && !(*a >= 0 && *a <= 1) {
		fmt.Fprintf(os.Stderr, "-alpha %g: want a filter strength from 0 to 1\n", *a)
		os.Exit(2)
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
		if cfg.Ranks == 0 {
			last = flowcases.KineticEnergy(sess.Solver())
		}
		fmt.Printf("%6d %9.4f %6.2f %8d %8d %8d %12.5e\n",
			st.Step, st.Time, st.CFL, st.PressureIters, st.HelmholtzIters[0],
			st.ProjectionBasis, last)
	}

	// The snapshot lives in a session store rooted at -checkpoint, under the
	// case name: the layout a semflowd -store of the same directory reads.
	var store session.Store
	var err error
	ckPath := filepath.Join(*ckptDir, cfg.Case, session.ArtifactCheckpoint)
	if *ckptDir != "" {
		if store, err = session.NewFSStore(*ckptDir); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
	}
	var ck *parrun.Checkpoint // nil: a fresh run
	if *resume {
		if store == nil {
			log.Fatal("-resume needs -checkpoint DIR to find the snapshot")
		}
		if ck, err = session.LoadCheckpoint(store, cfg.Case); err != nil {
			log.Fatalf("-resume: %v", err)
		}
		fmt.Printf("resuming from %s (completed steps: %d)\n", ckPath, ck.Step())
	}
	sess, err = session.Resume(cfg, ck)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	s := sess.Solver()
	sess.PrecondSelection().Report(os.Stdout)
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
	machine, lastCol := "", "KE"
	if cfg.Ranks > 0 {
		machine, lastCol = fmt.Sprintf("  ranks=%d (distributed)", cfg.Ranks), "p-res"
	}
	fmt.Printf("case=%s  K=%d  N=%d  dofs/component=%d%s\n",
		cfg.Case, s.M.K, s.M.N, s.M.K*s.M.Np, machine)
	fmt.Printf("%6s %9s %6s %8s %8s %8s %12s\n",
		"step", "t", "CFL", "p-iters", "h-iters", "basis", lastCol)

	// Step to the target, in one batch or — with -checkpoint — one per
	// snapshot interval (session.NextBatch, semflowd's schedule too),
	// depositing at every multiple of -checkpoint-every and after the last
	// step: a snapshot is the session's own, taken between two batches,
	// whichever machine is stepping. -checkpoint-every 0 keeps the final
	// state only.
	snapshots, snapEvery := 0, 0
	if store != nil {
		snapEvery = cfg.CheckpointEvery
	}
	s.Disc().ResetFlops()
	mm0, vec0 := s.ChargedFlops()
	for sess.Step() < cfg.Steps {
		batch, snapshot := session.NextBatch(sess.Step(), cfg.Steps, 0, snapEvery)
		if _, err := sess.StepN(batch); err != nil {
			log.Fatalf("step %d: %v", sess.Step()+1, err)
		}
		if store != nil && snapshot {
			if err := sess.Deposit(store, cfg.Case); err != nil {
				log.Fatalf("checkpoint: %v", err)
			}
			snapshots++
		}
	}
	if nonconverged > 0 {
		slog.Warn("some steps did not converge", "nonconverged", nonconverged, "steps", cfg.Steps)
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
		mm, vec := s.ChargedFlops()
		fmt.Printf("\nmetered flops (every operator of the step): %.3e (matrix-matrix %.3e, vector %.3e)\n",
			float64(s.Disc().Flops()), float64(mm-mm0), float64(vec-vec0))
	}
	if snapshots > 0 {
		fmt.Printf("wrote %d snapshots to %s (the newest, step %d, is kept)\n", snapshots, ckPath, sess.Step())
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

// usage prints the flags, then what each case runs with a flag left unset
// (0: a knob the case does not read).
func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
	flag.PrintDefaults()
	for _, name := range session.CaseNames() {
		c, _ := session.Config{Case: name}.Resolve()
		fmt.Fprintf(out, "-case %-10s defaults: -n %d -nel %d -kx %d -ky %d -L %d -alpha %g\n",
			name, c.N, c.Nel, c.KX, c.KY, c.ProjectionL, *c.Alpha)
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
