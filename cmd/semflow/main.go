// Command semflow is the production-style driver: it runs one of the
// canonical flow cases (shear layer, TS channel, convection cell, hairpin
// boundary layer) with configurable resolution, filter, projection and
// worker settings, printing per-step solver statistics — the same knobs the
// paper's production code exposes. With -trace it also emits a Chrome
// trace-event JSON (open in Perfetto or chrome://tracing) of the stepper's
// wall-clock spans; with -history it writes per-step convergence telemetry
// as JSONL. With -ranks P the whole time loop instead runs as an SPMD
// program on the simulated machine (parrun.NavierStokes) and the trace
// carries a per-rank virtual-clock track with the traffic of every stepper
// phase.
//
// At scale the observability flags compose: -trace-sample R keeps full
// span tracks for R deterministically chosen ranks while the merged
// histograms still cover every rank, and -listen addr serves /metrics
// (Prometheus text), /progress (JSON) and /debug/pprof live during the
// run (-linger keeps the endpoint up after it finishes).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/fault"
	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/parrun"
	"repro/internal/session"
	"repro/internal/solver"
)

func main() {
	caseName := flag.String("case", "shearlayer", "flow case: shearlayer, channel, convection, hairpin")
	steps := flag.Int("steps", 100, "time steps")
	n := flag.Int("n", 8, "polynomial order")
	nel := flag.Int("nel", 8, "elements per direction (2D cases)")
	kx := flag.Int("kx", 0, "channel case: elements along the channel (0: case default 5); with -ky this sizes the mesh for large -ranks runs")
	ky := flag.Int("ky", 0, "channel case: elements across the channel (0: case default 3)")
	piters := flag.Int("piters", 0, "distributed runs: pressure CG iteration cap (0: case default; a small cap bounds the per-step message volume so large -ranks runs can be traced)")
	alpha := flag.Float64("alpha", 0.3, "filter strength")
	l := flag.Int("L", 20, "pressure projection basis size")
	workers := flag.Int("workers", 2, "element-loop workers (dual-processor mode analogue)")
	precond := flag.String("precond", "", "pressure preconditioner: schwarz (reference), chebjacobi, chebschwarz, none, or auto (pick per mesh/order/ranks/tolerance from short trial solves)")
	precondCache := flag.String("precond-cache", "", "with -precond auto: persist the selections to this file and reuse them on later runs; keyed by CPU model and Go version, any mismatch forces a re-selection")
	every := flag.Int("report", 10, "report interval")
	stats := flag.Bool("stats", false, "print the per-phase instrumentation report after the run")
	statsJSON := flag.Bool("stats-json", false, "like -stats, but emit JSON")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	traceSample := flag.Int("trace-sample", 0, "with -ranks: record full virtual span tracks for only this many evenly spaced ranks (0: all); merged histograms still cover every rank, so large -ranks runs stay traceable without -piters")
	listen := flag.String("listen", "", "serve /metrics (Prometheus text), /progress (JSON) and /debug/pprof live on this host:port during the run (port 0 picks a free port)")
	linger := flag.Duration("linger", 0, "with -listen: keep the endpoint up this long after the run completes")
	ranks := flag.Int("ranks", 0, "run the whole time loop distributed over this many simulated ranks (0: serial shared-memory stepper)")
	faultsPath := flag.String("faults", "", "fault plan JSON degrading the simulated machine: stragglers, link jitter, drops with retry, pauses (requires -ranks)")
	ckptDir := flag.String("checkpoint", "", "write versioned stepper snapshots into this directory (requires -ranks)")
	ckptEvery := flag.Int("checkpoint-every", 10, "steps between snapshots when -checkpoint is set")
	resume := flag.Bool("resume", false, "continue from the latest snapshot in the -checkpoint directory (requires -ranks)")
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

	if *precond != "" && !ns.ValidPrecond(*precond) {
		log.Fatalf("-precond %q: want schwarz, chebjacobi, chebschwarz, none or auto", *precond)
	}
	loadPrecondCache(*precondCache)

	if *ranks > 0 {
		runDistributed(distOpts{
			caseName: *caseName, ranks: *ranks, steps: *steps, n: *n, nel: *nel,
			kx: *kx, ky: *ky, piters: *piters,
			alpha: *alpha, every: *every, stats: *stats, statsJSON: *statsJSON,
			traceOut: *traceOut, historyOut: *historyOut,
			traceSample: *traceSample, listen: *listen, linger: *linger,
			faultsPath: *faultsPath, ckptDir: *ckptDir, ckptEvery: *ckptEvery,
			resume: *resume, precond: *precond, precondCache: *precondCache,
		})
		return
	}
	if *faultsPath != "" || *ckptDir != "" || *resume {
		log.Fatal("-faults/-checkpoint/-resume apply to the distributed stepper: add -ranks P")
	}

	switch *caseName {
	case "shearlayer", "channel", "convection", "hairpin":
	default:
		fmt.Fprintf(os.Stderr, "unknown case %q\n", *caseName)
		os.Exit(2)
	}

	// The serial path goes through the session API — the same code path
	// semflowd multiplexes — with OnStep carrying the per-step report.
	cfg := session.Config{
		Case: *caseName, Steps: *steps, N: *n, Nel: *nel, KX: *kx, KY: *ky,
		Alpha: *alpha, ProjectionL: *l, Workers: *workers,
		Precond: *precond,
		Trace:   *traceOut != "",
	}
	var sess *session.Session // assigned below; OnStep only fires during StepN
	nonconverged := 0
	cfg.OnStep = func(st ns.StepStats) {
		if !st.PressureConverged {
			nonconverged++
			slog.Warn("pressure solve hit the iteration cap",
				"step", st.Step, "iters", st.PressureIters, "res", st.PressureResFinal)
		}
		if st.Step%*every == 0 {
			fmt.Printf("%6d %9.4f %6.2f %8d %8d %8d %12.5e\n",
				st.Step, st.Time, st.CFL, st.PressureIters, st.HelmholtzIters[0],
				st.ProjectionBasis, flowcases.KineticEnergy(sess.Solver()))
		}
	}
	sess, err := session.Create(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	s := sess.Solver()
	sel := s.PrecondSelection()
	reportPrecond(sel)
	savePrecondCache(*precondCache)
	reg := sess.Registry()
	reg.SetMeta(instrument.RunMeta{
		Case: *caseName, Elements: s.M.K, Order: s.M.N, Steps: *steps,
		Workers: *workers, TraceSample: *traceSample,
		Precond: sel.Name, PrecondSource: sel.Source,
	})
	tracer := sess.Tracer()
	var obs *instrument.Server
	if *listen != "" {
		obs = startServe(*listen, reg, sess.Progress())
		defer obs.Close()
	}
	fmt.Printf("case=%s  K=%d  N=%d  dofs/component=%d  workers=%d\n",
		*caseName, s.M.K, s.M.N, s.M.K*s.M.Np, *workers)
	fmt.Printf("%6s %9s %6s %8s %8s %8s %12s\n",
		"step", "t", "CFL", "p-iters", "h-iters", "basis", "KE")
	d := s.Disc()
	d.ResetFlops()
	if _, err := sess.StepN(*steps); err != nil {
		log.Fatalf("step %d: %v", sess.Step()+1, err)
	}
	if nonconverged > 0 {
		slog.Warn("pressure solve did not converge on some steps",
			"nonconverged", nonconverged, "steps", *steps)
	}
	fmt.Printf("\nmetered flops (every operator of the step): %.3e\n", float64(d.Flops()))

	if tracer != nil {
		// The shared-memory stepper gives the wall-clock track; the rank
		// timeline of Figs. 6/8 comes from a -ranks run.
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("wrote %d trace events to %s (load in https://ui.perfetto.dev)\n",
			tracer.Len(), *traceOut)
	}
	if *historyOut != "" {
		history := sess.History()
		f, err := os.Create(*historyOut)
		if err != nil {
			log.Fatalf("history: %v", err)
		}
		if err := history.WriteJSONL(f); err != nil {
			log.Fatalf("history: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("history: %v", err)
		}
		fmt.Printf("wrote %d per-step telemetry records to %s\n", history.Len(), *historyOut)
	}
	if *stats || *statsJSON {
		rep := reg.Report()
		if *statsJSON {
			j, err := rep.JSON()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n%s\n", j)
		} else {
			fmt.Printf("\n%s", rep.String())
		}
	}
	finishServe(obs, sess.Progress(), *linger)
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}
}

// distOpts bundles the CLI switches of a distributed run.
type distOpts struct {
	caseName             string
	ranks, steps, n, nel int
	kx, ky               int // channel mesh size (0,0: case default 5x3)
	piters               int // pressure CG iteration cap (0: case default)
	alpha                float64
	every                int
	stats, statsJSON     bool
	traceOut, historyOut string
	traceSample          int           // full span tracks for this many ranks (0: all)
	listen               string        // live observability endpoint address ("" off)
	linger               time.Duration // keep the endpoint up after the run
	faultsPath, ckptDir  string
	ckptEvery            int
	resume               bool
	precond              string // pressure preconditioner variant ("" = case default)
	precondCache         string // persisted -precond auto selections
}

// runDistributed runs the selected case's whole time loop as an SPMD
// program on the simulated machine (parrun.NavierStokes): RSB element
// ownership per rank, distributed gather–scatter assembly, allreduce inner
// products, and a per-rank virtual-clock trace track for every stepper
// phase. The same -trace/-history/-stats artifacts come out of the
// distributed run directly. -faults degrades the simulated machine with a
// seeded plan, -checkpoint snapshots the stepper every -checkpoint-every
// steps, and -resume picks up a bitwise-identical continuation from the
// latest snapshot.
func runDistributed(o distOpts) {
	var cfg ns.Config
	var init flowcases.InitFunc
	var err error
	switch o.caseName {
	case "shearlayer":
		cfg, init, err = flowcases.ShearLayerSpec(flowcases.ShearLayerConfig{
			Nel: o.nel, N: o.n, Rho: 30, Re: 1e5, Dt: 0.002, Alpha: o.alpha,
		})
	case "channel":
		cfg, init, _, err = flowcases.ChannelSpec(flowcases.ChannelConfig{
			Re: 7500, Alpha: 1, N: o.n, Dt: 0.003125, Order: 2, Filter: o.alpha,
			KX: o.kx, KY: o.ky,
		})
	case "hairpin":
		cfg, init, err = flowcases.HairpinSpec(flowcases.HairpinConfig{
			Nx: 6, Ny: 4, Nz: 3, N: o.n, Re: 1600, Dt: 0.05, FilterA: o.alpha,
		})
	case "convection":
		cfg, err = flowcases.ConvectionSpec(flowcases.ConvectionConfig{
			Nel: o.nel, N: o.n, Ra: 1e4, Dt: 0.002, ProjectionL: 20,
		})
	default:
		err = fmt.Errorf("unknown case %q", o.caseName)
	}
	if err != nil {
		log.Fatal(err)
	}
	if o.piters > 0 {
		cfg.PMaxIter = o.piters
	}
	if o.precond != "" {
		cfg.PressurePrecond = o.precond
	}
	var plan *fault.Plan
	if o.faultsPath != "" {
		if plan, err = fault.Load(o.faultsPath); err != nil {
			log.Fatal(err)
		}
	}
	var ck *parrun.Checkpoint
	if o.resume {
		if o.ckptDir == "" {
			log.Fatal("-resume needs -checkpoint DIR to find the snapshots")
		}
		path, err := parrun.LatestCheckpoint(o.ckptDir)
		if err != nil {
			log.Fatal(err)
		}
		if path == "" {
			log.Fatalf("-resume: no snapshots in %s", o.ckptDir)
		}
		if ck, err = parrun.LoadCheckpoint(path); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resuming from %s (completed steps: %d)\n", path, ck.Step)
	}
	m := cfg.Mesh
	var reg *instrument.Registry
	if o.stats || o.statsJSON || o.listen != "" {
		reg = instrument.New()
		var seed int64
		if plan != nil {
			seed = plan.Seed
		}
		reg.SetMeta(instrument.RunMeta{
			Case: o.caseName, Ranks: o.ranks, Elements: m.K, Order: m.N,
			Steps: o.steps, PIters: o.piters, FaultSeed: seed,
			TraceSample: o.traceSample,
		})
	}
	var tracer *instrument.Tracer
	if o.traceOut != "" {
		tracer = instrument.NewTracer()
		if picked := strideSample(o.ranks, o.traceSample); picked != nil {
			tracer.SampleVRanks(picked)
			slog.Info("trace rank sampling on", "tracks", o.traceSample, "ranks", o.ranks)
		}
	}
	var history *instrument.TimeSeries
	if o.historyOut != "" {
		history = instrument.NewTimeSeries()
	}
	var prog *instrument.Progress
	var obs *instrument.Server
	var onStep func(st ns.StepStats, vsec float64)
	if o.listen != "" {
		prog = instrument.NewProgress()
		obs = startServe(o.listen, reg, prog)
		defer obs.Close()
		onStep = func(st ns.StepStats, vsec float64) {
			prog.Update(instrument.ProgressSnapshot{
				Case: o.caseName, Ranks: o.ranks, Step: st.Step, TotalSteps: o.steps,
				Time: st.Time, VirtualSeconds: vsec, CFL: st.CFL,
				PressureIters: st.PressureIters, PressureRes: st.PressureResFinal,
				Converged: st.PressureConverged,
			})
		}
	}
	fmt.Printf("case=%s  K=%d  N=%d  dofs/component=%d  ranks=%d (distributed)\n",
		o.caseName, m.K, m.N, m.K*m.Np, o.ranks)
	res, err := parrun.NavierStokes(cfg, parrun.NSConfig{
		P: o.ranks, Steps: o.steps, Init: init,
		Faults:        plan,
		CheckpointDir: o.ckptDir, CheckpointEvery: o.ckptEvery,
		Resume:   ck,
		Registry: reg, Tracer: tracer, History: history,
		OnStep: onStep,
	})
	if err != nil {
		log.Fatalf("distributed run: %v", err)
	}
	if res.P != res.RequestedP {
		slog.Info("rank count clamped (one element minimum per rank)",
			"requested", res.RequestedP, "effective", res.P)
	}
	reportPrecond(res.PrecondSel)
	savePrecondCache(o.precondCache)
	if reg != nil {
		// Refresh the metadata with the resolved variant: for -precond auto
		// the selection only exists once the template has run its trials.
		var seed int64
		if plan != nil {
			seed = plan.Seed
		}
		reg.SetMeta(instrument.RunMeta{
			Case: o.caseName, Ranks: o.ranks, Elements: m.K, Order: m.N,
			Steps: o.steps, PIters: o.piters, FaultSeed: seed,
			TraceSample: o.traceSample,
			Precond:     res.Precond, PrecondSource: res.PrecondSel.Source,
		})
	}
	fmt.Printf("%6s %9s %6s %8s %8s %8s %12s\n",
		"step", "t", "CFL", "p-iters", "h-iters", "basis", "p-res")
	for _, st := range res.StepStats {
		if st.Step%o.every != 0 {
			continue
		}
		fmt.Printf("%6d %9.4f %6.2f %8d %8d %8d %12.3e\n",
			st.Step, st.Time, st.CFL, st.PressureIters,
			st.HelmholtzIters[0], st.ProjectionBasis, st.PressureResFinal)
	}
	if !res.Converged {
		slog.Warn("some steps did not converge",
			"nonconverged", res.NonconvergedSteps, "steps", res.Steps)
	}
	fmt.Printf("\ndistributed run: P=%d steps=%d virtual=%.3es traffic=%.1fkB/%d msgs cut-edges=%d\n",
		res.P, res.Steps, res.VirtualSeconds,
		float64(res.TotalBytes)/1024, res.TotalMsgs, res.CutEdges)
	if plan != nil {
		fmt.Printf("fault recovery: drops=%d retries=%d pauses=%d stall=%.3es (virtual, summed over ranks)\n",
			res.Drops, res.Retries, res.Pauses, res.FaultStallSec)
	}
	if res.CheckpointsWritten > 0 {
		fmt.Printf("wrote %d snapshots to %s (every %d steps)\n",
			res.CheckpointsWritten, o.ckptDir, o.ckptEvery)
	}
	if tracer != nil {
		f, err := os.Create(o.traceOut)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("wrote %d trace events to %s (load in https://ui.perfetto.dev)\n",
			tracer.Len(), o.traceOut)
	}
	if history != nil {
		f, err := os.Create(o.historyOut)
		if err != nil {
			log.Fatalf("history: %v", err)
		}
		if err := history.WriteJSONL(f); err != nil {
			log.Fatalf("history: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("history: %v", err)
		}
		fmt.Printf("wrote %d per-step telemetry records to %s\n", history.Len(), o.historyOut)
	}
	if reg != nil && (o.stats || o.statsJSON) {
		rep := reg.Report()
		if o.statsJSON {
			j, err := rep.JSON()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n%s\n", j)
		} else {
			fmt.Printf("\n%s", rep.String())
		}
	}
	finishServe(obs, prog, o.linger)
}

// strideSample picks r evenly spaced ranks out of p — the deterministic
// choice behind -trace-sample, so reruns record the same tracks. nil means
// "trace everything" (r = 0 or r covers all of p).
// loadPrecondCache installs persisted -precond auto selections before any
// solver is built. A stale or foreign cache (other machine, other Go
// version) is re-selected, never trusted.
func loadPrecondCache(path string) {
	if path == "" {
		return
	}
	pt, err := solver.LoadPrecondCache(path)
	if err == nil {
		solver.InstallPrecondTable(pt)
		fmt.Printf("precond: reusing %d cached selections from %s\n", pt.Len(), path)
		return
	}
	if !errors.Is(err, os.ErrNotExist) {
		slog.Warn("precond cache unusable, re-selecting", "err", err)
	}
}

// savePrecondCache persists the process-wide selection table (if any).
func savePrecondCache(path string) {
	t := solver.InstalledPrecondTable()
	if path == "" || t.Len() == 0 {
		return
	}
	if err := solver.SavePrecondCache(path, t); err != nil {
		slog.Warn("precond cache not written", "err", err)
	} else {
		fmt.Printf("precond: %d selections cached to %s\n", t.Len(), path)
	}
}

// reportPrecond prints the resolved pressure preconditioner and, after an
// auto trial tournament, the per-candidate stats.
func reportPrecond(sel solver.PrecondSelection) {
	if sel.Name == "" {
		return
	}
	fmt.Printf("precond: %s (%s)\n", sel.Name, sel.Source)
	for _, tr := range sel.Trials {
		fmt.Printf("  trial %-12s %4d iters  converged=%-5v  %.3fs\n",
			tr.Name, tr.Iterations, tr.Converged, tr.Seconds)
	}
}

func strideSample(p, r int) []int {
	if r <= 0 || r >= p {
		return nil
	}
	out := make([]int, r)
	for i := range out {
		out[i] = i * p / r
	}
	return out
}

// startServe binds the live observability endpoint and prints the resolved
// address (port 0 requests pick a free port) so scrapers can find it.
func startServe(addr string, reg *instrument.Registry, prog *instrument.Progress) *instrument.Server {
	srv, err := instrument.Serve(addr, reg, prog)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("observability: listening on http://%s (/metrics /progress /debug/pprof)\n", srv.Addr)
	return srv
}

// finishServe marks the run done on /progress and keeps the endpoint up for
// the linger window so post-run scrapes see the final state.
func finishServe(obs *instrument.Server, prog *instrument.Progress, linger time.Duration) {
	if obs == nil {
		return
	}
	snap := prog.Snapshot()
	snap.Done = true
	prog.Update(snap)
	if linger > 0 {
		slog.Info("run complete, endpoint lingering", "addr", obs.Addr, "for", linger.String())
		time.Sleep(linger)
	}
}
