package main

import (
	"fmt"

	"repro/internal/coarse"
	"repro/internal/comm"
	"repro/internal/instrument"
)

// fig8 reproduces the first-26-steps study: solution time per step (left
// panel, priced at P=2048 dual-processor perf from the reduced hairpin run's
// counters) and pressure / x-Helmholtz iterations per step (right panel,
// measured on that run). Beside the production price sit the reduced run's
// own virtual clock and its counters priced at its own shape: their ratio is
// the waits the price leaves out.
func fig8(quick bool) error {
	run, err := recordHairpin(quick)
	if err != nil {
		return err
	}
	est := price(run, production(2048), comm.ASCIRedNode(2048, true, true))
	own := price(run, run.at, comm.ASCIRed(run.at.p))
	fmt.Printf("Fig 8: first 26 time steps, (K,N)=(8168,15), P=2048 dual perf, priced from a\n")
	fmt.Printf("reduced hairpin run (K=%d, N=%d) on P=%d simulated ranks\n", run.at.k, run.at.n, run.at.p)
	fmt.Printf("%6s %14s %16s %18s | %14s %14s\n", "step", "time/step (s)", "pressure iters", "helmholtz iters",
		"reduced clock", "reduced priced")
	for i, st := range run.stats {
		fmt.Printf("%6d %14.2f %16d %18d | %14.3e %14.3e\n", i+1, est.perStep[i],
			st.PressureIters, st.HelmholtzIters[0], run.virtual[i], own.perStep[i])
	}
	var last5 float64
	for _, t := range est.perStep[len(est.perStep)-5:] {
		last5 += t
	}
	fmt.Printf("\naverage time per step, last five steps: %.2f s (paper: 17.5 s)\n", last5/5)
	fmt.Printf("sustained: %.0f GFLOPS, %+.0f%% from the paper's %d GF\n",
		est.gflops, 100*(est.gflops/paperGF-1), paperGF)
	fmt.Println("Expected shape (paper): pressure iterations fall sharply over the")
	fmt.Println("initial transient as the projection space fills; time per step")
	fmt.Println("follows the iteration count; Helmholtz iterations stay flat.")
	if err := fig8TraceCheck(quick); err != nil {
		return err
	}
	return fig8Distributed(quick)
}

// fig8TraceCheck cross-checks the closed-form α–β performance model against
// the executed communication: for the 63² coarse problem it runs the XXT
// solve on the simulated machine with a tracer attached, sums the rank-0
// allreduce span durations from the trace, and compares them with the
// model's log₂P·(α + 8·words·β) recursive-doubling cost per collective. The
// two agree when the executed schedule has no load-imbalance wait inside the
// collectives; the traced/modeled ratio quantifies how much the model's
// zero-skew assumption undercounts.
func fig8TraceCheck(quick bool) error {
	const nx, ny = 63, 63
	n := nx * ny
	fac, err := coarse.NewXXT(coarse.Poisson5pt(nx, ny), nx, ny)
	if err != nil {
		return fmt.Errorf("XXT factor, n=%d: %w", n, err)
	}
	b := normalVec(n, 11)
	ps := []int{16, 64, 256}
	if quick {
		ps = []int{16, 64}
	}
	fmt.Printf("\nModel vs executed trace, n=%d XXT coarse solve (rank-0 allreduce time):\n", n)
	fmt.Printf("%6s %6s %14s %14s %8s %12s\n",
		"P", "colls", "modeled (s)", "traced (s)", "ratio", "solve (s)")
	for _, p := range ps {
		tr := instrument.NewTracer()
		tr.DisableWallClock()
		_, ranks := xxtRun(fac, p, b, func(net *comm.Network) { net.AttachTracer(tr) })
		colls, traced, modeled, ratio := rank0Allreduce(tr, p)
		fmt.Printf("%6d %6d %14.3e %14.3e %8.2f %12.3e\n",
			p, colls, modeled, traced, ratio, comm.MaxTime(ranks))
	}
	fmt.Println("(modeled: log2(P) recursive-doubling rounds at alpha + 8*words*beta")
	fmt.Println(" each; traced: executed allreduce spans on the rank-0 virtual clock,")
	fmt.Println(" which additionally see skew-induced waits)")
	return nil
}

// rank0Allreduce sums the rank-0 allreduce spans of a P-rank machine trace
// and prices the same collectives as Table 4 does (seconds): log₂P rounds of
// recursive doubling at α + 8·words·β each. ratio is traced/modeled (0
// without collectives).
func rank0Allreduce(tr *instrument.Tracer, p int) (colls int, traced, modeled, ratio float64) {
	var w stepWork
	for _, ev := range tr.Events() {
		if ev.Pid != instrument.PidMachine || ev.Tid != 0 ||
			ev.Ph != "X" || ev.Name != "allreduce" {
			continue
		}
		traced += ev.Dur / 1e6
		w.Allreduces++
		w.AllreduceWords += float64(ev.Args["words"].(int))
	}
	if modeled = seconds(w, comm.ASCIRed(p)); modeled > 0 {
		ratio = traced / modeled
	}
	return int(w.Allreduces), traced, modeled, ratio
}
