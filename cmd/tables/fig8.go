package main

import (
	"fmt"

	"repro/internal/coarse"
	"repro/internal/comm"
	"repro/internal/instrument"
	"repro/internal/perfmodel"
)

// fig8 reproduces the first-26-steps study: solution time per step (left
// panel, modeled at P=2048 dual-processor perf) and pressure / x-Helmholtz
// iterations per step (right panel, measured on the reduced hairpin run).
func fig8(quick bool) {
	fmt.Println("Fig 8: first 26 time steps, (K,N)=(8168,15), P=2048 dual perf (modeled)")
	press, helm, sub, _ := measuredHistory(26, quick)
	run := perfmodel.HairpinRun(press, helm, sub)
	est := run.Predict(perfmodel.ASCIRedPerf(), 2048, true)
	fmt.Printf("%6s %14s %16s %18s\n", "step", "time/step (s)", "pressure iters", "helmholtz iters")
	for i := 0; i < len(press); i++ {
		fmt.Printf("%6d %14.2f %16d %18d\n", i+1, est.TimePerStep[i], press[i], helm[i])
	}
	var last5 float64
	for i := len(press) - 5; i < len(press); i++ {
		last5 += est.TimePerStep[i]
	}
	fmt.Printf("\naverage time per step, last five steps: %.2f s (paper: 17.5 s)\n", last5/5)
	fmt.Println("Expected shape (paper): pressure iterations fall sharply over the")
	fmt.Println("initial transient as the projection space fills; time per step")
	fmt.Println("follows the iteration count; Helmholtz iterations stay flat.")
	fig8TraceCheck(quick)
	fig8Distributed(quick)
}

// fig8TraceCheck cross-checks the closed-form α–β performance model against
// the executed communication: for the 63² coarse problem it runs the XXT
// solve on the simulated machine with a tracer attached, sums the rank-0
// allreduce span durations from the trace, and compares them with the
// model's log₂P·(α + 8·words·β) recursive-doubling cost per collective. The
// two agree when the executed schedule has no load-imbalance wait inside the
// collectives; the traced/modeled ratio quantifies how much the model's
// zero-skew assumption undercounts.
func fig8TraceCheck(quick bool) {
	const nx, ny = 63, 63
	n := nx * ny
	a, b := coarse.Poisson5pt(nx, ny), normalVec(n, 11)
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
		_, ranks, err := xxtRun(a, nx, ny, p, b, func(_ *coarse.XXT, net *comm.Network) { net.AttachTracer(tr) })
		if err != nil {
			fmt.Println("XXT error:", err)
			return
		}
		colls, traced, modeled, ratio := rank0Allreduce(tr, p)
		fmt.Printf("%6d %6d %14.3e %14.3e %8.2f %12.3e\n",
			p, colls, modeled, traced, ratio, comm.MaxTime(ranks))
	}
	fmt.Println("(modeled: log2(P) recursive-doubling rounds at alpha + 8*words*beta")
	fmt.Println(" each; traced: executed allreduce spans on the rank-0 virtual clock,")
	fmt.Println(" which additionally see skew-induced waits)")
}

// rank0Allreduce sums the rank-0 allreduce spans of a P-rank machine trace
// and, for the same collectives, the closed-form ASCI-Red cost
// log₂P·(α + 8·words·β) of recursive doubling. ratio is traced/modeled (0
// without collectives).
func rank0Allreduce(tr *instrument.Tracer, p int) (colls int, traced, modeled, ratio float64) {
	m := comm.ASCIRed(p)
	rounds := 0
	for d := 1; d < p; d <<= 1 {
		rounds++
	}
	for _, ev := range tr.Events() {
		if ev.Pid != instrument.PidMachine || ev.Tid != 0 ||
			ev.Ph != "X" || ev.Name != "allreduce" {
			continue
		}
		colls++
		traced += ev.Dur / 1e6
		words, _ := ev.Args["words"].(int)
		modeled += float64(rounds) * (m.Latency + 8*float64(words)*m.ByteSec)
	}
	if modeled > 0 {
		ratio = traced / modeled
	}
	return colls, traced, modeled, ratio
}
