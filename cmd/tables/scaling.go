package main

// scaling.go is the strong-scaling study behind the paper's Figs. 6/8
// narrative at real rank counts: one fixed channel mesh, the full
// distributed Navier–Stokes stepper, and a P sweep from work-dominated
// (tens of elements per rank) to latency-dominated (one element per rank,
// where the coarse-solve/allreduce latency term ~log2(P)*alpha overtakes
// the shrinking local work). The per-phase virtual-time breakdown and the
// parallel-efficiency column come straight from the simulated machine's
// clocks; scripts/scale.sh records the output as the committed SCALING.md
// artifact.

import (
	"fmt"

	"repro/internal/instrument"
	"repro/internal/parrun"
	"repro/internal/session"
)

// scaling runs the strong-scaling sweep. Full mode: K = 64x16 = 1024
// elements at N = 5 (one element per rank at P = 1024, the paper's
// terascale regime shrunk to one box), P in {16, 64, 256, 1024}. Quick
// mode: K = 16x4 = 64 at N = 4, P in {4, 16, 64}.
func scaling(quick bool) {
	kx, ky, n := 64, 16, 5
	ps := []int{16, 64, 256, 1024}
	steps := 2
	if quick {
		kx, ky, n = 16, 4, 4
		ps = []int{4, 16, 64}
	}
	cfg, init, err := session.Config{Case: "channel", N: n, KX: kx, KY: ky}.Problem()
	if err != nil {
		fmt.Println("channel spec error:", err)
		return
	}
	k := kx * ky
	fmt.Printf("\nStrong scaling: distributed channel stepper on the simulated ASCI-Red\n")
	fmt.Printf("(fixed mesh K=%dx%d=%d, N=%d, %d steps; virtual seconds per step,\n", kx, ky, k, n, steps)
	fmt.Printf(" phase and communication columns are per-rank means)\n\n")
	fmt.Printf("%6s %6s %8s %10s | %9s %9s %9s %9s | %9s %9s %9s | %6s\n",
		"P", "E/rank", "p-iters", "s/step",
		"convect", "viscous", "pressure", "filter",
		"allreduce", "gs", "coarse", "eff")

	var basePT float64 // T(P0)*P0, the efficiency reference
	for pi, p := range ps {
		reg := instrument.New()
		res, err := parrun.NavierStokes(cfg, parrun.NSConfig{
			P: p, Steps: steps, Init: init, Registry: reg,
		})
		if err != nil {
			fmt.Println("distributed run error:", err)
			return
		}
		fs := float64(res.Steps - res.FirstStep)
		fp := float64(res.P)
		var sPerStep float64
		for _, v := range res.StepVirtual {
			sPerStep += v
		}
		sPerStep /= fs
		// Phase means are already per-rank; scale to per-step.
		var ph [4]float64
		for i, v := range res.PhaseVirtual {
			ph[i] = v / fs
		}
		// Communication detail: virtual timers are summed over ranks and
		// calls; normalize to per-rank per-step. The coarse column is the
		// whole distributed XXT solve and so includes its internal
		// cross-column allreduce, which the allreduce column also counts.
		perRank := func(name string) float64 {
			return reg.Timer(name).Total().Seconds() / fp / fs
		}
		ar := perRank("comm/allreduce.vtime")
		gsT := perRank("gs/exchange.vtime")
		xt := perRank("coarse/xxt.vtime")
		if pi == 0 {
			basePT = sPerStep * fp
		}
		eff := basePT / (sPerStep * fp)
		iters := 0
		if len(res.StepStats) > 0 {
			iters = res.StepStats[0].PressureIters
		}
		fmt.Printf("%6d %6d %8d %10.3e | %9.3e %9.3e %9.3e %9.3e | %9.3e %9.3e %9.3e | %6.2f\n",
			res.P, k/res.P, iters, sPerStep,
			ph[0], ph[1], ph[2], ph[3],
			ar, gsT, xt, eff)
	}
	fmt.Println("\n(eff = T(P0)*P0 / (T(P)*P) at fixed mesh; the pressure phase is the")
	fmt.Println(" Schwarz+XXT solve, where the NVert-word allreduces' log2(P)*alpha")
	fmt.Println(" latency term stops shrinking with P while the local work keeps")
	fmt.Println(" dividing — the work-dominated -> latency-dominated crossover is the")
	fmt.Println(" point where the allreduce column overtakes the compute remainder)")
}
