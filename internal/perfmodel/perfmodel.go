// Package perfmodel predicts parallel run time and sustained FLOP rate for
// the production-scale configurations of the paper (Table 4, Fig. 8 left)
// that cannot be executed directly on this machine: a 28-million-gridpoint
// spectral element run on up to 2048 ASCI-Red nodes. The model combines
//
//   - exact analytic flop counts per operator evaluation (the same counts
//     the instrumented solver meters on reduced runs — 12N⁴+15N³ per
//     element per stiffness application, etc.),
//   - measured or paper-typical per-step iteration histories,
//   - per-processor floating-point rates in the Table 3 ballpark, with the
//     "std." vs "perf." DGEMM selections and the 82 % dual-processor
//     efficiency quoted in Sec. 6, and
//   - an α–β network model for gather–scatter exchanges (one α per message
//     whatever the number of fields it carries), the step's short allreduces
//     (Reductions), and the XXT coarse solve (3·n^{2/3}·log₂P volume).
package perfmodel

import "math"

// Machine describes per-node compute rates and the network.
type Machine struct {
	Name      string
	MFlopsMM  float64 // matrix-matrix kernel rate, MFLOPS (Table 3)
	MFlopsVec float64 // non-MM (vector/pointwise) rate, MFLOPS
	DualEff   float64 // dual-processor-mode efficiency (paper: 0.82)
	Alpha     float64 // message latency, s
	Beta      float64 // per-byte time, s
}

// ASCIRedStd is the 333 MHz ASCI-Red node with the standard-library DGEMM
// selection ("std." columns of Table 4).
func ASCIRedStd() Machine {
	return Machine{Name: "std", MFlopsMM: 95, MFlopsVec: 35, DualEff: 0.82,
		Alpha: 20e-6, Beta: 1 / 310e6}
}

// ASCIRedPerf is the tuned-kernel selection ("perf." columns, the best of
// Table 3 per shape).
func ASCIRedPerf() Machine {
	return Machine{Name: "perf", MFlopsMM: 113, MFlopsVec: 38, DualEff: 0.82,
		Alpha: 20e-6, Beta: 1 / 310e6}
}

// Run describes the simulation whose cost is modeled.
type Run struct {
	K, N    int // elements and polynomial order
	Dim     int // 3 for the hairpin problem
	CoarseN int // coarse-grid dofs (paper: 10142)
	// Per-step iteration history (len = number of steps).
	PressIters []int
	HelmIters  []int // per step, of the slowest component (the components iterate in lockstep)
	Substeps   []int // OIFS substeps per step
}

// Reductions returns the short allreduces every rank issues in step i, as
// ns.Solver.Step does: two maxima (CFL, NaN check) and, per CG solve — the
// velocity components are one lockstep solve — a start-up norm and three inner
// products per iteration. Projection and null-space means are not modelled
// (reductions_test.go adds them); the XXT solves' are in the coarse term.
func (r *Run) Reductions(i int) int {
	return 2 + 2 + 3*(r.PressIters[i]+r.HelmIters[i])
}

// PhaseFlops returns the modeled floating point operations of step i split
// by solver phase (viscous Helmholtz solves, pressure solve, convective
// subintegration, filter) — the same partition the instrumented stepper
// times on reduced runs, so measured shares can sit beside modeled ones.
func (r *Run) PhaseFlops(i int) (helm, press, conv, filt float64) {
	n1 := float64(r.N + 1)
	k := float64(r.K)
	var n4, n3 float64
	if r.Dim == 3 {
		n4 = n1 * n1 * n1 * n1
		n3 = n1 * n1 * n1
	} else {
		n4 = n1 * n1 * n1
		n3 = n1 * n1
	}
	stiff := 12*n4 + 15*n3 // eq. (4) work per element
	grad := 2 * float64(r.Dim) * n4
	dims := float64(r.Dim)

	// Helmholtz: dims components x iters x (stiffness + ~10 n3 vector ops).
	helm = float64(r.HelmIters[i]) * dims * (stiff*k + 10*n3*k)
	// Pressure: iters x (E apply ≈ 2 grads + divergence + FDM local solves
	// + coarse prolongation, ≈ 4 stiffness-equivalents MM + vector ops).
	press = float64(r.PressIters[i]) * ((2*grad+stiff)*k + stiff*k + 14*n3*k)
	// Convection in reference coordinates: per substep, RK4 stages x dims
	// fields x (dims derivative products + the fused dims-term combine), and
	// the three stage fields made contravariant (undeformed elements: one
	// multiply per component).
	conv = float64(r.Substeps[i]) * (4*dims*(grad+2*dims*n3) + 3*dims*n3) * k
	// Filter once per step per field.
	filt = dims * 2 * dims * n4 * k
	return helm, press, conv, filt
}

// StepFlops returns the modeled floating point operations of step i, split
// into matrix-matrix and vector work.
func (r *Run) StepFlops(i int) (mm, vec float64) {
	helm, press, conv, filt := r.PhaseFlops(i)
	mmShare := 0.92 // the paper: >90% of flops are matrix-matrix products
	total := helm + press + conv + filt
	return total * mmShare, total * (1 - mmShare)
}

// commPerStep models the network time of one step on P nodes.
func (r *Run) commPerStep(i int, m Machine, p int) float64 {
	if p == 1 {
		return 0
	}
	logp := math.Log2(float64(p))
	n1 := float64(r.N + 1)
	kp := float64(r.K) / float64(p) // elements per node
	// Gather-scatter: ~6 faces of the local element block exchanged per
	// operator application, one message per face. An exchange carries every
	// field assembled at that point, so fields share its latency and each
	// adds its words. One exchange per pressure iteration, one per lockstep
	// Helmholtz iteration for all dims velocity components, one per OIFS
	// substep for the dims fields it mass-averages.
	faceWords := 6 * math.Pow(kp, 2.0/3.0) * n1 * n1
	gsTime := func(fields float64) float64 { return 6*m.Alpha + fields*faceWords*8*m.Beta }
	dims := float64(r.Dim)
	dotTime := float64(r.Reductions(i)) * 2 * m.Alpha * logp
	// XXT coarse solve per pressure iteration: fan-in/out tree with the
	// separator-bounded volume.
	coarseWords := 3 * math.Pow(float64(r.CoarseN), 2.0/3.0)
	coarseTime := logp * (2*m.Alpha + coarseWords*8*m.Beta)
	return float64(r.PressIters[i])*(gsTime(1)+coarseTime) + dotTime +
		float64(r.HelmIters[i]+r.Substeps[i])*gsTime(dims)
}

// Estimate is a modeled run.
type Estimate struct {
	TimePerStep []float64
	TotalTime   float64
	TotalFlops  float64
	GFLOPS      float64
}

// Predict models the run on P nodes of machine m, in single- or
// dual-processor mode.
func (r *Run) Predict(m Machine, p int, dual bool) Estimate {
	rateMM := m.MFlopsMM * 1e6
	rateVec := m.MFlopsVec * 1e6
	if dual {
		rateMM *= 2 * m.DualEff
		rateVec *= 2 * m.DualEff
	}
	est := Estimate{TimePerStep: make([]float64, len(r.PressIters))}
	for i := range r.PressIters {
		mm, vec := r.StepFlops(i)
		compute := mm/rateMM/float64(p) + vec/rateVec/float64(p)
		t := compute + r.commPerStep(i, m, p)
		est.TimePerStep[i] = t
		est.TotalTime += t
		est.TotalFlops += mm + vec
	}
	est.GFLOPS = est.TotalFlops / est.TotalTime / 1e9
	return est
}

// PaperIterationHistory synthesizes the Fig. 8 iteration history shape for
// nsteps steps: pressure iterations decay from the impulsive-start
// transient (~3x the settled count) to the settled band as the projection
// space fills; Helmholtz counts stay flat. Use measured histories from a
// reduced run when available — this is the documented fallback.
func PaperIterationHistory(nsteps, settledPress, helm, substeps int) ([]int, []int, []int) {
	press := make([]int, nsteps)
	hi := make([]int, nsteps)
	sub := make([]int, nsteps)
	for i := range press {
		decay := math.Exp(-float64(i) / 6.0)
		press[i] = settledPress + int(2.2*float64(settledPress)*decay)
		hi[i] = helm
		sub[i] = substeps
	}
	return press, hi, sub
}

// HairpinRun returns the paper's production configuration (K=8168, N=15,
// 10142 coarse dofs) with the given iteration history.
func HairpinRun(press, helm, substeps []int) *Run {
	return &Run{K: 8168, N: 15, Dim: 3, CoarseN: 10142,
		PressIters: press, HelmIters: helm, Substeps: substeps}
}
