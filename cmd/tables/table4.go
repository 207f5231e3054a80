package main

// table4.go prices the paper's production run, which cannot run here: 26
// steps of the hairpin flow at (K, N) = (8168, 15) on 512–2048 ASCI-Red
// nodes. It runs a reduced hairpin on the simulated machine, reads what each
// step did off the step's own counters — flops by class, gather–scatter
// exchanges, messages and words, allreduces and their words, coarse solves —
// scales those counts to the production shape, and prices them on
// comm.Machine, the machine the simulated clock runs. Iteration counts are
// the reduced run's, unrescaled.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/comm"
	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/parrun"
)

// hairpinSteps is the paper's study length (Fig. 8): 26 steps.
const hairpinSteps = 26

// production is the paper's run: K = 8168 elements of order 15 and 10 142
// coarse-grid dofs.
func production(p int) shape { return shape{dim: 3, k: 8168, n: 15, p: p, coarse: 10142} }

// shape is what a step's counts scale with: dimension, elements, order,
// ranks, coarse-grid (vertex) dofs, and the XXT columns that cross a rank's
// block (the separator the coarse solve combines).
type shape struct {
	dim, k, n, p  int
	coarse, cross int
}

// stepWork is what one rank does in one step, averaged over the ranks.
type stepWork struct {
	MM, Vec        float64 // flops by class
	Exchanges      float64 // gather–scatter exchanges
	Msgs, Words    float64 // their messages and words
	Allreduces     float64 // collectives, each coarse solve's three included
	AllreduceWords float64 // the words they combine, summed over calls
	CoarseSolves   float64
}

// reducedRun is a recorded run: its shape, and per step the work, the
// solver statistics and the virtual seconds it took.
type reducedRun struct {
	at      shape
	work    []stepWork
	stats   []ns.StepStats
	virtual []float64
	phase   [4]float64 // parrun.NSResult.PhaseVirtual
}

// record runs cfg's problem for steps steps on p simulated ranks, one batch
// per step, and reads each step's work off the machine's counters. p must
// be a power of two: the allreduce words are read off recursive doubling,
// where every rank sends each call's words once per round.
func record(cfg ns.Config, init flowcases.InitFunc, p, steps int) (*reducedRun, error) {
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("record: P = %d is not a power of two", p)
	}
	reg := instrument.New()
	s, err := parrun.Start(cfg, parrun.NSConfig{P: p, Init: init, Registry: reg})
	if err != nil {
		return nil, err
	}
	tmpl := s.Template()
	run := &reducedRun{at: shape{dim: tmpl.M.Dim, k: tmpl.M.K, n: tmpl.M.N, p: p}}
	if fac := tmpl.CoarseFactor(); fac != nil {
		run.at.coarse = fac.N
	}
	exch := reg.Timer("gs/exchange.vtime")
	msgs, words := reg.Counter("gs/exchange.msgs"), reg.Counter("gs/exchange.words")
	calls, bytes := reg.Counter("comm/allreduce.calls"), reg.Counter("comm/allreduce.bytes")
	coarse := reg.Timer("coarse/xxt.vtime")
	fp := float64(p)
	callBytes := 8 * float64(max(rounds(p), 1)) * fp  // a combined word costs each rank 8 bytes a round (none at P = 1)
	counters := func(res *parrun.NSResult) stepWork { // per rank, since the run began
		return stepWork{
			MM: float64(res.MMFlops) / fp, Vec: float64(res.VecFlops) / fp,
			Exchanges: float64(exch.Count()) / fp, Msgs: float64(msgs.Value()) / fp, Words: float64(words.Value()) / fp,
			Allreduces: float64(calls.Value()) / fp, AllreduceWords: float64(bytes.Value()) / callBytes,
			CoarseSolves: float64(coarse.Count()) / fp,
		}
	}
	res := s.Result()
	prev := counters(res)
	for i := 0; i < steps; i++ {
		if _, err := s.StepN(1); err != nil {
			return nil, fmt.Errorf("step %d of %d: %w", i+1, steps, err)
		}
		res = s.Result()
		cur := counters(res)
		run.work = append(run.work, cur.minus(prev))
		prev = cur
	}
	run.stats, run.virtual, run.phase = res.StepStats, res.StepVirtual, res.PhaseVirtual
	run.at.cross = res.CrossCols
	return run, nil
}

func (w stepWork) minus(v stepWork) stepWork {
	return stepWork{w.MM - v.MM, w.Vec - v.Vec, w.Exchanges - v.Exchanges, w.Msgs - v.Msgs,
		w.Words - v.Words, w.Allreduces - v.Allreduces, w.AllreduceWords - v.AllreduceWords,
		w.CoarseSolves - v.CoarseSolves}
}

// extrapolate scales w, measured at shape from, to shape to: tensor-product
// (matrix–matrix) work by (N+1)^{d+1}·K/P, vector work by (N+1)^d·K/P,
// gather–scatter words by the faces of a rank's block, (K/P)^{(d−1)/d}·
// (N+1)^{d−1}; of the allreduce words, each coarse solve's two vertex vectors
// by the coarse dofs and its separator combine by their separator volume,
// coarse^{(d−1)/d}. Counts of exchanges, messages, allreduces and coarse
// solves, and the words of the other allreduces, stay as measured. Each
// factor is a ratio of one formula at both shapes, so at from's own shape
// every count comes back unchanged.
func extrapolate(w stepWork, from, to shape) stepWork {
	d := float64(from.dim)
	perRank := func(s shape, pow float64) float64 {
		return math.Pow(float64(s.n+1), pow) * float64(s.k) / float64(s.p)
	}
	faces := func(s shape) float64 {
		return math.Pow(float64(s.k)/float64(s.p), (d-1)/d) * math.Pow(float64(s.n+1), d-1)
	}
	sep := func(s shape) float64 { return math.Pow(float64(s.coarse), (d-1)/d) }
	cross := 0.0
	if from.coarse > 0 {
		cross = float64(from.cross) * sep(to) / sep(from)
	}
	out := w
	out.MM = w.MM * (perRank(to, d+1) / perRank(from, d+1))
	out.Vec = w.Vec * (perRank(to, d) / perRank(from, d))
	out.Words = w.Words * (faces(to) / faces(from))
	out.AllreduceWords = w.AllreduceWords + w.CoarseSolves*(2*float64(to.coarse-from.coarse)+cross-float64(from.cross))
	return out
}

// rounds is the number of message rounds of an allreduce on p ranks, p a
// power of two: recursive doubling.
func rounds(p int) int { return bits.Len(uint(p - 1)) }

// seconds prices w on m as the simulated clock prices it: each flop class
// at its rate, each gather–scatter message at α plus β per byte, and each
// allreduce as rounds(P) messages of its words. Waits are not priced.
func seconds(w stepWork, m comm.Machine) float64 {
	r := float64(rounds(m.P))
	return w.MM*m.MMFlopSec + w.Vec*m.VecFlopSec +
		w.Msgs*m.Latency + 8*w.Words*m.ByteSec +
		r*(w.Allreduces*m.Latency+8*w.AllreduceWords*m.ByteSec)
}

// estimate is a priced run: seconds per step, and the whole machine's flops
// over the run's time.
type estimate struct {
	perStep []float64
	total   float64
	gflops  float64
}

// price extrapolates every step of run to to and prices it on m.
func price(run *reducedRun, to shape, m comm.Machine) estimate {
	e := estimate{perStep: make([]float64, len(run.work))}
	var flops float64
	for i, w := range run.work {
		x := extrapolate(w, run.at, to)
		e.perStep[i] = seconds(x, m)
		e.total += e.perStep[i]
		flops += (x.MM + x.Vec) * float64(to.p)
	}
	e.gflops = flops / e.total / 1e9
	return e
}

// recordHairpin runs the reduced hairpin for the paper's 26 steps on 8
// simulated ranks: K = 6×4×3 = 72 elements at N = 5, Re = 1600, at
// Δt = 0.025 (at Δt = 0.05 its velocity blows up at step 16); -quick runs
// K = 36 at N = 4, Re = 850, Δt = 0.05. Each takes about a second of host
// time.
func recordHairpin(quick bool) (*reducedRun, error) {
	c := flowcases.HairpinConfig{Nx: 6, Ny: 4, Nz: 3, N: 5, Re: 1600, Dt: 0.025, FilterA: 0.05}
	if quick {
		c = flowcases.HairpinConfig{Nx: 4, Ny: 3, Nz: 3, N: 4, Re: 850, Dt: 0.05, FilterA: 0.05}
	}
	cfg, init, err := flowcases.HairpinSpec(c)
	if err != nil {
		return nil, err
	}
	run, err := record(cfg, init, 8, hairpinSteps)
	if err != nil {
		return nil, fmt.Errorf("reduced hairpin K=%d N=%d Re=%g dt=%g: %w",
			c.Nx*c.Ny*c.Nz, c.N, c.Re, c.Dt, err)
	}
	return run, nil
}

// paperGF is Table 4's best corner: 2048 nodes, dual-processor, perf.
// kernels.
const paperGF = 319

// table4 prices 26 production steps at (K, N) = (8168, 15) on 512, 1024
// and 2048 ASCI-Red nodes, single- and dual-processor, with the std. and
// perf. kernel selections.
func table4(quick bool) error {
	run, err := recordHairpin(quick)
	if err != nil {
		return err
	}
	fmt.Println("Table 4: ASCI-Red-333 totals for 26 steps, K=8168, N=15, priced from the")
	fmt.Printf("counters of a reduced hairpin run (K=%d, N=%d, P=%d; see DESIGN.md)\n",
		run.at.k, run.at.n, run.at.p)
	fmt.Printf("%6s | %12s %8s | %12s %8s | %12s %8s | %12s %8s\n", "P",
		"single(std)", "GFLOPS", "dual(std)", "GFLOPS", "single(perf)", "GFLOPS", "dual(perf)", "GFLOPS")
	for _, p := range []int{512, 1024, 2048} {
		fmt.Printf("%6d", p)
		for _, perf := range []bool{false, true} {
			for _, dual := range []bool{false, true} {
				e := price(run, production(p), comm.ASCIRedNode(p, perf, dual))
				fmt.Printf(" | %10.0f s %8.0f", e.total, e.gflops)
			}
		}
		fmt.Println()
	}
	best := price(run, production(2048), comm.ASCIRedNode(2048, true, true))
	fmt.Printf("\nbest corner (2048, dual, perf): %.0f GFLOPS, %+.0f%% from the paper's %d GF\n",
		best.gflops, 100*(best.gflops/paperGF-1), paperGF)
	phaseBreakdown(run)
	fmt.Println("\nExpected shape (paper): near-linear strong scaling; dual mode ~1.4-1.6x;")
	fmt.Println("perf kernels ~5-20% over std; best corner (2048, dual, perf) sustains")
	fmt.Println("hundreds of GFLOPS (paper: 319 GF).")
	return nil
}

// phaseBreakdown prints where the reduced run's virtual time went, and the
// matrix–matrix share of its flops beside the share at the production shape.
func phaseBreakdown(run *reducedRun) {
	fmt.Printf("\nReduced run (P=%d): per-rank virtual time by phase\n", run.at.p)
	var tot float64
	for _, v := range run.phase {
		tot += v
	}
	for i, label := range []string{"convection", "viscous", "pressure", "filter"} {
		fmt.Printf("%12s %10.4f s %6.1f%%\n", label, run.phase[i], 100*run.phase[i]/tot)
	}
	var mm, vec, xmm, xvec float64
	to := production(2048)
	for _, w := range run.work {
		x := extrapolate(w, run.at, to)
		mm, vec, xmm, xvec = mm+w.MM, vec+w.Vec, xmm+x.MM, xvec+x.Vec
	}
	fmt.Printf("matrix-matrix share of flops: %.1f%% at N=%d, %.1f%% at N=%d (paper: over 90%%)\n",
		100*mm/(mm+vec), run.at.n, 100*xmm/(xmm+xvec), to.n)
}
