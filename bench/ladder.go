package main

// ladder.go is the layer ladder of the traced pass: one rung per layer,
// each a micro-measurement of that layer's public functions on the
// workload's own problem (its order, dimension, mesh and resolved
// preconditioner), under a span. It fills the per-layer metrics that no
// registry inside the program provides: matmul kernel → tensor apply →
// operator (Helmholtz, gradient, E) → gather–scatter → preconditioner →
// checkpoint.

import (
	"bytes"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/gs"
	"repro/internal/la"
	"repro/internal/ns"
	"repro/internal/solver"
	"repro/internal/tensor"
)

// sink keeps the compiler from discarding measured work.
var sink float64

// rungBudget sizes one ladder rung: reps batches of about batch each.
type rungBudget struct {
	batch time.Duration
	reps  int
}

// calls returns how many calls of fn make a batch of about b.batch.
func (b rungBudget) calls(fn func()) int {
	for n := 1; ; n *= 4 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el := time.Since(t0); el >= b.batch/4 || n >= 1<<22 {
			return int(float64(n)*float64(b.batch)/float64(el+1)) + 1
		}
	}
}

// perCall returns the median seconds per call of fn over the budget's
// batches.
func (b rungBudget) perCall(fn func()) float64 {
	n := b.calls(fn)
	samples := make([]float64, b.reps)
	for r := range samples {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples[r] = time.Since(t0).Seconds() / float64(n)
	}
	return median(samples)
}

// paired times a and b in alternating batches of the same length and
// returns the median seconds per call of a and the median, over the pairs,
// of how much longer a call of a takes than a call of b: a difference of
// two separately taken medians would carry the machine's drift between them.
func (b rungBudget) paired(fa, fb func()) (aSec, diffSec float64) {
	n := b.calls(fa)
	as, diffs := make([]float64, b.reps), make([]float64, b.reps)
	for r := range as {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fa()
		}
		t1 := time.Now()
		for i := 0; i < n; i++ {
			fb()
		}
		as[r] = t1.Sub(t0).Seconds() / float64(n)
		diffs[r] = as[r] - time.Since(t1).Seconds()/float64(n)
	}
	return median(as), median(diffs)
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// serialLadder measures the serial layers on the reference solver s and
// returns the share of a pressure-CG iteration its operators (E applies,
// Schwarz sandwiches) take; the rest is CG's own vector work.
func serialLadder(layers map[string]float64, s *ns.Solver, rng *rand.Rand, b rungBudget, t *track) (operatorShare float64) {
	m := s.M
	np1 := m.N + 1
	n := m.K * m.Np
	rung := func(name string, fn func()) float64 {
		var sec float64
		t.span("ladder/"+name, 0, func() { sec = b.perCall(fn) })
		return sec
	}

	// la: the square derivative-operator shapes tensor.Apply* produces.
	mulShapes, abtShapes := la.ShapesForOrder(m.N, m.Dim)
	sm, sa := mulShapes[0], abtShapes[0]
	{
		a, bb, c := randVec(rng, sm[0]*sm[1]), randVec(rng, sm[1]*sm[2]), make([]float64, sm[0]*sm[2])
		sec := rung("la.mul", func() { la.Mul(c, a, bb, sm[0], sm[1], sm[2]) })
		sink += c[0]
		flops := 2 * float64(sm[0]*sm[1]*sm[2])
		layers["la.mul_gflops"] = flops / sec / 1e9
		layers["la.flops_per_byte"] = flops / (8 * float64(sm[0]*sm[1]+sm[1]*sm[2]+sm[0]*sm[2]))
	}
	{
		a, bb, c := randVec(rng, sa[0]*sa[1]), randVec(rng, sa[2]*sa[1]), make([]float64, sa[0]*sa[2])
		sec := rung("la.mulabt", func() { la.MulABt(c, a, bb, sa[0], sa[1], sa[2]) })
		sink += c[0]
		layers["la.mulabt_gflops"] = 2 * float64(sa[0]*sa[1]*sa[2]) / sec / 1e9
	}

	// tensor: one element's (D ⊗ D [⊗ D]) u.
	{
		u, out := randVec(rng, m.Np), make([]float64, m.Np)
		var sec float64
		var flops int64
		if m.Dim == 2 {
			work := make([]float64, m.Np)
			flops = tensor.FlopsApply2D(np1, np1, np1, np1)
			sec = rung("tensor.apply", func() { tensor.Apply2D(out, m.D, m.D, u, work, np1, np1, np1, np1) })
		} else {
			work := make([]float64, tensor.Work3DLen(np1, np1, np1, np1, np1, np1))
			flops = tensor.FlopsApply3D(np1, np1, np1, np1, np1, np1)
			sec = rung("tensor.apply", func() { tensor.Apply3D(out, m.D, m.D, m.D, u, work, np1, np1, np1, np1, np1, np1) })
		}
		sink += out[0]
		layers["tensor.apply_ns_per_elem"] = sec * 1e9
		layers["tensor.apply_gflops"] = float64(flops) / sec / 1e9
	}

	// sem: Helmholtz, gradient and inner product on the velocity grid.
	d := s.Disc()
	u, v := randVec(rng, n), make([]float64, n)
	h1, h2 := 1/s.Cfg.Re, 1.5/s.Cfg.Dt
	{
		f0 := d.Flops()
		d.Helmholtz(v, u, h1, h2)
		layers["sem.flops_per_helmholtz"] = float64(d.Flops() - f0)
		sec := rung("sem.helmholtz", func() { d.Helmholtz(v, u, h1, h2) })
		layers["sem.helmholtz_us"] = sec * 1e6
		layers["sem.helmholtz_ns_per_dof"] = sec * 1e9 / float64(n)
		outs := make([][]float64, m.Dim)
		for c := range outs {
			outs[c] = make([]float64, n)
		}
		layers["sem.grad_us"] = rung("sem.grad", func() { d.Grad(outs, u) }) * 1e6
		layers["sem.dot_us"] = rung("sem.dot", func() { sink += d.Dot(u, v) }) * 1e6
	}

	// gs: direct stiffness summation of one field (zeros: Sum leaves them
	// zero, so repeated applications cannot overflow).
	{
		z := make([]float64, n)
		layers["gs.apply_us"] = rung("gs.apply", func() { d.GS.Apply(z, gs.Sum) }) * 1e6
	}

	// ns: E = D B̃⁻¹ Dᵀ and its two halves, from public functions.
	ops := newNSOps(s, rng)
	layers["ns.gradt_us"] = rung("ns.gradt", func() { s.GradientT(ops.g, ops.p) }) * 1e6
	layers["ns.div_us"] = rung("ns.div", func() { s.Divergence(ops.out, ops.u3) }) * 1e6
	layers["ns.e_apply_us"] = rung("ns.e_apply", func() { ops.eApply(ops.out, ops.p, nil) }) * 1e6
	ops.eApply(ops.out, ops.p, t) // once more with a span per layer call, for the trace

	// schwarz: the additive Schwarz preconditioner with and without its
	// coarse solve.
	layers["schwarz.apply_us"], layers["schwarz.local_us"], layers["schwarz.coarse_us"] = 0, 0, 0
	if pre := s.PressurePre(); pre != nil {
		r := randVec(rng, n)
		d.GS.Apply(r, gs.Sum) // Apply expects an assembled residual
		full := rung("schwarz.apply", func() { pre.Apply(v, r) })
		local := rung("schwarz.local", func() { pre.ApplyLocal(v, r) })
		layers["schwarz.apply_us"] = full * 1e6
		layers["schwarz.local_us"] = local * 1e6
		layers["schwarz.coarse_us"] = (full - local) * 1e6
		ops.sandwich(ops.out, ops.p, false, t)
	}

	// solver: a fixed number of solver.CG iterations over E and the resolved
	// preconditioner, against the same operator applications without CG
	// around them. Both loops alternate the operators as the pressure solve
	// does (E and the sandwich evict each other's working set, which the
	// separate rungs above do not see); what CG adds is its vector work.
	precond, nE, nS := ops.precond()
	rhs, x := make([]float64, len(ops.p)), make([]float64, len(ops.p))
	ops.eApply(rhs, ops.p, nil) // a right-hand side in the range of E
	apply := func(out, in []float64) { ops.eApply(out, in, nil) }
	opt := solver.Options{MaxIter: 40, Precond: precond, Scratch: &solver.Scratch{}}
	iters := solver.CG(apply, la.Dot, x, rhs, opt).Iterations
	var cgSec, vectorSec float64
	t.span("ladder/solver.cg", 0, func() {
		cgSec, vectorSec = b.paired(func() {
			for i := range x {
				x[i] = 0
			}
			solver.CG(apply, la.Dot, x, rhs, opt)
		}, func() {
			for it := 0; it < iters; it++ {
				for i := 0; i < nE; i++ {
					ops.eApply(ops.out, ops.p, nil)
				}
				for i := 0; i < nS; i++ {
					ops.sandwich(ops.out, ops.p, false, nil)
				}
			}
		})
	})
	operatorShare = 1 - vectorSec/cgSec

	// ns: checkpoint capture + encoding.
	{
		var buf bytes.Buffer
		sec := rung("ns.checkpoint", func() {
			buf.Reset()
			if err := s.Checkpoint().Encode(&buf); err != nil {
				panic(err) // gob into a bytes.Buffer cannot fail
			}
		})
		layers["ns.checkpoint_ms"] = sec * 1e3
		layers["ns.checkpoint_bytes"] = float64(buf.Len())
	}
	return operatorShare
}

// poolSpeedup is the E-apply time of a one-worker solver over that of a
// solver with `workers` element-loop workers on the same problem: what the
// sem worker pool buys the operator that dominates the pressure solve. It
// is the one measurement that runs on `workers` processors.
func poolSpeedup(cfg ns.Config, precond string, workers int, rng *rand.Rand, b rungBudget, t *track) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	var secs [2]float64
	for i, w := range []int{1, workers} {
		cfg.Workers = w
		cfg.PressurePrecond = precond
		s, err := ns.New(cfg)
		if err != nil {
			return 0, err
		}
		ops := newNSOps(s, rng)
		t.span("ladder/sem.pool", w, func() { secs[i] = b.perCall(func() { ops.eApply(ops.out, ops.p, nil) }) })
		s.Close()
	}
	return secs[0] / secs[1], nil
}
