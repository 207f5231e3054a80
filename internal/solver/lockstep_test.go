package solver

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// cgSequential is the one-system CG loop as it stood before the lockstep
// batch replaced it, kept as the reference the batch is compared against: one
// scalar inner product per reduction, in the order a lone solve issues them.
func cgSequential(apply Operator, dot Dot, x, b []float64, opt Options) Stats {
	n := len(b)
	r, z, p := make([]float64, n), make([]float64, n), make([]float64, n)
	q, xb := make([]float64, n), make([]float64, n)
	xNonZero := false
	for _, v := range x {
		if v != 0 {
			xNonZero = true
			break
		}
	}
	if xNonZero {
		apply(q, x)
		for i := range r {
			r[i] = b[i] - q[i]
		}
	} else {
		copy(r, b)
	}
	tol := opt.Tol
	if opt.Relative {
		tol *= math.Sqrt(dot(b, b))
	}
	res := math.Sqrt(dot(r, r))
	st := Stats{InitialRes: res}
	if opt.History {
		st.ResHist = append(st.ResHist, res)
	}
	if res <= tol {
		st.Converged = true
		st.FinalRes = res
		return st
	}
	precond := opt.Precond
	if precond == nil {
		precond = func(out, in []float64) { copy(out, in) }
	}
	precond(z, r)
	copy(p, z)
	rz := dot(r, z)
	best := res
	copy(xb, x)
	for it := 1; it <= opt.MaxIter; it++ {
		apply(q, p)
		pq := dot(p, q)
		if pq <= 0 {
			st.Iterations = it - 1
			st.FinalRes = best
			copy(x, xb)
			return st
		}
		alpha := rz / pq
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		res = math.Sqrt(dot(r, r))
		if opt.History {
			st.ResHist = append(st.ResHist, res)
		}
		if res <= tol {
			st.Iterations = it
			st.Converged = true
			st.FinalRes = res
			return st
		}
		if res < best {
			best = res
			copy(xb, x)
		} else if !(res <= 1e4*best) {
			st.Iterations = it
			st.FinalRes = best
			copy(x, xb)
			return st
		}
		precond(z, r)
		rz2 := dot(r, z)
		beta := rz2 / rz
		rz = rz2
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	st.Iterations = opt.MaxIter
	st.FinalRes = best
	copy(x, xb)
	return st
}

// lockstepCase is one operator with right-hand sides chosen so that the
// members of a batch leave it at different iterations and through every exit.
// The operator is block diagonal: SPD blocks of 3, 10 and 27 unknowns — CG on
// a right-hand side supported in one block ends within that many iterations —
// and a negative definite block of 8, where pᵀAp < 0 from the first step.
type lockstepCase struct {
	n      int
	apply  Operator
	jacobi Operator
	names  []string
	xs, bs [][]float64
}

func newLockstepCase(seed int64) *lockstepCase {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{3, 10, 27, 8}
	var blocks [][]float64
	c := &lockstepCase{}
	for _, m := range sizes {
		blocks = append(blocks, spd(rng, m))
		c.n += m
	}
	neg := blocks[3]
	for i := range neg {
		neg[i] = -neg[i]
	}
	c.apply = func(out, in []float64) {
		off := 0
		for k, m := range sizes {
			denseOp(blocks[k], m)(out[off:off+m], in[off:off+m])
			off += m
		}
	}
	diag := make([]float64, 0, c.n)
	for k, m := range sizes {
		for i := 0; i < m; i++ {
			diag = append(diag, math.Abs(blocks[k][i*m+i]))
		}
	}
	c.jacobi = func(out, in []float64) {
		for i := range in {
			out[i] = in[i] / diag[i]
		}
	}
	// supported returns a random vector that is zero outside [lo, hi).
	supported := func(lo, hi int) []float64 {
		v := make([]float64, c.n)
		for i := lo; i < hi; i++ {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	add := func(name string, x, b []float64) {
		c.names = append(c.names, name)
		c.xs, c.bs = append(c.xs, x), append(c.bs, b)
	}
	zero := func() []float64 { return make([]float64, c.n) }
	add("3-block, cold", zero(), supported(0, 3))
	add("27-block, cold: runs into MaxIter", zero(), supported(13, 40))
	add("zero right-hand side: starts converged", zero(), zero())
	sol := supported(0, 40)
	asol := zero()
	c.apply(asol, sol)
	add("warm start at the solution: starts converged", sol, asol)
	add("negative block: pq <= 0 at once", zero(), supported(40, 48))
	add("10-block, warm", supported(3, 13), supported(3, 13))
	add("all SPD blocks, warm", supported(0, 40), supported(0, 40))
	add("SPD and negative blocks mixed", zero(), supported(0, 48))
	add("10-block, cold", zero(), supported(3, 13))
	return c
}

// reductions counts them: join for a batch, dot for the sequential loop.
type reductions int

func (n *reductions) join(vals []float64) { *n++ }

func (n *reductions) dot(u, v []float64) float64 {
	*n++
	return plainDot(u, v)
}

// applications counts the operator's: the batch form's calls and the vectors
// they carry, and one apiece for a single-vector Operator.
type applications struct{ calls, vectors int }

func (n *applications) batch(a Operator) BatchOperator {
	return func(outs, ins [][]float64) {
		if len(outs) != len(ins) || len(outs) == 0 {
			panic("a batch application of no vectors or of unpaired ones")
		}
		n.calls++
		n.vectors += len(outs)
		for i := range outs {
			a(outs[i], ins[i])
		}
	}
}

func (n *applications) single(a Operator) Operator {
	return func(out, in []float64) {
		n.vectors++
		a(out, in)
	}
}

func clone2(vs [][]float64) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

// TestLockstepCGIsTheSequentialSolves: a batch gives every member bitwise the
// iterate and the statistics of a solve on its own — through convergence at
// different iterations, a start at the solution, MaxIter, pq <= 0, absolute
// and relative tolerances, with and without history and preconditioner — and
// costs the reductions of its longest member, not their sum. It applies the
// operator once per pass to every system that needs an image: a warm start's
// residual in the first pass, then one search direction per live system, so
// the batch makes the operator calls of its longest member and the vector
// applications of all of them. One Scratch serves batches of every width in
// turn.
func TestLockstepCGIsTheSequentialSolves(t *testing.T) {
	scratch := &Scratch{}
	for seed := int64(1); seed <= 3; seed++ {
		c := newLockstepCase(seed)
		exits := map[string]bool{}
		for _, relative := range []bool{false, true} {
			for _, history := range []bool{false, true} {
				for _, pre := range []Operator{nil, c.jacobi} {
					opt := Options{Tol: 1e-9, Relative: relative, History: history, MaxIter: 12, Precond: pre}
					label := fmt.Sprintf("seed %d relative=%v history=%v precond=%v", seed, relative, history, pre != nil)

					wantX := clone2(c.xs)
					want := make([]Stats, len(c.bs))
					longest, sum := 0, 0
					// Per member alone: operator applications, and 1 for a
					// warm start (its residual is the first pass's).
					applied, warm := make([]int, len(c.bs)), make([]int, len(c.bs))
					for i := range c.bs {
						var n reductions
						var a applications
						for _, v := range wantX[i] {
							if v != 0 {
								warm[i] = 1
								break
							}
						}
						want[i] = cgSequential(a.single(c.apply), n.dot, wantX[i], c.bs[i], opt)
						applied[i] = a.vectors
						longest, sum = max(longest, int(n)), sum+int(n)
						switch st := want[i]; {
						case st.Converged && st.Iterations == 0:
							exits["starts converged"] = true
						case st.Converged:
							exits[fmt.Sprintf("converges at %d", st.Iterations)] = true
						case st.Iterations == opt.MaxIter:
							exits["MaxIter"] = true
						default:
							exits["breakdown"] = true
						}
					}

					for _, width := range []int{len(c.bs), 1, 4} {
						gotX, bs := clone2(c.xs), clone2(c.bs)
						got := make([]Stats, len(bs))
						var n reductions
						opt.Scratch = scratch
						for lo := 0; lo < len(bs); lo += width {
							hi := min(lo+width, len(bs))
							var a applications
							CGBatch(a.batch(c.apply), plainDot, n.join, gotX[lo:hi], bs[lo:hi], opt, got[lo:hi])
							wantCalls, wantVectors, anyWarm := 0, 0, 0
							for i := lo; i < hi; i++ {
								wantCalls = max(wantCalls, applied[i]-warm[i])
								wantVectors += applied[i]
								anyWarm = max(anyWarm, warm[i])
							}
							if wantCalls += anyWarm; a.calls != wantCalls || a.vectors != wantVectors {
								t.Errorf("%s, width %d, members %d-%d: %d batch applications of %d vectors, want %d of %d",
									label, width, lo, hi-1, a.calls, a.vectors, wantCalls, wantVectors)
							}
						}
						for i := range bs {
							if !reflect.DeepEqual(got[i], want[i]) {
								t.Errorf("%s, width %d, %s: stats %+v, alone %+v", label, width, c.names[i], got[i], want[i])
							}
							for j := range gotX[i] {
								if math.Float64bits(gotX[i][j]) != math.Float64bits(wantX[i][j]) {
									t.Errorf("%s, width %d, %s: x[%d] = %g, alone %g", label, width, c.names[i], j, gotX[i][j], wantX[i][j])
									break
								}
							}
							if !reflect.DeepEqual(bs[i], c.bs[i]) {
								t.Errorf("%s, width %d, %s: right-hand side overwritten", label, width, c.names[i])
							}
						}
						// Cold members reuse ‖b‖² as ‖r‖², so under a relative
						// tolerance a batch of one saves a reduction on each.
						if width == len(bs) && int(n) > longest {
							t.Errorf("%s: the batch took %d reductions, its longest member alone %d (all members: %d)",
								label, int(n), longest, sum)
						}
						if width == 1 && int(n) > sum {
							t.Errorf("%s: one at a time took %d reductions, the sequential loop %d", label, int(n), sum)
						}
					}
				}
			}
		}
		t.Logf("seed %d: exits taken: %v", seed, exits)
		for _, exit := range []string{"starts converged", "MaxIter", "breakdown"} {
			if !exits[exit] {
				t.Errorf("seed %d: no member left through %q: %v", seed, exit, exits)
			}
		}
		if len(exits) < 5 {
			t.Errorf("seed %d: members converge at too few different iterations: %v", seed, exits)
		}
	}
}
