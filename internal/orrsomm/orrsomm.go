// Package orrsomm solves the Orr–Sommerfeld eigenproblem for plane
// Poiseuille flow (U = 1 - y²) by Chebyshev collocation with complex
// shift-invert power iteration. It supplies the linear-theory reference
// growth rate and the Tollmien–Schlichting eigenfunction used as the
// initial condition of the Table 1 convergence study (Re = 7500, α = 1,
// following Malik, Zang & Hussaini).
//
// The perturbation streamfunction ψ = φ(y) e^{iα(x - ct)} satisfies
//
//	(U - c)(φ'' - α²φ) - U'' φ = (1/(iαRe)) (φ'''' - 2α²φ'' + α⁴φ)
//
// with clamped boundary conditions φ(±1) = φ'(±1) = 0; the temporal growth
// rate of the perturbation energy amplitude is α·Im(c).
package orrsomm

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/la"
	"repro/internal/poly"
)

// Result is a converged Orr–Sommerfeld eigenpair. Solve hands the same
// Result to every caller that asks for the same eigenproblem, so it is
// read-only: no caller may write to it or to its slices.
type Result struct {
	Re, Alpha float64
	C         complex128   // complex phase speed
	Y         []float64    // Chebyshev collocation points (descending from +1)
	Phi       []complex128 // streamfunction eigenfunction, max-normalized
	DPhi      []complex128 // dφ/dy at the collocation points
	// Iterations is the number of shift-invert power iterations taken and
	// Residual the eigen-residual ‖Lφ − cMφ‖/‖Mφ‖ of the returned pair
	// (1e-11 for the TS mode at n = 128: the rounding floor of D⁴). Solve
	// stops on the eigenvalue settling, which bounds the residual only when
	// the shift singles out one eigenvalue; a caller that moves the shift
	// towards a branch junction should read this.
	Iterations int
	Residual   float64
	baryW      []float64
}

// GrowthRate returns the temporal amplitude growth rate α·Im(c).
func (r *Result) GrowthRate() float64 { return r.Alpha * imag(r.C) }

// Solve computes the eigenvalue of the Orr–Sommerfeld operator nearest the
// shift sigma, with n+1 Chebyshev collocation points. For the
// Tollmien–Schlichting branch at Re = 7500, α = 1 use sigma ≈ 0.25+0.002i.
//
// A process solves each (re, alpha, n, sigma) once: a converged pair is kept
// and returned, shared and read-only, to every later call with the same
// arguments; a failed solve is not kept.
func Solve(re, alpha float64, n int, sigma complex128) (*Result, error) {
	bits := math.Float64bits
	k := memoKey{bits(re), bits(alpha), n, bits(real(sigma)), bits(imag(sigma))}
	memo.Lock()
	defer memo.Unlock()
	if r, ok := memo.solved[k]; ok {
		return r, nil
	}
	r, err := solve(re, alpha, n, sigma, true)
	if err == nil {
		memo.solved[k] = r
	}
	return r, err
}

// memoKey is Solve's arguments bit for bit.
type memoKey struct {
	re, alpha uint64
	n         int
	sr, si    uint64
}

// memo holds the process's converged solves. The lock is held across a
// solve, so concurrent first calls with one key solve it once.
var memo = struct {
	sync.Mutex
	solved map[memoKey]*Result
}{solved: map[memoKey]*Result{}}

// solve is Solve. With stopWhenStalled false the power iteration stops on the
// 1e-14 test alone, which at n = 128 means at its cap: the eigenpair Solve
// returned before it recognised the rounding floor, kept as the reference the
// tests hold the early stop to.
func solve(re, alpha float64, n int, sigma complex128, stopWhenStalled bool) (*Result, error) {
	np := n + 1
	// Chebyshev–Gauss–Lobatto points, y_0 = 1 … y_n = -1.
	y := make([]float64, np)
	for j := 0; j < np; j++ {
		y[j] = math.Cos(math.Pi * float64(j) / float64(n))
	}
	d1 := poly.DerivMatrix(y)
	d2 := matmulSq(d1, d1, np)
	d4 := matmulSq(d2, d2, np)

	a2 := alpha * alpha
	a4 := a2 * a2
	ialphaRe := complex(0, alpha*re)
	l := make([]complex128, np*np)
	m := make([]complex128, np*np)
	for i := 0; i < np; i++ {
		u := 1 - y[i]*y[i]
		upp := -2.0
		for j := 0; j < np; j++ {
			lap := d2[i*np+j]
			if i == j {
				lap -= a2
			}
			visc := d4[i*np+j] - 2*a2*d2[i*np+j]
			if i == j {
				visc += a4
			}
			l[i*np+j] = complex(u*lap, 0) - complex(visc, 0)/ialphaRe
			if i == j {
				l[i*np+j] -= complex(upp, 0)
			}
			m[i*np+j] = complex(lap, 0)
		}
	}
	// Boundary rows: φ(±1) = 0 on rows 0 and n; φ'(±1) = 0 on rows 1, n-1.
	setRow := func(row int, lrow []complex128) {
		for j := 0; j < np; j++ {
			l[row*np+j] = lrow[j]
			m[row*np+j] = 0
		}
	}
	e0 := make([]complex128, np)
	e0[0] = 1
	en := make([]complex128, np)
	en[np-1] = 1
	dp0 := make([]complex128, np)
	dpn := make([]complex128, np)
	for j := 0; j < np; j++ {
		dp0[j] = complex(d1[0*np+j], 0)
		dpn[j] = complex(d1[n*np+j], 0)
	}
	setRow(0, e0)
	setRow(1, dp0)
	setRow(n-1, dpn)
	setRow(n, en)

	// Shift-invert power iteration on (L - σM)⁻¹ M.
	shifted := make([]complex128, np*np)
	for i := range shifted {
		shifted[i] = l[i] - sigma*m[i]
	}
	lu, err := la.FactorCLU(shifted, np)
	if err != nil {
		return nil, fmt.Errorf("orrsomm: shifted operator singular: %w", err)
	}
	x := make([]complex128, np)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)+1), math.Cos(2*float64(i)))
	}
	w := make([]complex128, np)
	var theta complex128
	// The relative change of θ falls geometrically to the rounding floor of
	// the ill-conditioned D⁴ operator (1e-12 … 1e-10 at n = 128) and wanders
	// there, so "below 1e-14" alone never fires: stop as well once the change
	// is small and has stopped shrinking.
	const maxIter, stalledBelow = 200, 1e-8
	change, iters := math.Inf(1), 0
	for iters < maxIter {
		la.CMatVec(w, m, x, np, np)
		lu.Solve(w, w)
		// θ = xᴴ w / xᴴ x, then normalize.
		var num, den complex128
		for i := range x {
			num += cmplx.Conj(x[i]) * w[i]
			den += cmplx.Conj(x[i]) * x[i]
		}
		thetaNew := num / den
		var nrm float64
		for _, v := range w {
			nrm += real(v)*real(v) + imag(v)*imag(v)
		}
		inv := complex(1/math.Sqrt(nrm), 0)
		for i := range x {
			x[i] = w[i] * inv
		}
		prev := change
		change = cmplx.Abs(thetaNew-theta) / cmplx.Abs(thetaNew)
		theta = thetaNew
		iters++
		if iters > 3 && (change < 1e-14 || (stopWhenStalled && change < stalledBelow && change >= prev)) {
			break
		}
	}
	if theta == 0 || !(change < stalledBelow) {
		return nil, fmt.Errorf("orrsomm: power iteration not converged after %d iterations (relative change %.2g)", iters, change)
	}
	c := sigma + 1/theta

	// Normalize the eigenfunction to unit max magnitude.
	var maxAbs float64
	var at complex128 = 1
	for _, v := range x {
		if a := cmplx.Abs(v); a > maxAbs {
			maxAbs = a
			at = v
		}
	}
	// Dividing by the max-magnitude entry makes that entry exactly 1 (real),
	// fixing both scale and phase of the eigenfunction.
	for i := range x {
		x[i] = x[i] / at
	}
	dphi := make([]complex128, np)
	for i := 0; i < np; i++ {
		var s complex128
		for j := 0; j < np; j++ {
			s += complex(d1[i*np+j], 0) * x[j]
		}
		dphi[i] = s
	}
	// Eigen-residual of (c, φ) on the collocation operators (w is free now).
	lphi := make([]complex128, np)
	la.CMatVec(lphi, l, x, np, np)
	la.CMatVec(w, m, x, np, np)
	var rr, mm float64
	for i := range w {
		r := lphi[i] - c*w[i]
		rr += real(r)*real(r) + imag(r)*imag(r)
		mm += real(w[i])*real(w[i]) + imag(w[i])*imag(w[i])
	}
	return &Result{
		Re: re, Alpha: alpha, C: c, Y: y,
		Phi: x, DPhi: dphi,
		Iterations: iters, Residual: math.Sqrt(rr / mm),
		baryW: poly.BaryWeights(y),
	}, nil
}

func matmulSq(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	la.Mul(c, a, b, n, n, n)
	return c
}

// interp evaluates a complex nodal field at y by barycentric interpolation.
func (r *Result) interp(f []complex128, y float64) complex128 {
	var num, den complex128
	for k, yk := range r.Y {
		if y == yk {
			return f[k]
		}
		c := complex(r.baryW[k]/(y-yk), 0)
		num += c * f[k]
		den += c
	}
	return num / den
}

// Velocity returns the real perturbation velocity (u', v') of the TS wave
// at position (x, y) and time t, scaled to amplitude eps:
// u' = Re[φ'(y) e^{iα(x-ct)}], v' = Re[-iα φ(y) e^{iα(x-ct)}].
func (r *Result) Velocity(x, y, t, eps float64) (float64, float64) {
	return r.velocity(r.interp(r.Phi, y), r.interp(r.DPhi, y), x, t, eps)
}

// velocity is Velocity at a y where φ = phi and φ' = dphi.
func (r *Result) velocity(phi, dphi complex128, x, t, eps float64) (float64, float64) {
	phase := cmplx.Exp(complex(0, r.Alpha) * (complex(x, 0) - r.C*complex(t, 0)))
	up := dphi * phase
	vp := complex(0, -r.Alpha) * phi * phase
	return eps * real(up), eps * real(vp)
}

// Wave is a Result's TS wave with φ and φ' tabulated at a set of y, such as
// the distinct y of a mesh's nodes: its velocity at a tabulated y costs one
// complex exponential in place of two barycentric interpolations, and is
// Result.Velocity's bit for bit. It is read-only once built.
type Wave struct {
	r    *Result
	mode map[float64][2]complex128 // y → (φ(y), φ'(y))
}

// Wave tabulates φ and φ' once per distinct value of ys.
func (r *Result) Wave(ys []float64) *Wave {
	w := &Wave{r: r, mode: map[float64][2]complex128{}}
	for _, y := range ys {
		if _, ok := w.mode[y]; !ok {
			w.mode[y] = [2]complex128{r.interp(r.Phi, y), r.interp(r.DPhi, y)}
		}
	}
	return w
}

// Velocity is Result.Velocity, from the table where y is in it.
func (w *Wave) Velocity(x, y, t, eps float64) (float64, float64) {
	m, ok := w.mode[y]
	if !ok {
		return w.r.Velocity(x, y, t, eps)
	}
	return w.r.velocity(m[0], m[1], x, t, eps)
}

// BaseFlow returns the plane Poiseuille base profile U(y) = 1 - y².
func BaseFlow(y float64) float64 { return 1 - y*y }
