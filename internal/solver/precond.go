package solver

// precond.go: the Chebyshev acceleration shared by the Jacobi and Schwarz
// smoothing variants the pressure solve selects over at runtime. The
// Schwarz(FDM)+XXT sandwich stays the bitwise reference path; Chebyshev
// smoothing wraps a cheap base sweep
// (point-Jacobi on diag(E), or a coarse-free Schwarz pass) in a fixed-degree
// polynomial whose coefficients come from estimated eigenvalue bounds of
// the preconditioned operator — the construction of Phillips et al.,
// "Tuning Spectral Element Preconditioners for Parallel Scalability".

import "math"

// Chebyshev accelerates a base preconditioner with a degree-k Chebyshev
// polynomial in the preconditioned operator Base∘A, using the standard
// three-term recurrence (theta/delta form). The result stays symmetric
// positive definite for CG as long as the spectrum of Base∘A lies in
// (0, LMax]: the error polynomial satisfies q(0)=1 and |q|<1 on (0, LMax],
// so only an *underestimated* LMax can break it — which Calibrate detects
// and repairs by inflating the bound.
type Chebyshev struct {
	A      Operator // the operator being preconditioned (e.g. the pressure E)
	Base   Operator // the base sweep M⁻¹ (Jacobi diagonal, local Schwarz, ...)
	Degree int      // polynomial degree k ≥ 1 (k base applies, k-1 A applies)
	LMin   float64  // lower eigenvalue bound of Base∘A (smoother convention: LMax/30)
	LMax   float64  // upper eigenvalue bound of Base∘A (safety-inflated estimate)

	r, z, d, ad []float64 // iteration arenas, sized on first Apply
}

func (c *Chebyshev) grow(n int) {
	if cap(c.r) < n {
		c.r = make([]float64, n)
		c.z = make([]float64, n)
		c.d = make([]float64, n)
		c.ad = make([]float64, n)
	}
	c.r, c.z, c.d, c.ad = c.r[:n], c.z[:n], c.d[:n], c.ad[:n]
}

// Apply runs the preconditioned Chebyshev recurrence from a zero initial
// guess: out = p_k(Base∘A) Base in, with p_k the degree-k shifted Chebyshev
// polynomial on [LMin, LMax].
func (c *Chebyshev) Apply(out, in []float64) {
	n := len(in)
	c.grow(n)
	k := c.Degree
	if k < 1 {
		k = 1
	}
	theta := (c.LMax + c.LMin) / 2
	delta := (c.LMax - c.LMin) / 2
	if !(theta > 0) {
		theta = 1
	}
	if !(delta > 1e-12*theta) {
		// Degenerate spectrum (single eigenvalue, e.g. a 1-element periodic
		// mesh where the base sweep is exact up to scaling): one scaled base
		// application is the optimal polynomial.
		c.Base(c.z, in)
		for i := 0; i < n; i++ {
			out[i] = c.z[i] / theta
		}
		return
	}
	sigma := theta / delta
	rho := 1 / sigma
	copy(c.r, in)
	c.Base(c.z, c.r)
	for i := 0; i < n; i++ {
		c.d[i] = c.z[i] / theta
		out[i] = 0
	}
	for it := 1; ; it++ {
		for i := 0; i < n; i++ {
			out[i] += c.d[i]
		}
		if it == k {
			return
		}
		c.A(c.ad, c.d)
		for i := 0; i < n; i++ {
			c.r[i] -= c.ad[i]
		}
		c.Base(c.z, c.r)
		rhoNew := 1 / (2*sigma - rho)
		a, b := rhoNew*rho, 2*rhoNew/delta
		for i := 0; i < n; i++ {
			c.d[i] = a*c.d[i] + b*c.z[i]
		}
		rho = rhoNew
	}
}

// LCGFill fills v with a deterministic pseudo-random probe in [-0.5, 0.5)
// from a splitmix-style LCG, so bound estimates and trial right-hand sides
// are reproducible across runs and identical on every rank.
func LCGFill(v []float64, seed uint64) { lcgFill(v, seed) }

func lcgFill(v []float64, seed uint64) {
	s := seed ^ 0x9E3779B97F4A7C15
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(s>>11)/float64(1<<53) - 0.5
	}
}

// EstimateBounds sets c.LMax (and LMin = LMax/30, the usual smoother
// convention) from a short power iteration on Base∘A with a deterministic
// probe vector. deflate, when non-nil, removes the operator's null space
// from the iterate each step (constant pressure mode on enclosed domains).
// The estimate is inflated by 10% as a safety margin; a zero or NaN result
// (empty operator, degenerate mesh) falls back to LMax = 1.
func (c *Chebyshev) EstimateBounds(dot Dot, n, iters int, deflate func([]float64)) {
	if iters < 1 {
		iters = 20
	}
	v := make([]float64, n)
	w := make([]float64, n)
	t := make([]float64, n)
	lcgFill(v, 1)
	if deflate != nil {
		deflate(v)
	}
	lambda := 0.0
	for it := 0; it < iters; it++ {
		nv := math.Sqrt(dot(v, v))
		if !(nv > 0) {
			break
		}
		inv := 1 / nv
		for i := range v {
			v[i] *= inv
		}
		c.A(t, v)
		c.Base(w, t)
		if deflate != nil {
			deflate(w)
		}
		next := math.Sqrt(dot(w, w))
		copy(v, w)
		if it >= 2 && lambda > 0 && math.Abs(next-lambda) <= 1e-2*lambda {
			lambda = next
			break
		}
		lambda = next
	}
	if !(lambda > 0) || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		lambda = 1
	}
	c.LMax = 1.1 * lambda
	c.LMin = c.LMax / 30
}

// Calibrate verifies the bounds by power-iterating the Chebyshev error
// operator G = I - C·A (C this preconditioner): with correct bounds the
// error contracts, ‖Gv‖ < ‖v‖. If the iteration grows — LMax was
// underestimated and the polynomial amplifies the top of the spectrum —
// LMax is inflated 1.5× and re-checked, at most five rounds. Returns the
// number of inflation rounds applied (0 when the initial bounds hold).
func (c *Chebyshev) Calibrate(dot Dot, n int, deflate func([]float64)) int {
	v := make([]float64, n)
	w := make([]float64, n)
	t := make([]float64, n)
	rounds := 0
	for ; rounds <= 5; rounds++ {
		lcgFill(v, 2)
		if deflate != nil {
			deflate(v)
		}
		growth := 0.0
		for it := 0; it < 6; it++ {
			nv := math.Sqrt(dot(v, v))
			if !(nv > 0) {
				break
			}
			inv := 1 / nv
			for i := range v {
				v[i] *= inv
			}
			// w = G v = v - C A v
			c.A(t, v)
			c.Apply(w, t)
			for i := range w {
				w[i] = v[i] - w[i]
			}
			if deflate != nil {
				deflate(w)
			}
			growth = math.Sqrt(dot(w, w))
			copy(v, w)
		}
		if !(growth > 1.01) || math.IsNaN(growth) {
			return rounds
		}
		c.LMax *= 1.5
		c.LMin = c.LMax / 30
	}
	return rounds
}
