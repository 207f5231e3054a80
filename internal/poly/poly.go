// Package poly supplies the one-dimensional polynomial machinery of the
// spectral element method: Gauss–Legendre (GL) and Gauss–Lobatto–Legendre
// (GLL) quadrature rules, barycentric Lagrange interpolation, spectral
// differentiation matrices, grid-to-grid interpolation matrices, and the
// Legendre modal transform used by the Fischer–Mullen stabilizing filter
// (Sec. 2 of the paper).
package poly

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// Legendre evaluates the Legendre polynomial P_n and its derivative P'_n at
// x by the three-term recurrence.
func Legendre(n int, x float64) (p, dp float64) {
	if n == 0 {
		return 1, 0
	}
	pm1, p := 1.0, x
	dpm1, dp := 0.0, 1.0
	for k := 2; k <= n; k++ {
		fk := float64(k)
		pk := ((2*fk-1)*x*p - (fk-1)*pm1) / fk
		dpk := dpm1 + (2*fk-1)*p
		pm1, p = p, pk
		dpm1, dp = dp, dpk
	}
	return p, dp
}

// GaussLobatto returns the N+1 Gauss–Lobatto–Legendre quadrature points
// (ascending, including ±1) and weights on [-1, 1]. The rule is exact for
// polynomials of degree ≤ 2N-1. These are the nodal points of the spectral
// element basis (the "GL nodal lines" of Fig. 2 in the paper).
func GaussLobatto(n int) (x, w []float64) {
	if n < 1 {
		panic("poly: GaussLobatto requires n >= 1")
	}
	np := n + 1
	x = make([]float64, np)
	w = make([]float64, np)
	x[0], x[n] = -1, 1
	// Interior points are the roots of P'_N; Newton from Chebyshev-Lobatto
	// initial guesses.
	for j := 1; j < n; j++ {
		xi := -math.Cos(math.Pi * float64(j) / float64(n))
		for it := 0; it < 100; it++ {
			// P'_N(x) = N/(1-x²) (P_{N-1}(x) - x P_N(x)); iterate on the
			// derivative of (1-x²)P'_N which is -N(N+1)P_N... Use direct
			// Newton on g(x) = P'_N(x) with g'(x) = P''_N(x) obtained from
			// the Legendre ODE: (1-x²)P'' - 2xP' + N(N+1)P = 0.
			pn, dpn := Legendre(n, xi)
			d2 := (2*xi*dpn - float64(n)*float64(n+1)*pn) / (1 - xi*xi)
			dx := dpn / d2
			xi -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		x[j] = xi
	}
	nn := float64(n) * float64(n+1)
	for j := 0; j <= n; j++ {
		pn, _ := Legendre(n, x[j])
		w[j] = 2 / (nn * pn * pn)
	}
	return x, w
}

// Gauss returns the n Gauss–Legendre quadrature points (ascending) and
// weights on [-1, 1]; the rule is exact for degree ≤ 2n-1. These are the
// nodal points of the P_{N-2} pressure space.
func Gauss(n int) (x, w []float64) {
	if n < 1 {
		panic("poly: Gauss requires n >= 1")
	}
	x = make([]float64, n)
	w = make([]float64, n)
	for j := 0; j < n; j++ {
		// Chebyshev initial guess, refined by Newton on P_n.
		xi := -math.Cos(math.Pi * (float64(j) + 0.75) / (float64(n) + 0.5))
		var dpn float64
		for it := 0; it < 100; it++ {
			var pn float64
			pn, dpn = Legendre(n, xi)
			dx := pn / dpn
			xi -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		x[j] = xi
		w[j] = 2 / ((1 - xi*xi) * dpn * dpn)
	}
	return x, w
}

// BaryWeights returns the barycentric interpolation weights for the node set
// x, normalized to unit maximum magnitude for numerical robustness.
func BaryWeights(x []float64) []float64 {
	n := len(x)
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		w[j] = 1
		for k := 0; k < n; k++ {
			if k != j {
				w[j] /= x[j] - x[k]
			}
		}
	}
	maxw := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxw {
			maxw = a
		}
	}
	for j := range w {
		w[j] /= maxw
	}
	return w
}

// DerivMatrix returns the spectral differentiation matrix D for the Lagrange
// basis on nodes x: (D u)_i = u'(x_i) for u the interpolant of the nodal
// values. Row-major (len(x) x len(x)).
func DerivMatrix(x []float64) []float64 {
	n := len(x)
	w := BaryWeights(x)
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := (w[j] / w[i]) / (x[i] - x[j])
			d[i*n+j] = v
			rowSum += v
		}
		d[i*n+i] = -rowSum // rows of D annihilate constants
	}
	return d
}

// InterpMatrix returns the matrix J mapping nodal values on grid x to values
// at points y: (J u)_i = u(y_i), using barycentric Lagrange interpolation.
// J is len(y) x len(x), row-major.
func InterpMatrix(y, x []float64) []float64 {
	nx, ny := len(x), len(y)
	w := BaryWeights(x)
	j := make([]float64, ny*nx)
	for i := 0; i < ny; i++ {
		// Exact node hit?
		hit := -1
		for k := 0; k < nx; k++ {
			if y[i] == x[k] {
				hit = k
				break
			}
		}
		if hit >= 0 {
			j[i*nx+hit] = 1
			continue
		}
		var denom float64
		for k := 0; k < nx; k++ {
			denom += w[k] / (y[i] - x[k])
		}
		for k := 0; k < nx; k++ {
			j[i*nx+k] = (w[k] / (y[i] - x[k])) / denom
		}
	}
	return j
}

// LegendreVandermonde returns V with V[i*(n+1)+k] = P_k(x_i) for the node
// set x of length n+1; it maps Legendre modal coefficients to nodal values.
func LegendreVandermonde(x []float64) []float64 {
	np := len(x)
	v := make([]float64, np*np)
	for i, xi := range x {
		for k := 0; k < np; k++ {
			p, _ := Legendre(k, xi)
			v[i*np+k] = p
		}
	}
	return v
}

// FilterMatrix builds the Fischer–Mullen stabilizing filter F_α on the node
// set x (GLL points of degree N = len(x)-1):
//
//	F_α = α Π_{N-1} + (1-α) I,
//
// where Π_{N-1} interpolates to the GLL grid of degree N-1 and back. α = 0
// is the identity (no filtering); α = 1 completely removes the highest mode.
// F preserves polynomials of degree ≤ N-1 exactly and, because the GLL
// endpoints are shared, leaves element-boundary values C0-conforming.
func FilterMatrix(alpha float64, x []float64) []float64 {
	np := len(x)
	n := np - 1
	if n < 2 {
		// Degree too low to filter; identity.
		f := make([]float64, np*np)
		for i := 0; i < np; i++ {
			f[i*np+i] = 1
		}
		return f
	}
	xc, _ := GaussLobatto(n - 1)
	down := InterpMatrix(xc, x)  // N grid -> N-1 grid
	up := InterpMatrix(x, xc)    // N-1 grid -> N grid
	pi := make([]float64, np*np) // Π_{N-1}
	la.Mul(pi, up, down, np, n, np)
	f := make([]float64, np*np)
	for i := 0; i < np*np; i++ {
		f[i] = alpha * pi[i]
	}
	for i := 0; i < np; i++ {
		f[i*np+i] += 1 - alpha
	}
	return f
}

// ModalFilterMatrix builds a filter that damps Legendre modes directly:
// F = V diag(σ) V⁻¹ with σ_k = 1 for k < cutoff and a smooth quadratic
// ramp from 1 down to 1-α for k ≥ cutoff. With cutoff = N it damps only the
// top mode, matching FilterMatrix's action in exact arithmetic.
func ModalFilterMatrix(alpha float64, cutoff int, x []float64) ([]float64, error) {
	np := len(x)
	v := LegendreVandermonde(x)
	lu, err := la.FactorLU(v, np)
	if err != nil {
		return nil, fmt.Errorf("poly: Vandermonde singular: %w", err)
	}
	vinv := lu.Inverse()
	sigma := make([]float64, np)
	for k := 0; k < np; k++ {
		switch {
		case k < cutoff:
			sigma[k] = 1
		case np == cutoff+1:
			sigma[k] = 1 - alpha
		default:
			t := float64(k-cutoff) / float64(np-1-cutoff)
			sigma[k] = 1 - alpha*t*t
		}
	}
	// F = V diag(sigma) V⁻¹.
	vs := make([]float64, np*np)
	for i := 0; i < np; i++ {
		for k := 0; k < np; k++ {
			vs[i*np+k] = v[i*np+k] * sigma[k]
		}
	}
	f := make([]float64, np*np)
	la.Mul(f, vs, vinv, np, np, np)
	return f, nil
}
