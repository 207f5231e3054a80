package orrsomm

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestOrszagEigenvalue(t *testing.T) {
	// Orszag (1971): plane Poiseuille, Re = 10000, α = 1:
	// c = 0.23752649 + 0.00373967i.
	r, err := Solve(10000, 1, 128, complex(0.237, 0.0037))
	if err != nil {
		t.Fatal(err)
	}
	want := complex(0.23752649, 0.00373967)
	if cmplx.Abs(r.C-want) > 2e-6 {
		t.Errorf("c = %v, want %v (|diff| = %g)", r.C, want, cmplx.Abs(r.C-want))
	}
}

func TestRe7500Unstable(t *testing.T) {
	// The Table 1 configuration: Re = 7500, α = 1 is linearly unstable.
	r, err := Solve(7500, 1, 128, complex(0.25, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	if imag(r.C) <= 0 {
		t.Errorf("Re=7500 TS mode should be unstable, got c = %v", r.C)
	}
	if r.GrowthRate() < 1e-3 || r.GrowthRate() > 4e-3 {
		t.Errorf("growth rate %g outside the expected TS band", r.GrowthRate())
	}
	t.Logf("Re=7500 alpha=1: c = %v, growth rate = %.8f", r.C, r.GrowthRate())
}

func TestEigenvalueGridConverged(t *testing.T) {
	r1, err := Solve(7500, 1, 96, complex(0.25, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(7500, 1, 144, complex(0.25, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(r1.C-r2.C) > 1e-7 {
		t.Errorf("eigenvalue not grid converged: %v vs %v", r1.C, r2.C)
	}
}

func TestBoundaryConditions(t *testing.T) {
	r, err := Solve(7500, 1, 128, complex(0.25, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.Phi) - 1
	for _, idx := range []int{0, n} {
		if cmplx.Abs(r.Phi[idx]) > 1e-10 {
			t.Errorf("phi(%g) = %v, want 0", r.Y[idx], r.Phi[idx])
		}
		if cmplx.Abs(r.DPhi[idx]) > 1e-7 {
			t.Errorf("phi'(%g) = %v, want 0", r.Y[idx], r.DPhi[idx])
		}
	}
	// Max-normalized.
	var maxAbs float64
	for _, v := range r.Phi {
		if a := cmplx.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if math.Abs(maxAbs-1) > 1e-12 {
		t.Errorf("eigenfunction not max-normalized: %g", maxAbs)
	}
}

func TestVelocityPerturbationDivergenceFree(t *testing.T) {
	// u' = ∂ψ/∂y, v' = -∂ψ/∂x is analytically divergence free; check by
	// finite differences of the evaluated field.
	r, err := Solve(7500, 1, 128, complex(0.25, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-5
	for _, pt := range [][2]float64{{0.3, 0.2}, {1.1, -0.5}, {2.0, 0.7}} {
		x, y := pt[0], pt[1]
		up, _ := r.Velocity(x+h, y, 0, 1)
		um, _ := r.Velocity(x-h, y, 0, 1)
		_, vp := r.Velocity(x, y+h, 0, 1)
		_, vm := r.Velocity(x, y-h, 0, 1)
		div := (up-um)/(2*h) + (vp-vm)/(2*h)
		if math.Abs(div) > 1e-4 {
			t.Errorf("perturbation divergence %g at (%g,%g)", div, x, y)
		}
	}
	// Amplitude scales linearly with eps.
	u1, v1 := r.Velocity(0.5, 0.1, 0, 1)
	u2, v2 := r.Velocity(0.5, 0.1, 0, 1e-5)
	if math.Abs(u2-1e-5*u1) > 1e-18 || math.Abs(v2-1e-5*v1) > 1e-18 {
		t.Error("eps scaling broken")
	}
}

func TestTemporalGrowthMatchesEigenvalue(t *testing.T) {
	// |e^{-iαct}| = e^{α Im(c) t}: the Velocity amplitude at t must equal
	// the t=0 amplitude times the growth factor.
	r, err := Solve(7500, 1, 96, complex(0.25, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	tEnd := 3.0
	growth := math.Exp(r.GrowthRate() * tEnd)
	// Compare complex amplitudes: sample u' over a period in x and fit the
	// amplitude via RMS.
	rms := func(tt float64) float64 {
		var s float64
		n := 64
		for i := 0; i < n; i++ {
			x := 2 * math.Pi * float64(i) / float64(n)
			u, _ := r.Velocity(x, 0.2, tt, 1)
			s += u * u
		}
		return math.Sqrt(s / float64(n))
	}
	ratio := rms(tEnd) / rms(0)
	if math.Abs(ratio-growth) > 1e-6*growth {
		t.Errorf("amplitude ratio %g, want %g", ratio, growth)
	}
}

func TestBaseFlow(t *testing.T) {
	if BaseFlow(0) != 1 || BaseFlow(1) != 0 || BaseFlow(-1) != 0 {
		t.Error("base flow wrong")
	}
}

// The power iteration reaches the rounding floor of the n = 128 operator in a
// handful of iterations and must stop there, not spin to the cap on a 1e-14
// test the floor never passes. The reference is the pair the loop returns when
// it does run all 200 iterations: the eigenvalue moves inside the floor
// (1e-14), and the residual, which wanders between 6e-12 and 2e-11 from one
// iterate to the next out to iteration 40, stays within that band.
func TestSolveStopsAtTheRoundingFloor(t *testing.T) {
	r, err := Solve(7500, 1, 128, complex(0.25, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveToCap(7500, 1, 128, complex(0.25, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations > 12 || ref.Iterations != 200 {
		t.Errorf("%d power iterations (reference %d), want at most 12 (200)", r.Iterations, ref.Iterations)
	}
	if d := math.Abs(r.GrowthRate() - ref.GrowthRate()); d > 1e-10 {
		t.Errorf("growth rate %.17g is %g from the 200-iteration one", r.GrowthRate(), d)
	}
	if r.Residual > 2*ref.Residual {
		t.Errorf("eigen-residual %g, the 200-iteration pair's is %g: not the same rounding floor", r.Residual, ref.Residual)
	}
	t.Logf("%d iterations, c = %v, residual %.3g (200 iterations: c = %v, residual %.3g)",
		r.Iterations, r.C, r.Residual, ref.C, ref.Residual)
}

// A shift between eigenvalue branches never settles: that is an error, not a
// silently unconverged pair.
func TestSolveReportsNonConvergence(t *testing.T) {
	if r, err := Solve(7500, 1, 128, complex(0.9, -0.05)); err == nil {
		t.Fatalf("Solve at a shift between branches returned c = %v after %d iterations, want an error", r.C, r.Iterations)
	}
}
