package solver

import (
	"math"
	"sync"
	"testing"
)

// diagOp builds the operator of a diagonal SPD system.
func diagOp(d []float64) Operator {
	return func(out, in []float64) {
		for i := range in {
			out[i] = d[i] * in[i]
		}
	}
}

func identityOp(out, in []float64) { copy(out, in) }

// testSpectrum is a diagonal spread exercising both ends of the bounds.
func testSpectrum(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 + 9*float64(i)/float64(n-1) // eigenvalues in [1, 10]
	}
	return d
}

// TestChebyshevAcceleratesCG: with exact bounds the Chebyshev-wrapped
// identity must cut CG iterations well below the unpreconditioned count on
// a spread spectrum.
func TestChebyshevAcceleratesCG(t *testing.T) {
	const n = 200
	d := testSpectrum(n)
	A := diagOp(d)
	b := make([]float64, n)
	LCGFill(b, 7)
	opt := Options{Tol: 1e-10, MaxIter: 500}

	x0 := make([]float64, n)
	base := CG(A, plainDot, x0, b, opt)
	if !base.Converged {
		t.Fatal("unpreconditioned CG did not converge")
	}

	c := &Chebyshev{A: A, Base: identityOp, Degree: 4, LMin: 1, LMax: 10}
	x1 := make([]float64, n)
	opt.Precond = c.Apply
	acc := CG(A, plainDot, x1, b, opt)
	if !acc.Converged {
		t.Fatal("Chebyshev-preconditioned CG did not converge")
	}
	if acc.Iterations >= base.Iterations {
		t.Errorf("chebyshev CG took %d iterations, unpreconditioned %d", acc.Iterations, base.Iterations)
	}
	for i := range x0 {
		want := b[i] / d[i]
		if math.Abs(x1[i]-want) > 1e-8 {
			t.Fatalf("x[%d] = %g, want %g", i, x1[i], want)
		}
	}
}

// TestChebyshevDegenerateSpectrum: a 1-dof system has LMin == LMax; the
// delta→0 guard must reduce to a single exactly-scaled base application
// instead of dividing by zero.
func TestChebyshevDegenerateSpectrum(t *testing.T) {
	A := diagOp([]float64{4})
	c := &Chebyshev{A: A, Base: identityOp, Degree: 5, LMin: 4, LMax: 4}
	out := make([]float64, 1)
	c.Apply(out, []float64{8})
	if math.Abs(out[0]-2) > 1e-14 {
		t.Fatalf("degenerate Apply = %g, want 2 (exact inverse)", out[0])
	}
	if math.IsNaN(out[0]) {
		t.Fatal("degenerate spectrum produced NaN")
	}
	// CG on the 1-dof system must converge in one iteration.
	x := []float64{0}
	st := CG(A, plainDot, x, []float64{8}, Options{Tol: 1e-12, MaxIter: 10, Precond: c.Apply})
	if !st.Converged || st.Iterations > 1 {
		t.Fatalf("1-dof solve: converged=%v in %d iterations", st.Converged, st.Iterations)
	}
}

// TestChebyshevAlreadyConverged: an initial guess that already satisfies
// the system must return before the preconditioner is ever applied.
func TestChebyshevAlreadyConverged(t *testing.T) {
	const n = 50
	d := testSpectrum(n)
	A := diagOp(d)
	b := make([]float64, n)
	LCGFill(b, 11)
	x := make([]float64, n)
	for i := range x {
		x[i] = b[i] / d[i] // exact solution
	}
	applied := false
	pre := func(out, in []float64) { applied = true; copy(out, in) }
	st := CG(A, plainDot, x, b, Options{Tol: 1e-8, MaxIter: 100, Precond: pre})
	if !st.Converged || st.Iterations != 0 {
		t.Fatalf("converged=%v iterations=%d, want converged in 0", st.Converged, st.Iterations)
	}
	if applied {
		t.Error("preconditioner applied despite a converged initial guess")
	}
}

// TestEstimateBounds: the power iteration must bracket the true λmax of
// Base∘A from above (safety factor) without gross overestimation.
func TestEstimateBounds(t *testing.T) {
	const n = 300
	d := testSpectrum(n) // λmax = 10
	c := &Chebyshev{A: diagOp(d), Base: identityOp, Degree: 3}
	c.EstimateBounds(plainDot, n, 30, nil)
	if c.LMax < 10 || c.LMax > 13 {
		t.Errorf("LMax = %g, want within [10, 13] for a true λmax of 10", c.LMax)
	}
	if c.LMin <= 0 || c.LMin >= c.LMax {
		t.Errorf("LMin = %g out of (0, LMax)", c.LMin)
	}
}

// TestEstimateBoundsDegenerate: a zero operator (the degenerate-mesh limit)
// must fall back to usable bounds, not NaN.
func TestEstimateBoundsDegenerate(t *testing.T) {
	zero := func(out, in []float64) {
		for i := range out {
			out[i] = 0
		}
	}
	c := &Chebyshev{A: zero, Base: identityOp, Degree: 2}
	c.EstimateBounds(plainDot, 4, 10, nil)
	if !(c.LMax > 0) || math.IsNaN(c.LMax) {
		t.Fatalf("degenerate bounds LMax = %g, want positive finite fallback", c.LMax)
	}
}

// TestCalibrateRecoversUnderestimate: with λmax deliberately underestimated
// 10x the Chebyshev polynomial amplifies the top of the spectrum and CG
// would diverge; Calibrate must detect the growth, inflate the bound, and
// leave a preconditioner CG converges with.
func TestCalibrateRecoversUnderestimate(t *testing.T) {
	const n = 200
	d := testSpectrum(n) // λmax = 10
	A := diagOp(d)
	c := &Chebyshev{A: A, Base: identityOp, Degree: 4, LMax: 1, LMin: 1.0 / 30}
	rounds := c.Calibrate(plainDot, n, nil)
	if rounds == 0 {
		t.Fatal("Calibrate reported healthy bounds for a 10x underestimate")
	}
	if c.LMax < 10 {
		t.Errorf("calibrated LMax = %g still below the true λmax 10", c.LMax)
	}
	b := make([]float64, n)
	LCGFill(b, 13)
	x := make([]float64, n)
	st := CG(A, plainDot, x, b, Options{Tol: 1e-10, MaxIter: 500, Precond: c.Apply})
	if !st.Converged {
		t.Fatalf("CG did not converge after calibration (LMax=%g): %d iterations, res %g",
			c.LMax, st.Iterations, st.FinalRes)
	}
	// Correct bounds must pass through untouched.
	ok := &Chebyshev{A: A, Base: identityOp, Degree: 4, LMax: 11, LMin: 11.0 / 30}
	if r := ok.Calibrate(plainDot, n, nil); r != 0 {
		t.Errorf("Calibrate inflated already-correct bounds %d times", r)
	}
}

// TestPrecondTableRecordConcurrent: copy-on-write Record from many
// goroutines must lose no entries.
func TestPrecondTableRecordConcurrent(t *testing.T) {
	ResetPrecondTable()
	defer ResetPrecondTable()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				RecordPrecond(PrecondKey{K: w, N: i, Dim: 2, Tol: 1e-7}, "chebjacobi")
			}
		}(w)
	}
	wg.Wait()
	tab := InstalledPrecondTable()
	for w := 0; w < workers; w++ {
		for i := 0; i < 20; i++ {
			if name, ok := tab.Lookup(PrecondKey{K: w, N: i, Dim: 2, Tol: 1e-7}); !ok || name != "chebjacobi" {
				t.Fatalf("lookup K=%d N=%d = %q, %v", w, i, name, ok)
			}
		}
	}
}

// TestSelectPrecondPrefersReference: on an iteration tie the first-listed
// candidate (the reference) must win, and a converged candidate must beat a
// non-converged one regardless of order.
func TestSelectPrecondPrefersReference(t *testing.T) {
	const n = 100
	d := testSpectrum(n)
	A := diagOp(d)
	b := make([]float64, n)
	LCGFill(b, 5)
	x := make([]float64, n)
	exact := func(out, in []float64) {
		for i := range in {
			out[i] = in[i] / d[i]
		}
	}
	opt := Options{Tol: 1e-10, MaxIter: 300}
	name, trials := SelectPrecond(A, plainDot, x, b, opt, []PrecondCandidate{
		{Name: "ref", Precond: exact},
		{Name: "same", Precond: exact},
	})
	if name != "ref" {
		t.Errorf("tie went to %q, want the reference", name)
	}
	if len(trials) != 2 || trials[0].Iterations != trials[1].Iterations {
		t.Fatalf("trials = %+v", trials)
	}
	// A capped (non-converging) reference must lose to a converging variant.
	capped := Options{Tol: 1e-14, MaxIter: 2}
	name, trials = SelectPrecond(A, plainDot, x, b, capped, []PrecondCandidate{
		{Name: "bad", Precond: nil},
		{Name: "good", Precond: exact},
	})
	if name != "good" {
		t.Errorf("selection = %q, want the converging candidate; trials %+v", name, trials)
	}
}
