package solver

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/la"
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
	if got := tab.Len(); got != workers*20 {
		t.Fatalf("table has %d entries, want %d", got, workers*20)
	}
	if name, ok := tab.Lookup(PrecondKey{K: 3, N: 7, Dim: 2, Tol: 1e-7}); !ok || name != "chebjacobi" {
		t.Fatalf("lookup = %q, %v", name, ok)
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

// TestPrecondCacheRoundtrip: Save → Load must reproduce the table, and a
// file keyed for another machine must be rejected with ErrCacheMismatch.
func TestPrecondCacheRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "precond.json")
	ResetPrecondTable()
	defer ResetPrecondTable()
	k1 := PrecondKey{K: 40, N: 5, Dim: 2, Tol: 1e-9}
	k2 := PrecondKey{K: 40, N: 7, Dim: 2, Tol: 1e-9}
	RecordPrecond(k1, "schwarz")
	tab := RecordPrecond(k2, "chebschwarz")
	if err := SavePrecondCache(path, tab); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPrecondCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", got.Len())
	}
	if name, ok := got.Lookup(k2); !ok || name != "chebschwarz" {
		t.Fatalf("lookup k2 = %q, %v", name, ok)
	}

	// Key mismatch: rewrite with a foreign key.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foreign := strings.Replace(string(b), la.CacheKey(), "some other machine | go0.0", 1)
	if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPrecondCache(path); !errors.Is(err, ErrCacheMismatch) {
		t.Fatalf("foreign cache load error = %v, want ErrCacheMismatch", err)
	}

	// A generation-1 file from this very machine — keyed by la.CacheKey alone,
	// its selections ranked against the velocity-grid Schwarz sandwich — must
	// be re-trialled too, not replayed.
	gen1 := strings.Replace(string(b), precondCacheKey(), la.CacheKey(), 1)
	if gen1 == string(b) {
		t.Fatal("saved file does not carry the generation key")
	}
	if err := os.WriteFile(path, []byte(gen1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPrecondCache(path); !errors.Is(err, ErrCacheMismatch) {
		t.Fatalf("generation-1 cache load error = %v, want ErrCacheMismatch", err)
	}

	if _, err := LoadPrecondCache(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file load succeeded")
	}
}

// TestSavePrecondCacheAtomicUnderConcurrency is the torn-write regression test:
// with a plain WriteFile over the live path, concurrent semflowd sessions
// saving the selection cache while others load it could observe interleaved
// or truncated JSON, which LoadPrecondCache rejects — silently forcing a
// re-selection on every later run. With the temp-file + rename write, every
// load must observe a complete, parseable table.
func TestSavePrecondCacheAtomicUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "precond.json")

	// Two distinguishable tables; any loaded file must be exactly one of
	// them, never a mixture or a parse failure.
	k1 := PrecondKey{K: 15, N: 9, Dim: 2, Tol: 1e-9}
	k2 := PrecondKey{K: 72, N: 5, Dim: 3, Tol: 1e-9}
	tabA := &PrecondTable{m: map[PrecondKey]string{k1: "schwarz"}}
	tabB := &PrecondTable{m: map[PrecondKey]string{k1: "schwarz", k2: "chebjacobi"}}

	if err := SavePrecondCache(path, tabA); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 2) // one slot per writer
	var wg sync.WaitGroup
	for _, tab := range []*PrecondTable{tabA, tabB} {
		wg.Add(1)
		go func(tab *PrecondTable) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := SavePrecondCache(path, tab); err != nil {
					errs <- err
					return
				}
			}
		}(tab)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	loads := 0
	var bad string
	for bad == "" && time.Now().Before(deadline) {
		tab, err := LoadPrecondCache(path)
		switch {
		case err != nil:
			bad = fmt.Sprintf("load %d observed a torn cache: %v", loads, err)
		case tab.Len() != 1 && tab.Len() != 2:
			bad = fmt.Sprintf("load %d observed a mixed table with %d entries", loads, tab.Len())
		}
		loads++
	}
	close(stop)
	wg.Wait()
	close(errs)
	if bad != "" {
		t.Fatal(bad)
	}
	for err := range errs {
		t.Fatal(err)
	}
	// The writers must not leave temp litter behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "precond.json" {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}
