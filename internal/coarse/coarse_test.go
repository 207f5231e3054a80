package coarse

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/comm"
	"repro/internal/la"
)

func net(p int) *comm.Network {
	return comm.NewNetwork(comm.Machine{P: p, Latency: 2e-5, ByteSec: 1 / 310e6, MMFlopSec: 1e-8, VecFlopSec: 1e-8})
}

func refSolve(t *testing.T, a *la.CSR, b []float64) []float64 {
	t.Helper()
	fac, err := la.FactorSparseChol(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	fac.Solve(x, b)
	return x
}

func TestXXTSerialMatchesCholesky(t *testing.T) {
	a := Poisson5pt(13, 11)
	n := a.Rows
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xxt, err := NewXXT(a, 13, 11)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	xxt.Solve(got, b, make([]float64, n))
	want := refSolve(t, a, b)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("XXT serial mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestXXTDistributedMatchesSerial(t *testing.T) {
	a := Poisson5pt(15, 15)
	n := a.Rows
	rng := rand.New(rand.NewSource(2))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	fac, err := NewXXT(a, 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	fac.Solve(want, b, make([]float64, n))
	inv := fac.InvPerm
	for _, p := range []int{1, 2, 4, 8, 16} {
		xxt := fac.Distribute(p)
		// Permute b into block layout.
		bp := make([]float64, n)
		for old := 0; old < n; old++ {
			bp[inv[old]] = b[old]
		}
		got := make([]float64, n)
		net(p).Run(func(r *comm.Rank) {
			lo, hi := xxt.BlockLo[r.ID], xxt.BlockHi[r.ID]
			u := xxt.SolveOn(r, bp[lo:hi], xxt.NewSolveWork(r))
			copy(got[lo:hi], u)
		})
		// got is in permuted layout.
		for old := 0; old < n; old++ {
			if math.Abs(got[inv[old]]-want[old]) > 1e-9 {
				t.Fatalf("P=%d: distributed XXT mismatch at %d", p, old)
			}
		}
	}
}

func TestXXTCrossCountScalesLikeSqrtN(t *testing.T) {
	// Separator-crossing columns should grow like c·√n, far slower than n.
	p := 16
	a1 := Poisson5pt(31, 31)
	a2 := Poisson5pt(63, 63)
	f1, err := NewXXT(a1, 31, 31)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewXXT(a2, 63, 63)
	if err != nil {
		t.Fatal(err)
	}
	x1, x2 := f1.Distribute(p), f2.Distribute(p)
	r1 := float64(x1.CrossCount())
	r2 := float64(x2.CrossCount())
	// n grows ~4x; cross count should grow well under 3x (≈2x).
	if r2/r1 > 3 {
		t.Errorf("cross count not sublinear: %g -> %g", r1, r2)
	}
	if x2.CrossCount() >= a2.Rows/2 {
		t.Errorf("cross count %d too close to n=%d", x2.CrossCount(), a2.Rows)
	}
}

func TestRedundantLUAndDistInv(t *testing.T) {
	nx, ny := 12, 9
	a := Poisson5pt(nx, ny)
	n := a.Rows
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := refSolve(t, a, b)
	p := 4
	lu, err := NewRedundantLU(a, nx, p)
	if err != nil {
		t.Fatal(err)
	}
	di, err := NewDistInv(a, p)
	if err != nil {
		t.Fatal(err)
	}
	gotLU := make([]float64, n)
	gotDI := make([]float64, n)
	net(p).Run(func(r *comm.Rank) {
		lo, hi := r.ID*n/p, (r.ID+1)*n/p
		w := NewBaselineWork(n, true)
		u := lu.SolveOn(r, b[lo:hi], w)
		copy(gotLU[lo:hi], u)
		v := di.SolveOn(r, b[lo:hi], w)
		copy(gotDI[lo:hi], v)
	})
	for i := range want {
		if math.Abs(gotLU[i]-want[i]) > 1e-9 {
			t.Fatalf("redundant LU mismatch at %d", i)
		}
		if math.Abs(gotDI[i]-want[i]) > 1e-9 {
			t.Fatalf("distributed inverse mismatch at %d", i)
		}
	}
}

// TestBaselineSolvesSteadyStateZeroAlloc: with a BaselineWork built once
// per rank, the redundant-LU and distributed-inverse solves allocate nothing
// per call, on the ranks that skip the numeric solve and on the one that
// runs it. Measured as a MemStats delta on rank 0 across a synchronized
// window with GC off, as comm's allreduce twin measures it.
func TestBaselineSolvesSteadyStateZeroAlloc(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const nx, ny, p, warm, iters = 12, 9, 8, 5, 100
	a := Poisson5pt(nx, ny)
	n := a.Rows
	lu, err := NewRedundantLU(a, nx, p)
	if err != nil {
		t.Fatal(err)
	}
	di, err := NewDistInv(a, p)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	var steady uint64
	net(p).Run(func(r *comm.Rank) {
		lo, hi := r.ID*n/p, (r.ID+1)*n/p
		w := NewBaselineWork(n, r.ID == 0)
		solve := func() {
			lu.SolveOn(r, b[lo:hi], w)
			di.SolveOn(r, b[lo:hi], w)
		}
		for it := 0; it < warm; it++ {
			solve()
		}
		r.Barrier()
		var m0, m1 runtime.MemStats
		if r.ID == 0 {
			runtime.ReadMemStats(&m0)
		}
		for it := 0; it < iters; it++ {
			solve()
		}
		r.Barrier()
		if r.ID == 0 {
			runtime.ReadMemStats(&m1)
			steady = m1.Mallocs - m0.Mallocs
		}
	})
	if steady > 64 {
		t.Errorf("steady-state baseline solves allocated %d objects over %d calls of each, want ~0", steady, iters)
	}
}

func TestWantResultFalseSkipsNumerics(t *testing.T) {
	nx, ny := 8, 8
	a := Poisson5pt(nx, ny)
	n := a.Rows
	p := 2
	lu, err := NewRedundantLU(a, nx, p)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	ranks := net(p).Run(func(r *comm.Rank) {
		lo, hi := r.ID*n/p, (r.ID+1)*n/p
		if got := lu.SolveOn(r, b[lo:hi], NewBaselineWork(n, false)); got != nil {
			t.Errorf("a work without the solution should return nil")
		}
	})
	// The clock must still have been charged.
	for _, r := range ranks {
		if r.Time <= 0 {
			t.Error("virtual time not charged")
		}
	}
}

func TestFig6TimeOrderingAtScale(t *testing.T) {
	// At large P the XXT modeled time must beat both baselines, and at
	// small P it must beat distributed A⁻¹ (work-dominated regime).
	nx := 63
	a := Poisson5pt(nx, nx)
	n := a.Rows
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	fac, err := NewXXT(a, nx, nx)
	if err != nil {
		t.Fatal(err)
	}
	bp := make([]float64, n)
	for old := 0; old < n; old++ {
		bp[fac.InvPerm[old]] = b[old]
	}
	times := func(p int) (txxt, tlu, tdi float64) {
		m := comm.ASCIRed(p)
		xxt := fac.Distribute(p)
		rs := comm.NewNetwork(m).Run(func(r *comm.Rank) {
			xxt.SolveOn(r, bp[xxt.BlockLo[r.ID]:xxt.BlockHi[r.ID]], xxt.NewSolveWork(r))
		})
		txxt = comm.MaxTime(rs)
		lu, err := NewRedundantLU(a, nx, p)
		if err != nil {
			t.Fatal(err)
		}
		rs = comm.NewNetwork(m).Run(func(r *comm.Rank) {
			lo, hi := r.ID*n/p, (r.ID+1)*n/p
			lu.SolveOn(r, b[lo:hi], NewBaselineWork(n, r.ID == 0))
		})
		tlu = comm.MaxTime(rs)
		di, err := NewDistInv(a, p)
		if err != nil {
			t.Fatal(err)
		}
		rs = comm.NewNetwork(m).Run(func(r *comm.Rank) {
			lo, hi := r.ID*n/p, (r.ID+1)*n/p
			di.SolveOn(r, b[lo:hi], NewBaselineWork(n, r.ID == 0))
		})
		tdi = comm.MaxTime(rs)
		return
	}
	x16, lu16, di16 := times(16)
	x256, lu256, _ := times(256)
	if x16 >= di16 {
		t.Errorf("P=16: XXT (%g) should beat distributed A⁻¹ (%g)", x16, di16)
	}
	if x256 >= lu256 {
		t.Errorf("P=256: XXT (%g) should beat redundant LU (%g)", x256, lu256)
	}
	if lb := LatencyBound(comm.ASCIRed(256)); x256 < lb {
		t.Errorf("P=256: XXT time %g below the latency lower bound %g", x256, lb)
	}
	_ = lu16
	t.Logf("P=16: xxt=%.2e lu=%.2e di=%.2e; P=256: xxt=%.2e lu=%.2e", x16, lu16, di16, x256, lu256)
}
