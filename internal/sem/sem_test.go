package sem

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gs"
	"repro/internal/mesh"
	"repro/internal/solver"
)

func boxDisc(t *testing.T, nx, ny, n int) *Disc {
	t.Helper()
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: nx, Ny: ny, X0: 0, X1: 1, Y0: 0, Y1: 1})
	m, err := mesh.Discretize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, m.BoundaryMask(nil))
}

// solvePoisson solves -∇²u = f with homogeneous Dirichlet BCs and compares
// against the exact solution u = sin(πx)sin(πy).
// filter applies f to every element of u through FilterElement, as the
// step's filter pass does.
func filter(d *Disc, f *Filter, u []float64) {
	s := make([]float64, d.ElemScratchLen())
	np := d.M.Np
	for e := 0; e < d.M.K; e++ {
		d.FilterElement(f, u[e*np:(e+1)*np], s)
	}
}

func solvePoisson(t *testing.T, d *Disc) float64 {
	t.Helper()
	m := d.M
	n := m.K * m.Np
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		f := 2 * math.Pi * math.Pi * math.Sin(math.Pi*m.X[i]) * math.Sin(math.Pi*m.Y[i])
		b[i] = m.B[i] * f // weak-form RHS: B f
	}
	d.Assemble(b)
	x := make([]float64, n)
	st := solver.CG(d.Laplacian, d.Dot, x, b, solver.Options{Tol: 1e-12, Relative: true, MaxIter: 2000})
	if !st.Converged {
		t.Fatalf("Poisson CG did not converge: %+v", st)
	}
	var maxErr float64
	for i := 0; i < n; i++ {
		exact := math.Sin(math.Pi*m.X[i]) * math.Sin(math.Pi*m.Y[i])
		if e := math.Abs(x[i] - exact); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestPoissonSpectralConvergence(t *testing.T) {
	var prev float64
	for i, n := range []int{4, 6, 8} {
		d := boxDisc(t, 2, 2, n)
		err := solvePoisson(t, d)
		if i > 0 && err > prev/5 {
			t.Errorf("N=%d: error %g did not drop spectrally from %g", n, err, prev)
		}
		prev = err
	}
	if prev > 1e-7 {
		t.Errorf("N=8 Poisson error too large: %g", prev)
	}
}

func TestLaplacianSymmetricSPD(t *testing.T) {
	d := boxDisc(t, 2, 2, 5)
	n := d.M.K * d.M.Np
	u := make([]float64, n)
	v := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(float64(i))
		v[i] = math.Cos(float64(2 * i))
	}
	// Make continuous and masked (domain of the assembled operator).
	d.DirectStiffnessAverage(u)
	d.DirectStiffnessAverage(v)
	d.ApplyMask(u)
	d.ApplyMask(v)
	au := make([]float64, n)
	av := make([]float64, n)
	d.Laplacian(au, u)
	d.Laplacian(av, v)
	lhs := d.Dot(au, v)
	rhs := d.Dot(u, av)
	if math.Abs(lhs-rhs) > 1e-8*math.Abs(lhs) {
		t.Errorf("Laplacian not symmetric: %g vs %g", lhs, rhs)
	}
	if e := d.Dot(au, u); e <= 0 {
		t.Errorf("Laplacian not positive on a nonzero masked field: %g", e)
	}
}

func TestLaplacianAnnihilatesConstantsUnmasked(t *testing.T) {
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 3, Ny: 2, X1: 3, Y1: 2})
	m, err := mesh.Discretize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := New(m, nil) // pure Neumann
	n := m.K * m.Np
	u := make([]float64, n)
	for i := range u {
		u[i] = 7.5
	}
	out := make([]float64, n)
	d.Laplacian(out, u)
	for i := range out {
		if math.Abs(out[i]) > 1e-9 {
			t.Fatalf("Laplacian of constant not zero: %g at %d", out[i], i)
		}
	}
}

func TestHelmholtzAddsMass(t *testing.T) {
	d := boxDisc(t, 2, 2, 4)
	n := d.M.K * d.M.Np
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(d.M.X[i] + d.M.Y[i])
	}
	d.DirectStiffnessAverage(u)
	d.ApplyMask(u)
	a := make([]float64, n)
	h := make([]float64, n)
	d.Laplacian(a, u)
	lambda := 3.7
	d.Helmholtz(h, u, 1, lambda)
	// h - a should equal assembled lambda*B*u.
	bu := make([]float64, n)
	for i := range bu {
		bu[i] = lambda * d.M.B[i] * u[i]
	}
	d.Assemble(bu)
	for i := range h {
		if math.Abs(h[i]-a[i]-bu[i]) > 1e-9 {
			t.Fatalf("Helmholtz != A + λB at %d: %g", i, h[i]-a[i]-bu[i])
		}
	}
}

// helmholtzDiag assembles the diagonal of h1·A + h2·B from the element
// stiffness diagonals, unit on the Dirichlet rows: the Jacobi preconditioner
// of a Helmholtz solve.
func helmholtzDiag(d *Disc, h1, h2 float64) []float64 {
	m := d.M
	diag := make([]float64, m.K*m.Np)
	for e := 0; e < m.K; e++ {
		de := diag[e*m.Np : (e+1)*m.Np]
		d.StiffnessDiagElement(de, e)
		for l, a := range de {
			de[l] = h1*a + h2*m.B[e*m.Np+l]
		}
	}
	d.GS.Apply(diag, gs.Sum)
	for i, mk := range d.Mask {
		if mk == 0 {
			diag[i] = 1
		}
	}
	return diag
}

// TestHelmholtzDiagMatchesOperator: the assembled diagonal built from
// StiffnessDiagElement is the operator's, e_gᵀ H e_g.
func TestHelmholtzDiagMatchesOperator(t *testing.T) {
	d := boxDisc(t, 2, 2, 4)
	n := d.M.K * d.M.Np
	diag := helmholtzDiag(d, 1.0, 2.0)
	// Compare against applying the operator to unit global basis vectors:
	// diag_g = e_gᵀ H e_g.
	e := make([]float64, n)
	out := make([]float64, n)
	checked := 0
	for g := 0; g < d.M.NGlobal && checked < 25; g += 7 {
		for i := range e {
			e[i] = 0
			if d.M.GID[i] == int64(g) {
				e[i] = 1
			}
		}
		if d.Mask != nil {
			masked := false
			for i := range e {
				if e[i] == 1 && d.Mask[i] == 0 {
					masked = true
				}
			}
			if masked {
				continue
			}
		}
		d.Helmholtz(out, e, 1.0, 2.0)
		var got float64
		var want float64
		for i := range e {
			if e[i] == 1 {
				got = out[i]
				want = diag[i]
				break
			}
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("diag mismatch at global %d: %g vs %g", g, got, want)
		}
		checked++
	}
	if checked < 5 {
		t.Fatal("too few diagonal entries checked")
	}
}

func TestJacobiPCGFasterThanCG(t *testing.T) {
	d := boxDisc(t, 3, 3, 7)
	n := d.M.K * d.M.Np
	b := make([]float64, n)
	for i := range b {
		b[i] = d.M.B[i] * math.Sin(2*math.Pi*d.M.X[i])
	}
	d.Assemble(b)
	lambda := 100.0
	apply := func(out, in []float64) { d.Helmholtz(out, in, 1, lambda) }
	x1 := make([]float64, n)
	plain := solver.CG(apply, d.Dot, x1, b, solver.Options{Tol: 1e-10, Relative: true, MaxIter: 3000})
	diag := helmholtzDiag(d, 1, lambda)
	pre := func(out, in []float64) {
		for i := range in {
			out[i] = in[i] / diag[i]
		}
	}
	x2 := make([]float64, n)
	jac := solver.CG(apply, d.Dot, x2, b, solver.Options{Tol: 1e-10, Relative: true, MaxIter: 3000, Precond: pre})
	if !plain.Converged || !jac.Converged {
		t.Fatalf("CG failed: plain %+v jacobi %+v", plain, jac)
	}
	if jac.Iterations >= plain.Iterations {
		t.Errorf("Jacobi PCG (%d iters) not faster than CG (%d iters)", jac.Iterations, plain.Iterations)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-6 {
			t.Fatalf("solutions disagree at %d", i)
		}
	}
}

func TestGradOfLinearFieldIsExact(t *testing.T) {
	// On the deformed cylinder mesh the gradient of 3x - 2y must be (3,-2).
	spec := mesh.CylinderOGrid(mesh.CylinderOGridSpec{NTheta: 8, NLayer: 3, R: 0.5, H: 2, WallRatio: 4})
	m, err := mesh.Discretize(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	d := New(m, nil)
	n := m.K * m.Np
	u := make([]float64, n)
	for i := range u {
		u[i] = 3*m.X[i] - 2*m.Y[i]
	}
	gx := make([]float64, n)
	gy := make([]float64, n)
	d.Grad([][]float64{gx, gy}, u)
	for i := range gx {
		if math.Abs(gx[i]-3) > 1e-8 || math.Abs(gy[i]+2) > 1e-8 {
			t.Fatalf("gradient wrong at %d: (%g, %g)", i, gx[i], gy[i])
		}
	}
}

func TestGrad3D(t *testing.T) {
	spec := mesh.Box3D(mesh.Box3DSpec{Nx: 2, Ny: 2, Nz: 2, X1: 1, Y1: 2, Z1: 3})
	m, err := mesh.Discretize(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := New(m, nil)
	n := m.K * m.Np
	u := make([]float64, n)
	for i := range u {
		u[i] = m.X[i]*m.X[i] + 2*m.Y[i]*m.Zc[i]
	}
	g := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	d.Grad(g, u)
	for i := range u {
		if math.Abs(g[0][i]-2*m.X[i]) > 1e-8 ||
			math.Abs(g[1][i]-2*m.Zc[i]) > 1e-8 ||
			math.Abs(g[2][i]-2*m.Y[i]) > 1e-8 {
			t.Fatalf("3D gradient wrong at %d", i)
		}
	}
}

func TestPoisson3D(t *testing.T) {
	spec := mesh.Box3D(mesh.Box3DSpec{Nx: 2, Ny: 2, Nz: 2, X1: 1, Y1: 1, Z1: 1})
	m, err := mesh.Discretize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := New(m, m.BoundaryMask(nil))
	n := m.K * m.Np
	b := make([]float64, n)
	pi := math.Pi
	for i := 0; i < n; i++ {
		f := 3 * pi * pi * math.Sin(pi*m.X[i]) * math.Sin(pi*m.Y[i]) * math.Sin(pi*m.Zc[i])
		b[i] = m.B[i] * f
	}
	d.Assemble(b)
	x := make([]float64, n)
	st := solver.CG(d.Laplacian, d.Dot, x, b, solver.Options{Tol: 1e-11, Relative: true, MaxIter: 3000})
	if !st.Converged {
		t.Fatalf("3D Poisson CG did not converge: %+v", st)
	}
	var maxErr float64
	for i := 0; i < n; i++ {
		exact := math.Sin(pi*m.X[i]) * math.Sin(pi*m.Y[i]) * math.Sin(pi*m.Zc[i])
		if e := math.Abs(x[i] - exact); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 5e-4 {
		t.Errorf("3D Poisson error %g too large", maxErr)
	}
}

func TestFilterStrengthOrdering(t *testing.T) {
	d := boxDisc(t, 2, 2, 8)
	n := d.M.K * d.M.Np
	mkField := func() []float64 {
		u := make([]float64, n)
		for i := range u {
			u[i] = math.Sin(20*d.M.X[i]) * math.Cos(17*d.M.Y[i]) // rough field
		}
		return u
	}
	norm := func(u []float64) float64 { return d.L2Norm(u) }
	u0 := mkField()
	u3 := mkField()
	u10 := mkField()
	filter(d, NewFilter(d.M, 0), u0)
	filter(d, NewFilter(d.M, 0.3), u3)
	filter(d, NewFilter(d.M, 1.0), u10)
	if norm(u0) != norm(mkField()) {
		t.Error("alpha=0 filter changed the field")
	}
	if !(norm(u10) < norm(u3) && norm(u3) < norm(u0)) {
		t.Errorf("filter strength ordering violated: %g %g %g", norm(u0), norm(u3), norm(u10))
	}
	// Smooth (degree < N) fields are untouched by any alpha.
	s := make([]float64, n)
	for i := range s {
		s[i] = 1 + d.M.X[i] + d.M.Y[i]*d.M.X[i]
	}
	sc := append([]float64(nil), s...)
	filter(d, NewFilter(d.M, 0.9), sc)
	for i := range s {
		if math.Abs(sc[i]-s[i]) > 1e-10 {
			t.Fatal("filter damaged a low-order field")
		}
	}
}

func TestFilter3D(t *testing.T) {
	spec := mesh.Box3D(mesh.Box3DSpec{Nx: 1, Ny: 1, Nz: 1, X1: 1, Y1: 1, Z1: 1})
	m, err := mesh.Discretize(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	d := New(m, nil)
	u := make([]float64, m.Np)
	for i := range u {
		u[i] = 1 + m.X[i]*m.Y[i]*m.Zc[i]
	}
	uc := append([]float64(nil), u...)
	filter(d, NewFilter(m, 0.5), uc)
	for i := range u {
		if math.Abs(uc[i]-u[i]) > 1e-10 {
			t.Fatal("3D filter damaged a low-order field")
		}
	}
}

func TestBuildAssembledCSRMatchesMatrixFree(t *testing.T) {
	d := boxDisc(t, 2, 2, 4)
	a := d.BuildAssembledCSR()
	if a.Rows != d.M.NGlobal {
		t.Fatalf("CSR size %d vs NGlobal %d", a.Rows, d.M.NGlobal)
	}
	n := d.M.K * d.M.Np
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(1.3*d.M.X[i]) + d.M.Y[i]
	}
	d.DirectStiffnessAverage(u)
	d.ApplyMask(u)
	// Matrix-free application.
	mf := make([]float64, n)
	d.Laplacian(mf, u)
	// CSR application on globals.
	ug := d.GatherGlobal(u)
	og := make([]float64, d.M.NGlobal)
	a.MulVec(og, ug)
	back := d.ScatterGlobal(og)
	for i := range mf {
		if d.Mask != nil && d.Mask[i] == 0 {
			continue // CSR uses identity rows on Dirichlet nodes
		}
		if math.Abs(mf[i]-back[i]) > 1e-9 {
			t.Fatalf("CSR vs matrix-free mismatch at %d: %g vs %g", i, mf[i], back[i])
		}
	}
}

func TestIntegrateAndNorms(t *testing.T) {
	d := boxDisc(t, 3, 3, 6)
	n := d.M.K * d.M.Np
	one := make([]float64, n)
	for i := range one {
		one[i] = 1
	}
	if a := d.Integrate(one); math.Abs(a-1) > 1e-12 {
		t.Errorf("∫1 = %g, want 1", a)
	}
	// ∫ sin²(πx)sin²(πy) = 1/4 on the unit square.
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(math.Pi*d.M.X[i]) * math.Sin(math.Pi*d.M.Y[i])
	}
	if l2 := d.L2Norm(u); math.Abs(l2-0.5) > 1e-6 {
		t.Errorf("L2 norm %g, want 0.5", l2)
	}
}

func TestFlopCounteradvances(t *testing.T) {
	d := boxDisc(t, 2, 2, 4)
	d.ResetFlops()
	n := d.M.K * d.M.Np
	u := make([]float64, n)
	out := make([]float64, n)
	d.StiffnessLocal(out, u)
	if d.Flops() <= 0 {
		t.Error("flop counter did not advance")
	}
	before := d.Flops()
	d.CountFlops(100)
	if d.Flops() != before+100 {
		t.Error("CountFlops broken")
	}
}

// StiffnessElement only reads the Disc, so goroutines holding their own
// scratch may hammer one concurrently; the results must still match the
// serial local stiffness bitwise. Run under -race to exercise the sharing.
func TestStiffnessElementConcurrent(t *testing.T) {
	d := boxDisc(t, 4, 4, 7)
	m := d.M
	np := m.Np
	n := m.K * np
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(2*m.X[i]) + math.Cos(3*m.Y[i])
	}
	want := make([]float64, n)
	d.StiffnessLocal(want, u)

	got := make([]float64, n)
	const gor = 8
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scratch := make([]float64, d.ElemScratchLen())
			for e := g; e < m.K; e += gor {
				d.StiffnessElement(got[e*np:(e+1)*np], u[e*np:(e+1)*np], e, 1, scratch)
			}
		}(g)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concurrent StiffnessElement differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestRunKernelsAreTheirElementsBitwise holds the run-form kernels —
// StiffnessElement, GradElement and FilterElement on a run of consecutive
// elements — to their one-element applications, bit for bit, over random
// splits of the element list of a deformed 2-D and a deformed 3-D mesh.
// Seeded, so a failure repeats.
func TestRunKernelsAreTheirElementsBitwise(t *testing.T) {
	specs := []struct {
		spec *mesh.Spec
		n    int
	}{
		{mesh.CylinderOGrid(mesh.CylinderOGridSpec{NTheta: 8, NLayer: 2, R: 0.5, H: 2, WallRatio: 4}), 7},
		{mesh.HemisphereBox(mesh.HemisphereBoxSpec{Nx: 3, Ny: 2, Nz: 2, Lx: 3, Ly: 2, Lz: 1,
			Cx: 1.5, Cy: 1, Radius: 0.5, Height: 0.4, WallRatio: 2}), 4},
	}
	for _, sp := range specs {
		m, err := mesh.Discretize(sp.spec, sp.n)
		if err != nil {
			t.Fatal(err)
		}
		d, f := New(m, nil), NewFilter(m, 0.3)
		np, k := m.Np, m.K
		kernels := []struct {
			name  string
			apply func(outs [3][]float64, u []float64, e0, ne int, s []float64)
		}{
			{"StiffnessElement", func(outs [3][]float64, u []float64, e0, ne int, s []float64) {
				d.StiffnessElement(outs[0], u, e0, ne, s)
			}},
			{"GradElement", func(outs [3][]float64, u []float64, e0, ne int, s []float64) {
				d.GradElement(outs[0], outs[1], outs[2], u, e0, ne, s)
			}},
			{"FilterElement", func(outs [3][]float64, u []float64, _, _ int, s []float64) {
				copy(outs[0], u)
				d.FilterElement(f, outs[0], s)
			}},
		}
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			u := make([]float64, k*np)
			for i := range u {
				u[i] = rng.NormFloat64()
			}
			scratch := make([]float64, k*d.ElemScratchLen())
			for _, kr := range kernels {
				var want, got [3][]float64
				for c := 0; c < m.Dim; c++ {
					want[c], got[c] = make([]float64, k*np), make([]float64, k*np)
				}
				blocks := func(f [3][]float64, e0, ne int) (b [3][]float64) {
					for c := 0; c < m.Dim; c++ {
						b[c] = f[c][e0*np : (e0+ne)*np]
					}
					return b
				}
				for e := 0; e < k; e++ {
					kr.apply(blocks(want, e, 1), u[e*np:(e+1)*np], e, 1, scratch)
				}
				var split []int
				for e0 := 0; e0 < k; {
					ne := 1 + rng.Intn(k-e0)
					kr.apply(blocks(got, e0, ne), u[e0*np:(e0+ne)*np], e0, ne, scratch)
					split = append(split, ne)
					e0 += ne
				}
				for c := 0; c < m.Dim; c++ {
					for i := range want[c] {
						if math.Float64bits(got[c][i]) != math.Float64bits(want[c][i]) {
							t.Fatalf("%d-D seed %d %s, runs %v: component %d entry %d is %g, element by element %g",
								m.Dim, seed, kr.name, split, c, i, got[c][i], want[c][i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkStiffnessRuns times StiffnessElement over every element of the
// benchmark's two meshes — the channel (K = 15, N = 9, 2-D) and the hairpin
// box (K = 72, N = 5, 3-D) — in runs of ne consecutive elements, and reports
// the time per element of one pass: the measurement behind mesh.RunPoints.
func BenchmarkStiffnessRuns(b *testing.B) {
	meshes := []struct {
		name string
		spec *mesh.Spec
		n    int
	}{
		{"channel", mesh.Box2D(mesh.Box2DSpec{Nx: 5, Ny: 3, X0: 0, X1: 2 * math.Pi, Y0: -1, Y1: 1, PeriodicX: true}), 9},
		{"hairpin", mesh.HemisphereBox(mesh.HemisphereBoxSpec{Nx: 6, Ny: 4, Nz: 3, Lx: 12, Ly: 6, Lz: 4,
			Cx: 3, Cy: 3, Radius: 1, Height: 0.8, WallRatio: 3}), 5},
	}
	for _, mc := range meshes {
		m, err := mesh.Discretize(mc.spec, mc.n)
		if err != nil {
			b.Fatal(err)
		}
		d, np := New(m, nil), m.Np
		u, out := make([]float64, m.K*np), make([]float64, m.K*np)
		for i := range u {
			u[i] = math.Sin(m.X[i]) * math.Cos(m.Y[i])
		}
		for _, ne := range []int{1, 2, 4, 8, 16, m.K} {
			if ne > m.K || ne == 16 && m.K == 16 {
				continue
			}
			scratch := make([]float64, ne*d.ElemScratchLen())
			b.Run(fmt.Sprintf("%s/ne=%d", mc.name, ne), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for e0 := 0; e0 < m.K; e0 += ne {
						r := min(ne, m.K-e0)
						d.StiffnessElement(out[e0*np:(e0+r)*np], u[e0*np:(e0+r)*np], e0, r, scratch)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*m.K), "us/elem")
			})
		}
	}
}
