package schwarz

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sem"
	"repro/internal/solver"
)

func poissonSetup(t *testing.T, nx, ny, n int) (*sem.Disc, []float64) {
	t.Helper()
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: nx, Ny: ny, X0: 0, X1: 1, Y0: 0, Y1: 1})
	m, err := mesh.Discretize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	d := sem.New(m, m.BoundaryMask(nil))
	b := make([]float64, m.K*m.Np)
	for i := range b {
		f := 2 * math.Pi * math.Pi * math.Sin(math.Pi*m.X[i]) * math.Sin(math.Pi*m.Y[i])
		b[i] = m.B[i] * f
	}
	d.Assemble(b)
	return d, b
}

func solveWith(t *testing.T, d *sem.Disc, b []float64, pre solver.Operator) (solver.Stats, []float64) {
	t.Helper()
	x := make([]float64, len(b))
	st := solver.CG(d.Laplacian, d.Dot, x, b, solver.Options{
		Tol: 1e-10, Relative: true, MaxIter: 2000, Precond: pre,
	})
	if !st.Converged {
		t.Fatalf("CG did not converge: %+v", st)
	}
	return st, x
}

func maxErrVsExact(d *sem.Disc, x []float64) float64 {
	m := d.M
	var maxErr float64
	for i := range x {
		exact := math.Sin(math.Pi*m.X[i]) * math.Sin(math.Pi*m.Y[i])
		if e := math.Abs(x[i] - exact); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestFDMSchwarzSolvesPoissonFewerIterations(t *testing.T) {
	d, b := poissonSetup(t, 4, 4, 7)
	plain, x0 := solveWith(t, d, b, nil)
	if e := maxErrVsExact(d, x0); e > 1e-6 {
		t.Fatalf("unpreconditioned solution wrong: %g", e)
	}
	p, err := New(d, Options{Method: FDM, UseCoarse: true})
	if err != nil {
		t.Fatal(err)
	}
	st, x := solveWith(t, d, b, p.Apply)
	if e := maxErrVsExact(d, x); e > 1e-6 {
		t.Fatalf("FDM-Schwarz solution wrong: %g", e)
	}
	if st.Iterations >= plain.Iterations {
		t.Errorf("FDM Schwarz not effective: %d vs plain %d", st.Iterations, plain.Iterations)
	}
	t.Logf("plain CG %d iters, FDM+coarse %d iters", plain.Iterations, st.Iterations)
}

func TestCoarseGridMatters(t *testing.T) {
	// With more elements, dropping the coarse grid must cost iterations
	// (the A₀ = 0 column of Table 2).
	d, b := poissonSetup(t, 8, 8, 5)
	pc, err := New(d, Options{Method: FDM, UseCoarse: true})
	if err != nil {
		t.Fatal(err)
	}
	pn, err := New(d, Options{Method: FDM, UseCoarse: false})
	if err != nil {
		t.Fatal(err)
	}
	stc, _ := solveWith(t, d, b, pc.Apply)
	stn, _ := solveWith(t, d, b, pn.Apply)
	if stc.Iterations >= stn.Iterations {
		t.Errorf("coarse grid did not help: with %d, without %d", stc.Iterations, stn.Iterations)
	}
	t.Logf("with coarse %d, without %d", stc.Iterations, stn.Iterations)
}

// cylinderNeumannSetup reproduces the Table 2 setting: the pressure-like
// (pure Neumann) Poisson system on the high-aspect cylinder O-grid.
func cylinderNeumannSetup(t *testing.T) (*sem.Disc, []float64, func([]float64)) {
	t.Helper()
	spec := mesh.CylinderOGrid(mesh.CylinderOGridSpec{NTheta: 12, NLayer: 4, R: 0.5, H: 4, WallRatio: 10})
	m, err := mesh.Discretize(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := sem.New(m, nil)
	n := m.K * m.Np
	one := make([]float64, n)
	for i := range one {
		one[i] = 1
	}
	vol := d.Integrate(one)
	deflate := func(u []float64) {
		mn := d.Integrate(u) / vol
		for i := range u {
			u[i] -= mn
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = m.B[i] * m.X[i]
	}
	d.Assemble(b)
	deflate(b)
	return d, b, deflate
}

func cylinderSolve(t *testing.T, d *sem.Disc, b []float64, deflate func([]float64), opt Options) int {
	t.Helper()
	opt.Neumann = true
	p, err := New(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(out, in []float64) { d.Laplacian(out, in); deflate(out) }
	pre := func(out, in []float64) { p.Apply(out, in); deflate(out) }
	x := make([]float64, len(b))
	st := solver.CG(apply, d.Dot, x, b, solver.Options{Tol: 1e-5, Relative: true, MaxIter: 4000, Precond: pre})
	if !st.Converged {
		t.Fatalf("cylinder solve (%+v) did not converge: %+v", opt, st)
	}
	return st.Iterations
}

func TestFEMOverlapVariantsTable2Ordering(t *testing.T) {
	// On the Table 2 mesh (high-aspect cylinder O-grid, pressure-like
	// Neumann system): more overlap → fewer iterations, and N_o=0 markedly
	// worse than N_o=1 — the paper's ordering.
	d, b, deflate := cylinderNeumannSetup(t)
	iters := map[int]int{}
	for _, no := range []int{0, 1, 3} {
		iters[no] = cylinderSolve(t, d, b, deflate, Options{Method: FEM, Overlap: no, UseCoarse: true})
	}
	if !(iters[3] <= iters[1] && iters[1] < iters[0]) {
		t.Errorf("Table 2 overlap ordering violated: %v", iters)
	}
	// FDM is competitive with FEM N_o=1 (the paper's headline comparison).
	fdmIters := cylinderSolve(t, d, b, deflate, Options{Method: FDM, UseCoarse: true})
	if fdmIters > 2*iters[1] {
		t.Errorf("FDM (%d) far worse than FEM N_o=1 (%d)", fdmIters, iters[1])
	}
	// Dropping the coarse grid costs a multiple in iterations.
	noCoarse := cylinderSolve(t, d, b, deflate, Options{Method: FDM, UseCoarse: false})
	if noCoarse < 2*fdmIters {
		t.Errorf("A0=0 (%d) should be ≫ coarse-grid case (%d)", noCoarse, fdmIters)
	}
	t.Logf("cylinder: FDM %d, FEM{0:%d 1:%d 3:%d}, A0=0 %d", fdmIters, iters[0], iters[1], iters[3], noCoarse)
}

func TestFDMCompetitiveWithFEMMinimalOverlap(t *testing.T) {
	d, b := poissonSetup(t, 4, 4, 7)
	pf, err := New(d, Options{Method: FDM, UseCoarse: true})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := New(d, Options{Method: FEM, Overlap: 1, UseCoarse: true})
	if err != nil {
		t.Fatal(err)
	}
	stf, _ := solveWith(t, d, b, pf.Apply)
	stm, _ := solveWith(t, d, b, pm.Apply)
	// Table 2: FDM iteration counts are comparable to FEM N_o=1 (within ~2x).
	if stf.Iterations > 2*stm.Iterations {
		t.Errorf("FDM (%d) much worse than FEM N_o=1 (%d)", stf.Iterations, stm.Iterations)
	}
	t.Logf("FDM %d vs FEM(N_o=1) %d", stf.Iterations, stm.Iterations)
}

func TestSchwarzOnDeformedCylinderMesh(t *testing.T) {
	spec := mesh.CylinderOGrid(mesh.CylinderOGridSpec{NTheta: 12, NLayer: 4, R: 0.5, H: 3, WallRatio: 6})
	m, err := mesh.Discretize(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := sem.New(m, m.BoundaryMask(nil))
	b := make([]float64, m.K*m.Np)
	for i := range b {
		b[i] = m.B[i]
	}
	d.Assemble(b)
	p, err := New(d, Options{Method: FDM, UseCoarse: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(b))
	st := solver.CG(d.Laplacian, d.Dot, x, b, solver.Options{
		Tol: 1e-8, Relative: true, MaxIter: 600, Precond: p.Apply,
	})
	if !st.Converged {
		t.Fatalf("deformed-mesh Schwarz CG failed: %+v", st)
	}
	t.Logf("cylinder mesh: %d iterations", st.Iterations)
}

func TestSchwarz3D(t *testing.T) {
	spec := mesh.Box3D(mesh.Box3DSpec{Nx: 2, Ny: 2, Nz: 2, X1: 1, Y1: 1, Z1: 1})
	m, err := mesh.Discretize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := sem.New(m, m.BoundaryMask(nil))
	b := make([]float64, m.K*m.Np)
	pi := math.Pi
	for i := range b {
		b[i] = m.B[i] * 3 * pi * pi * math.Sin(pi*m.X[i]) * math.Sin(pi*m.Y[i]) * math.Sin(pi*m.Zc[i])
	}
	d.Assemble(b)
	p, err := New(d, Options{Method: FDM, UseCoarse: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(b))
	stPre := solver.CG(d.Laplacian, d.Dot, x, b, solver.Options{
		Tol: 1e-9, Relative: true, MaxIter: 500, Precond: p.Apply,
	})
	if !stPre.Converged {
		t.Fatalf("3D Schwarz CG failed: %+v", stPre)
	}
	var maxErr float64
	for i := range x {
		exact := math.Sin(pi*m.X[i]) * math.Sin(pi*m.Y[i]) * math.Sin(pi*m.Zc[i])
		if e := math.Abs(x[i] - exact); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-3 {
		t.Errorf("3D solution error %g", maxErr)
	}
	// And it should beat unpreconditioned CG.
	x2 := make([]float64, len(b))
	plain := solver.CG(d.Laplacian, d.Dot, x2, b, solver.Options{
		Tol: 1e-9, Relative: true, MaxIter: 2000,
	})
	if stPre.Iterations >= plain.Iterations {
		t.Errorf("3D Schwarz (%d) not better than plain CG (%d)", stPre.Iterations, plain.Iterations)
	}
	t.Logf("3D: Schwarz %d vs plain %d", stPre.Iterations, plain.Iterations)
}

func TestNeumannPressureLikeSolve(t *testing.T) {
	// Pure Neumann Poisson (pressure-like): RHS with zero mean, solution
	// defined up to a constant. The Schwarz preconditioner must keep CG
	// convergent with the pinned-vertex coarse solve.
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 4, X1: 1, Y1: 1})
	m, err := mesh.Discretize(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	d := sem.New(m, nil)
	n := m.K * m.Np
	b := make([]float64, n)
	for i := range b {
		b[i] = m.B[i] * math.Cos(math.Pi*m.X[i]) * math.Cos(math.Pi*m.Y[i])
	}
	d.Assemble(b)
	p, err := New(d, Options{Method: FDM, UseCoarse: true, Neumann: true})
	if err != nil {
		t.Fatal(err)
	}
	// Deflate the constant null space inside the operator and preconditioner.
	vol := d.Integrate(onesLike(n))
	deflate := func(u []float64) {
		mean := d.Integrate(u) / vol
		for i := range u {
			u[i] -= mean
		}
	}
	apply := func(out, in []float64) {
		d.Laplacian(out, in)
		deflate(out)
	}
	pre := func(out, in []float64) {
		p.Apply(out, in)
		deflate(out)
	}
	x := make([]float64, n)
	st := solver.CG(apply, d.Dot, x, b, solver.Options{
		Tol: 1e-8, Relative: true, MaxIter: 400, Precond: pre,
	})
	if !st.Converged {
		t.Fatalf("Neumann Schwarz CG failed: %+v", st)
	}
	// Exact solution: cos(πx)cos(πy)/(2π²), zero-mean.
	deflate(x)
	var maxErr float64
	for i := range x {
		exact := math.Cos(math.Pi*m.X[i]) * math.Cos(math.Pi*m.Y[i]) / (2 * math.Pi * math.Pi)
		if e := math.Abs(x[i] - exact); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-6 {
		t.Errorf("Neumann solution error %g", maxErr)
	}
	t.Logf("Neumann solve: %d iterations, err %g", st.Iterations, maxErr)
}

func onesLike(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestOptionsValidation(t *testing.T) {
	spec := mesh.Box3D(mesh.Box3DSpec{Nx: 1, Ny: 1, Nz: 1, X1: 1, Y1: 1, Z1: 1})
	m, err := mesh.Discretize(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := sem.New(m, nil)
	if _, err := New(d, Options{Method: FEM}); err == nil {
		t.Error("FEM in 3D should be rejected")
	}
	if _, err := New(d, Options{Method: Method(99)}); err == nil {
		t.Error("unknown method should be rejected")
	}
}

// Steady-state Apply, local solves and coarse term included, must not
// allocate.
func TestFDMApplyParallelBitwiseAndAllocFree(t *testing.T) {
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 4, X0: 0, X1: 1, Y0: 0, Y1: 1})
	m, err := mesh.Discretize(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := sem.New(m, m.BoundaryMask(nil))
	n := m.K * m.Np
	r := make([]float64, n)
	for i := range r {
		r[i] = math.Sin(5*m.X[i]) * math.Cos(4*m.Y[i])
	}
	d.Assemble(r)
	p, err := New(d, Options{Method: FDM, UseCoarse: true})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	allocs := testing.AllocsPerRun(5, func() { p.Apply(out, r) })
	if allocs > 0 {
		t.Errorf("steady-state Apply allocated %v times, want 0", allocs)
	}
}

// The FEM subdomains grow along fem.NodeAdjacency's neighbour lists, whose
// order is each dense Cholesky's index order: every build of the same
// preconditioner must apply it bit for bit alike.
func TestFEMSchwarzBuildIsReproducible(t *testing.T) {
	d, b := poissonSetup(t, 4, 4, 6)
	var first []float64
	for build := 0; build < 4; build++ {
		p, err := New(d, Options{Method: FEM, Overlap: 3, UseCoarse: true})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(b))
		p.Apply(out, b)
		if first == nil {
			first = out
			continue
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(first[i]) {
				t.Fatalf("build %d: Apply entry %d = %v, build 0 gave %v", build, i, out[i], first[i])
			}
		}
	}
}
