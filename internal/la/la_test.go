package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestMatMulKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{1, 1, 1}, {2, 14, 2}, {14, 2, 14}, {16, 14, 16}, {5, 7, 3},
		{16, 16, 256}, {196, 16, 14}, {9, 9, 9}, {1, 8, 13}, {17, 1, 17}}
	for _, s := range shapes {
		n1, n2, n3 := s[0], s[1], s[2]
		a := randMat(rng, n1*n2)
		b := randMat(rng, n2*n3)
		ref := make([]float64, n1*n3)
		MatMulNaive(ref, a, b, n1, n2, n3)
		for _, k := range Kernels {
			c := make([]float64, n1*n3)
			MatMul(k, c, a, b, n1, n2, n3)
			if d := maxAbsDiff(ref, c); d > 1e-12*float64(n2) {
				t.Errorf("kernel %v shape %v: max diff %g", k, s, d)
			}
		}
	}
}

func TestMatMulQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1, n2, n3 := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a := randMat(rng, n1*n2)
		b := randMat(rng, n2*n3)
		ref := make([]float64, n1*n3)
		MatMulNaive(ref, a, b, n1, n2, n3)
		for _, k := range Kernels[1:] {
			c := make([]float64, n1*n3)
			MatMul(k, c, a, b, n1, n2, n3)
			if maxAbsDiff(ref, c) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulTransposeForms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n1, n2, n3 := 6, 5, 7
	a := randMat(rng, n1*n2)
	bt := randMat(rng, n3*n2) // B is n3 x n2; we want A*Bᵀ.
	// Reference: expand Bᵀ.
	b := make([]float64, n2*n3)
	for i := 0; i < n3; i++ {
		for j := 0; j < n2; j++ {
			b[j*n3+i] = bt[i*n2+j]
		}
	}
	ref := make([]float64, n1*n3)
	MatMulNaive(ref, a, b, n1, n2, n3)
	c := make([]float64, n1*n3)
	MulABt(c, a, bt, n1, n2, n3)
	if d := maxAbsDiff(ref, c); d > 1e-12 {
		t.Errorf("MulABt: max diff %g", d)
	}
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randMat(rng, n*n)
		for i := 0; i < n; i++ {
			a[i*n+i] += float64(n) // keep well conditioned
		}
		xTrue := randMat(rng, n)
		b := make([]float64, n)
		MatVec(b, a, xTrue, n, n)
		f, err := FactorLU(a, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := make([]float64, n)
		f.Solve(x, b)
		if d := maxAbsDiff(x, xTrue); d > 1e-9 {
			t.Errorf("n=%d: LU solve error %g", n, d)
		}
		inv := f.Inverse()
		prod := make([]float64, n*n)
		MatMulNaive(prod, a, inv, n, n, n)
		for i := 0; i < n; i++ {
			prod[i*n+i] -= 1
		}
		if d := Nrm2(prod); d > 1e-8 {
			t.Errorf("n=%d: inverse residual %g", n, d)
		}
	}
}

func TestLUSolveGeneralPivoting(t *testing.T) {
	// Regression: general matrices that force row interchanges (the
	// diagonally-dominant cases above never pivot).
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{3, 9, 30} {
		a := randMat(rng, n*n)
		xTrue := randMat(rng, n)
		b := make([]float64, n)
		MatVec(b, a, xTrue, n, n)
		f, err := FactorLU(a, n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		f.Solve(x, b)
		if d := maxAbsDiff(x, xTrue); d > 1e-7 {
			t.Errorf("n=%d: pivoted LU solve error %g", n, d)
		}
	}
	// Hand-checked 3x3 with known solution.
	a := []float64{0, 2, 1, 1, 1, 1, 2, 0, 3}
	f, err := FactorLU(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	f.Solve(x, []float64{7, 6, 11})
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(x[i]-want) > 1e-12 {
			t.Fatalf("hand-checked solve wrong: %v", x)
		}
	}
}

func TestCLUSolveGeneralPivoting(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 12
	a := make([]complex128, n*n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	xTrue := make([]complex128, n)
	for i := range xTrue {
		xTrue[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b := make([]complex128, n)
	CMatVec(b, a, xTrue, n, n)
	f, err := FactorCLU(a, n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	f.Solve(x, b)
	for i := range x {
		if d := x[i] - xTrue[i]; math.Hypot(real(d), imag(d)) > 1e-8 {
			t.Fatalf("pivoted complex solve error at %d: %v", i, d)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	if _, err := FactorLU(a, 2); err == nil {
		t.Error("expected error for singular matrix")
	}
}

func spdMatrix(rng *rand.Rand, n int) []float64 {
	m := randMat(rng, n*n)
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += m[k*n+i] * m[k*n+j]
			}
			a[i*n+j] = s
		}
		a[i*n+i] += float64(n)
	}
	return a
}

func TestCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 10, 40} {
		a := spdMatrix(rng, n)
		c, err := FactorCholesky(a, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		xTrue := randMat(rng, n)
		b := make([]float64, n)
		MatVec(b, a, xTrue, n, n)
		x := make([]float64, n)
		c.Solve(x, b)
		if d := maxAbsDiff(x, xTrue); d > 1e-9 {
			t.Errorf("n=%d: Cholesky solve error %g", n, d)
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := []float64{1, 0, 0, -1}
	if _, err := FactorCholesky(a, 2); err == nil {
		t.Error("expected error for indefinite matrix")
	}
}

// laplace1D returns the band form and dense form of the 1D Dirichlet
// Laplacian (tridiagonal 2,-1).
func laplace1D(n int) (band [][]float64, dense []float64) {
	band = [][]float64{make([]float64, n), make([]float64, n)}
	dense = make([]float64, n*n)
	for i := 0; i < n; i++ {
		band[0][i] = 2
		dense[i*n+i] = 2
		if i+1 < n {
			band[1][i] = -1
			dense[i*n+i+1] = -1
			dense[(i+1)*n+i] = -1
		}
	}
	return band, dense
}

func TestBandedCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 25
	band, dense := laplace1D(n)
	f, err := FactorBanded(band, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := randMat(rng, n)
	b := make([]float64, n)
	MatVec(b, dense, xTrue, n, n)
	x := make([]float64, n)
	f.Solve(x, b)
	if d := maxAbsDiff(x, xTrue); d > 1e-9 {
		t.Errorf("banded solve error %g", d)
	}
	if f.SolveFlops() <= 0 {
		t.Error("SolveFlops must be positive")
	}
}

func TestBandedCholeskyWide(t *testing.T) {
	// 2D 5-point Poisson on a 6x6 grid has half-bandwidth 6.
	nx := 6
	n := nx * nx
	bw := nx
	band := make([][]float64, bw+1)
	for d := range band {
		band[d] = make([]float64, n)
	}
	dense := make([]float64, n*n)
	add := func(i, j int, v float64) {
		dense[i*n+j] += v
		if i != j {
			dense[j*n+i] += v
		}
		if j <= i && i-j <= bw {
			band[i-j][j] += v
		}
	}
	for iy := 0; iy < nx; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := iy*nx + ix
			add(i, i, 4)
			if ix > 0 {
				add(i, i-1, -1)
			}
			if iy > 0 {
				add(i, i-nx, -1)
			}
		}
	}
	f, err := FactorBanded(band, n, bw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	xTrue := randMat(rng, n)
	b := make([]float64, n)
	MatVec(b, dense, xTrue, n, n)
	x := make([]float64, n)
	f.Solve(x, b)
	if d := maxAbsDiff(x, xTrue); d > 1e-8 {
		t.Errorf("banded 2D solve error %g", d)
	}
}

func TestSymEig(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 12
	a := spdMatrix(rng, n)
	w, v, err := SymEig(a, n)
	if err != nil {
		t.Fatal(err)
	}
	// A V = V diag(w).
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var av float64
			for k := 0; k < n; k++ {
				av += a[i*n+k] * v[k*n+j]
			}
			if math.Abs(av-w[j]*v[i*n+j]) > 1e-8 {
				t.Fatalf("eigenpair %d residual too large: %g", j, av-w[j]*v[i*n+j])
			}
		}
	}
	for j := 1; j < n; j++ {
		if w[j] < w[j-1] {
			t.Error("eigenvalues not sorted ascending")
		}
	}
	// Orthonormality.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var d float64
			for k := 0; k < n; k++ {
				d += v[k*n+i] * v[k*n+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-9 {
				t.Fatalf("eigenvectors not orthonormal: (%d,%d)=%g", i, j, d)
			}
		}
	}
}

func TestSymEigKnown(t *testing.T) {
	// Tridiagonal (2,-1) has eigenvalues 2-2cos(k*pi/(n+1)).
	n := 9
	_, dense := laplace1D(n)
	w, _, err := SymEig(dense, n)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(w[k-1]-want) > 1e-10 {
			t.Errorf("eigenvalue %d: got %g want %g", k, w[k-1], want)
		}
	}
}

func TestGenSymEig(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 10
	a := spdMatrix(rng, n)
	b := spdMatrix(rng, n)
	w, z, err := GenSymEig(a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	// A z_j = w_j B z_j and Zᵀ B Z = I.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var az, bz float64
			for k := 0; k < n; k++ {
				az += a[i*n+k] * z[k*n+j]
				bz += b[i*n+k] * z[k*n+j]
			}
			if math.Abs(az-w[j]*bz) > 1e-7 {
				t.Fatalf("generalized eigenpair %d residual: %g", j, az-w[j]*bz)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				var bz float64
				for l := 0; l < n; l++ {
					bz += b[k*n+l] * z[l*n+j]
				}
				s += z[k*n+i] * bz
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-8 {
				t.Fatalf("Zᵀ B Z not identity at (%d,%d): %g", i, j, s)
			}
		}
	}
}

func TestCLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 15
	a := make([]complex128, n*n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += complex(float64(n), 0)
	}
	xTrue := make([]complex128, n)
	for i := range xTrue {
		xTrue[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b := make([]complex128, n)
	CMatVec(b, a, xTrue, n, n)
	f, err := FactorCLU(a, n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	f.Solve(x, b)
	for i := range x {
		if d := x[i] - xTrue[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("complex solve error at %d: %v", i, d)
		}
	}
}

func TestCOOToCSRDuplicates(t *testing.T) {
	b := NewCOO(3, 3)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2) // duplicate, must sum
	b.Add(2, 1, 5)
	b.Add(1, 2, -1)
	m := b.ToCSR()
	if got := m.At(0, 0); got != 3 {
		t.Errorf("duplicate sum: got %g want 3", got)
	}
	if got := m.At(2, 1); got != 5 {
		t.Errorf("At(2,1)=%g", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("missing entry should be 0, got %g", got)
	}
	if len(m.Val) != 3 {
		t.Errorf("%d stored entries, want 3", len(m.Val))
	}
}

func grid2DCSR(nx, ny int) *CSR {
	b := NewCOO(nx*ny, nx*ny)
	id := func(ix, iy int) int { return iy*nx + ix }
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := id(ix, iy)
			b.Add(i, i, 4.5) // shifted to be SPD even with Neumann-ish edges
			if ix > 0 {
				b.Add(i, id(ix-1, iy), -1)
			}
			if ix < nx-1 {
				b.Add(i, id(ix+1, iy), -1)
			}
			if iy > 0 {
				b.Add(i, id(ix, iy-1), -1)
			}
			if iy < ny-1 {
				b.Add(i, id(ix, iy+1), -1)
			}
		}
	}
	return b.ToCSR()
}

// dense expands a sparse matrix to row-major storage.
func dense(m *CSR) []float64 {
	d := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			d[i*m.Cols+m.Col[p]] = m.Val[p]
		}
	}
	return d
}

func TestSparseCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := grid2DCSR(7, 5)
	n := a.Rows
	f, err := FactorSparseChol(a)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := randMat(rng, n)
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	x := make([]float64, n)
	f.Solve(x, b)
	if d := maxAbsDiff(x, xTrue); d > 1e-9 {
		t.Errorf("sparse Cholesky solve error %g", d)
	}
}

func TestSparseCholeskyMatchesDense(t *testing.T) {
	a := grid2DCSR(4, 4)
	n := a.Rows
	f, err := FactorSparseChol(a)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := FactorCholesky(dense(a), n)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	f.Solve(x1, b)
	dc.Solve(x2, b)
	if d := maxAbsDiff(x1, x2); d > 1e-10 {
		t.Errorf("sparse vs dense Cholesky mismatch %g", d)
	}
}

func TestInverseTransposeColsIsExactInverseFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nx, ny := 9, 9
	a := grid2DCSR(nx, ny)
	perm := NDPermGrid(nx, ny)
	ap := a.Permute(perm)
	f, err := FactorSparseChol(ap)
	if err != nil {
		t.Fatal(err)
	}
	x := f.InverseTransposeCols()
	n := a.Rows
	// X Xᵀ b must equal A_p⁻¹ b.
	b := randMat(rng, n)
	want := make([]float64, n)
	f.Solve(want, b)
	// z = Xᵀ b; y = X z.
	z := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for k, i := range x.Idx[j] {
			s += x.Val[j][k] * b[i]
		}
		z[j] = s
	}
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		v := z[j]
		for k, i := range x.Idx[j] {
			y[i] += x.Val[j][k] * v
		}
	}
	if d := maxAbsDiff(y, want); d > 1e-9 {
		t.Errorf("X Xᵀ != A⁻¹: max diff %g", d)
	}
	// The factor must also be A-conjugate: Xᵀ A X = I (spot check columns).
	ax := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j += 7 {
		for i := range col {
			col[i] = 0
		}
		for k, i := range x.Idx[j] {
			col[i] = x.Val[j][k]
		}
		ap.MulVec(ax, col)
		for j2 := 0; j2 < n; j2 += 5 {
			var s float64
			for k, i := range x.Idx[j2] {
				s += x.Val[j2][k] * ax[i]
			}
			want := 0.0
			if j2 == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-9 {
				t.Fatalf("XᵀAX(%d,%d) = %g, want %g", j2, j, s, want)
			}
		}
	}
}

func TestNDReducesInverseFactorFill(t *testing.T) {
	nx, ny := 15, 15
	a := grid2DCSR(nx, ny)
	fNat, err := FactorSparseChol(a)
	if err != nil {
		t.Fatal(err)
	}
	perm := NDPermGrid(nx, ny)
	fND, err := FactorSparseChol(a.Permute(perm))
	if err != nil {
		t.Fatal(err)
	}
	natNNZ := fNat.InverseTransposeCols().NNZ()
	ndNNZ := fND.InverseTransposeCols().NNZ()
	if ndNNZ >= natNNZ {
		t.Errorf("nested dissection did not reduce X fill: nat %d vs nd %d", natNNZ, ndNNZ)
	}
}

func checkPerm(t *testing.T, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm length %d want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("invalid permutation entry %d", p)
		}
		seen[p] = true
	}
}

func TestNDPermGridIsPermutation(t *testing.T) {
	for _, s := range [][2]int{{1, 1}, {2, 3}, {7, 7}, {13, 9}, {63, 63}} {
		perm := NDPermGrid(s[0], s[1])
		checkPerm(t, perm, s[0]*s[1])
	}
}

func TestNDPermGraphIsPermutation(t *testing.T) {
	// Grid graph as a general graph.
	nx, ny := 11, 8
	n := nx * ny
	adj := make([][]int, n)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := iy*nx + ix
			if ix > 0 {
				adj[i] = append(adj[i], i-1)
			}
			if ix < nx-1 {
				adj[i] = append(adj[i], i+1)
			}
			if iy > 0 {
				adj[i] = append(adj[i], i-nx)
			}
			if iy < ny-1 {
				adj[i] = append(adj[i], i+nx)
			}
		}
	}
	perm := NDPermGraph(adj)
	checkPerm(t, perm, n)
	// Disconnected graph.
	adj2 := make([][]int, 10)
	adj2[0] = []int{1}
	adj2[1] = []int{0}
	perm2 := NDPermGraph(adj2)
	checkPerm(t, perm2, 10)
}

func TestInvPerm(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	inv := InvPerm(perm)
	for newI, oldI := range perm {
		if inv[oldI] != newI {
			t.Fatalf("InvPerm wrong at %d", oldI)
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	a := grid2DCSR(5, 4)
	perm := NDPermGrid(5, 4)
	ap := a.Permute(perm)
	// (PAPᵀ)[inv[i], inv[j]] == A[i,j].
	inv := InvPerm(perm)
	for i := 0; i < a.Rows; i++ {
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			j := a.Col[p]
			if got := ap.At(inv[i], inv[j]); got != a.Val[p] {
				t.Fatalf("permute mismatch at (%d,%d): %g vs %g", i, j, got, a.Val[p])
			}
		}
	}
}

func TestBlasHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Nrm2(x) != 5 {
		t.Error("Nrm2")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Error("Axpy")
	}
	if Dot(x, y) != 3*7+4*9 {
		t.Error("Dot")
	}
	Scale(0.5, x)
	if x[0] != 1.5 || x[1] != 2 {
		t.Error("Scale")
	}
}
