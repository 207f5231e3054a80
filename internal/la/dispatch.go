package la

// dispatch.go implements the per-shape matmul kernel dispatch of Sec. 6 /
// Table 3 of the paper: no single kernel wins every (n1 x n2) x (n2 x n3)
// calling configuration, so Mul and MulABt route each call through a shape-
// indexed table selecting the winning variant. The table is deterministic:
// the static default is a fixed heuristic, and a Tuner built with Strict
// (the solver-facing mode) only considers kernels that are bitwise-identical
// to the textbook loops — every output entry is a single sequential
// accumulation chain over the contraction index — so tuning changes speed,
// never results. Non-strict tuning (cmd/tables' "auto" column) may also pick
// the multi-accumulator f2/f3 kernels, which reassociate the sum.

import (
	"fmt"
	"sync/atomic"
	"time"
)

// dispatchDim bounds the shape dimensions covered by the dispatch table;
// calls with any dimension >= dispatchDim fall back to the size heuristic
// (which already favours the blocked kernels at large shapes).
const dispatchDim = 32

// DispatchTable maps small (n1, n2, n3) shapes to kernel choices. The zero
// value defers every shape to the static default heuristic.
type DispatchTable struct {
	mul [dispatchDim * dispatchDim * dispatchDim]uint8 // MatMulKernel + 1; 0 = default
	abt [dispatchDim * dispatchDim * dispatchDim]uint8 // ABtKernel + 1; 0 = default
}

// SetMul pins the C = A*B kernel for one shape (no-op outside table range).
func (t *DispatchTable) SetMul(n1, n2, n3 int, k MatMulKernel) {
	if i, ok := shapeIndex(n1, n2, n3); ok {
		t.mul[i] = uint8(k) + 1
	}
}

// SetABt pins the C = A*Bᵀ kernel for one shape.
func (t *DispatchTable) SetABt(n1, n2, n3 int, k ABtKernel) {
	if i, ok := shapeIndex(n1, n2, n3); ok {
		t.abt[i] = uint8(k) + 1
	}
}

// MulKernel reports the pinned C = A*B kernel for a shape.
func (t *DispatchTable) MulKernel(n1, n2, n3 int) (MatMulKernel, bool) {
	if i, ok := shapeIndex(n1, n2, n3); ok && t.mul[i] != 0 {
		return MatMulKernel(t.mul[i] - 1), true
	}
	return 0, false
}

// ABtKernel reports the pinned C = A*Bᵀ kernel for a shape.
func (t *DispatchTable) ABtKernel(n1, n2, n3 int) (ABtKernel, bool) {
	if i, ok := shapeIndex(n1, n2, n3); ok && t.abt[i] != 0 {
		return ABtKernel(t.abt[i] - 1), true
	}
	return 0, false
}

func shapeIndex(n1, n2, n3 int) (int, bool) {
	if n1 <= 0 || n2 <= 0 || n3 <= 0 ||
		n1 >= dispatchDim || n2 >= dispatchDim || n3 >= dispatchDim {
		return 0, false
	}
	return (n1*dispatchDim+n2)*dispatchDim + n3, true
}

// active holds the installed table; nil means "heuristic only".
var active atomic.Pointer[DispatchTable]

// Install makes t the live dispatch table for Mul/MulABt (nil restores the
// pure heuristic). Safe to call concurrently with running solvers: readers
// see either table atomically.
func Install(t *DispatchTable) { active.Store(t) }

// Installed returns the live dispatch table (nil when only the static
// heuristic is active).
func Installed() *DispatchTable { return active.Load() }

// ResetDispatch restores the static default heuristic.
func ResetDispatch() { active.Store(nil) }

func lookupMul(n1, n2, n3 int) (MatMulKernel, bool) {
	if t := active.Load(); t != nil {
		return t.MulKernel(n1, n2, n3)
	}
	return 0, false
}

func lookupABt(n1, n2, n3 int) (ABtKernel, bool) {
	if t := active.Load(); t != nil {
		return t.ABtKernel(n1, n2, n3)
	}
	return 0, false
}

// mulDefault is the static heuristic: the register-blocked kernel wherever
// its 2x4 tiles have work (it skips the zero-fill pass of ikj and runs eight
// accumulator chains), the saxpy ordering otherwise. Both are
// bitwise-identical to the naive loop.
func mulDefault(c, a, b []float64, n1, n2, n3 int) {
	if n1 >= 2 && n3 >= 4 {
		MatMulBlocked(c, a, b, n1, n2, n3)
		return
	}
	MatMulIKJ(c, a, b, n1, n2, n3)
}

// abtDefault: 2x2 tiles wherever they have work, plain loop otherwise.
func abtDefault(c, a, b []float64, n1, n2, n3 int) {
	if n1 >= 2 && n3 >= 2 {
		MulABtBlocked(c, a, b, n1, n2, n3)
		return
	}
	MulABtSimple(c, a, b, n1, n2, n3)
}

// strictMulKernels are the C = A*B variants whose outputs are
// bitwise-identical to the naive loop (single sequential accumulator per
// entry); f2/f3 split the sum into four chains and reassociate.
var strictMulKernels = []MatMulKernel{KernelNaive, KernelIKJ, KernelBlocked}

// Tuner micro-benchmarks the kernel variants on a set of shapes and builds a
// dispatch table of per-shape winners (the paper's Table 3 selection).
type Tuner struct {
	// MinTime is the measurement window per (shape, kernel); default 2ms.
	MinTime time.Duration
	// Strict restricts the candidates to bitwise-identical kernels, so an
	// installed tuned table cannot change computed fields. This is the mode
	// the solvers use; leave false only for reporting (Table 3's auto row).
	Strict bool
}

// ShapeResult reports one tuned shape.
type ShapeResult struct {
	Op         string    `json:"op"` // "mul" or "abt"
	N1, N2, N3 int       `json:"-"`
	Shape      [3]int    `json:"shape"`
	Kernels    []string  `json:"kernels"`
	MFLOPS     []float64 `json:"mflops"`
	Best       string    `json:"best"`
	BestMFLOPS float64   `json:"best_mflops"`
}

// Tune measures every candidate kernel on every shape and returns the
// winner table plus the per-shape measurements. mulShapes/abtShapes use
// MulABt's (n1, n2, n3) convention.
func (t *Tuner) Tune(mulShapes, abtShapes [][3]int) (*DispatchTable, []ShapeResult) {
	dt := &DispatchTable{}
	var results []ShapeResult
	for _, s := range mulShapes {
		r := t.tuneMul(dt, s)
		results = append(results, r)
	}
	for _, s := range abtShapes {
		r := t.tuneABt(dt, s)
		results = append(results, r)
	}
	return dt, results
}

func (t *Tuner) minTime() time.Duration {
	if t.MinTime > 0 {
		return t.MinTime
	}
	return 2 * time.Millisecond
}

func (t *Tuner) tuneMul(dt *DispatchTable, s [3]int) ShapeResult {
	n1, n2, n3 := s[0], s[1], s[2]
	cands := Kernels
	if t.Strict {
		cands = strictMulKernels
	}
	a, b, c := tuneOperands(n1, n2, n3)
	r := ShapeResult{Op: "mul", N1: n1, N2: n2, N3: n3, Shape: s}
	best, bestMF := cands[0], -1.0
	for _, k := range cands {
		mf := measure(t.minTime(), n1, n2, n3, func() { MatMul(k, c, a, b, n1, n2, n3) })
		r.Kernels = append(r.Kernels, k.String())
		r.MFLOPS = append(r.MFLOPS, mf)
		if mf > bestMF {
			best, bestMF = k, mf
		}
	}
	dt.SetMul(n1, n2, n3, best)
	r.Best, r.BestMFLOPS = best.String(), bestMF
	return r
}

func (t *Tuner) tuneABt(dt *DispatchTable, s [3]int) ShapeResult {
	n1, n2, n3 := s[0], s[1], s[2]
	a, b, c := tuneOperands(n1, n2, n3)
	r := ShapeResult{Op: "abt", N1: n1, N2: n2, N3: n3, Shape: s}
	best, bestMF := ABtSimple, -1.0
	for _, k := range ABtKernels {
		mf := measure(t.minTime(), n1, n2, n3, func() { MatMulABt(k, c, a, b, n1, n2, n3) })
		r.Kernels = append(r.Kernels, k.String())
		r.MFLOPS = append(r.MFLOPS, mf)
		if mf > bestMF {
			best, bestMF = k, mf
		}
	}
	dt.SetABt(n1, n2, n3, best)
	r.Best, r.BestMFLOPS = best.String(), bestMF
	return r
}

func tuneOperands(n1, n2, n3 int) (a, b, c []float64) {
	a = make([]float64, n1*n2)
	bn := n2 * n3
	if n3*n2 > bn {
		bn = n3 * n2
	}
	b = make([]float64, bn)
	c = make([]float64, n1*n3)
	// Deterministic non-trivial fill (an LCG; timing does not depend on
	// values, only on shapes).
	x := uint64(0x9e3779b97f4a7c15)
	fill := func(v []float64) {
		for i := range v {
			x = x*6364136223846793005 + 1442695040888963407
			v[i] = float64(int64(x>>20))/float64(1<<43) - 0.5
		}
	}
	fill(a)
	fill(b)
	return a, b, c
}

func measure(minTime time.Duration, n1, n2, n3 int, run func()) float64 {
	run() // warm up
	flops := 2 * float64(n1) * float64(n2) * float64(n3)
	// Batch so the timer overhead amortizes on tiny shapes.
	batch := 1 + int(1e5/flops)
	var reps int
	t0 := time.Now()
	for time.Since(t0) < minTime {
		for i := 0; i < batch; i++ {
			run()
		}
		reps += batch
	}
	el := time.Since(t0).Seconds()
	if el == 0 {
		return 0
	}
	return flops * float64(reps) / el / 1e6
}

// ShapesForOrder enumerates the matmul calling configurations an order-n
// discretization actually produces through tensor.Apply*: the square
// derivative/filter applications on the GLL grid (np1 = n+1) and the
// staggered-grid interpolations to/from the Gauss pressure grid
// (nm1 = n-1). Returned in MulABt's and Mul's (n1, n2, n3) conventions.
func ShapesForOrder(n, dim int) (mulShapes, abtShapes [][3]int) {
	np1, nm1 := n+1, n-1
	// Operator pairs (rows m x cols k): square, restrict (GLL->Gauss),
	// prolong (Gauss->GLL).
	ops := [][2]int{{np1, np1}, {nm1, np1}, {np1, nm1}}
	addMul := func(s [3]int) { mulShapes = appendShape(mulShapes, s) }
	addABt := func(s [3]int) { abtShapes = appendShape(abtShapes, s) }
	for _, op := range ops {
		m, k := op[0], op[1]
		if dim == 2 {
			// Apply2D on a k x k field: ApplyR2D -> MulABt(k, k, m);
			// ApplyS2D on the m x k intermediate -> Mul(m, k, m).
			addABt([3]int{k, k, m})
			addMul([3]int{m, k, m})
			continue
		}
		// Apply3D on a k^3 field: ApplyR3D -> MulABt(k*k, k, m);
		// ApplyS3D slabs -> Mul(m, k, m) (k slabs of the m x k x k field);
		// ApplyT3D -> Mul(m, k, m*m).
		addABt([3]int{k * k, k, m})
		addMul([3]int{m, k, m})
		addMul([3]int{m, k, m * m})
	}
	return mulShapes, abtShapes
}

func appendShape(list [][3]int, s [3]int) [][3]int {
	for _, e := range list {
		if e == s {
			return list
		}
	}
	return append(list, s)
}

// AutoTune tunes the shapes of an order-n, dim-dimensional discretization in
// Strict mode and installs the resulting table. Returns the per-shape
// measurements for reporting.
func AutoTune(n, dim int) []ShapeResult {
	tn := &Tuner{Strict: true}
	mul, abt := ShapesForOrder(n, dim)
	dt, res := tn.Tune(mul, abt)
	Install(dt)
	return res
}

// String renders one tuned shape as a table row.
func (r ShapeResult) String() string {
	return fmt.Sprintf("%s (%d x %d) x (%d x %d): %s (%.0f MFLOPS)",
		r.Op, r.N1, r.N2, r.N3, r.N2, r.Best, r.BestMFLOPS)
}

// dotFuncs returns a fully-unrolled dot product of fixed length n (nil when
// no unrolled variant exists). Each is a single sequential accumulation
// chain, bitwise-identical to the plain loop.
func dotFuncs(n int) func(a, b []float64) float64 {
	switch n {
	case 2:
		return dot2
	case 3:
		return dot3
	case 4:
		return dot4
	case 5:
		return dot5
	case 6:
		return dot6
	case 7:
		return dot7
	case 8:
		return dot8
	case 9:
		return dot9
	case 10:
		return dot10
	case 11:
		return dot11
	case 12:
		return dot12
	case 13:
		return dot13
	case 14:
		return dot14
	case 15:
		return dot15
	case 16:
		return dot16
	}
	return nil
}

func dot2(a, b []float64) float64 {
	a = a[:2]
	b = b[:2]
	s := a[0] * b[0]
	s += a[1] * b[1]
	return s
}

func dot3(a, b []float64) float64 {
	a = a[:3]
	b = b[:3]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	return s
}

func dot4(a, b []float64) float64 {
	a = a[:4]
	b = b[:4]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	return s
}

func dot5(a, b []float64) float64 {
	a = a[:5]
	b = b[:5]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	return s
}

func dot6(a, b []float64) float64 {
	a = a[:6]
	b = b[:6]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	return s
}

func dot7(a, b []float64) float64 {
	a = a[:7]
	b = b[:7]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	return s
}

func dot8(a, b []float64) float64 {
	a = a[:8]
	b = b[:8]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	return s
}

func dot9(a, b []float64) float64 {
	a = a[:9]
	b = b[:9]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	s += a[8] * b[8]
	return s
}

func dot10(a, b []float64) float64 {
	a = a[:10]
	b = b[:10]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	s += a[8] * b[8]
	s += a[9] * b[9]
	return s
}

func dot11(a, b []float64) float64 {
	a = a[:11]
	b = b[:11]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	s += a[8] * b[8]
	s += a[9] * b[9]
	s += a[10] * b[10]
	return s
}

func dot12(a, b []float64) float64 {
	a = a[:12]
	b = b[:12]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	s += a[8] * b[8]
	s += a[9] * b[9]
	s += a[10] * b[10]
	s += a[11] * b[11]
	return s
}

func dot13(a, b []float64) float64 {
	a = a[:13]
	b = b[:13]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	s += a[8] * b[8]
	s += a[9] * b[9]
	s += a[10] * b[10]
	s += a[11] * b[11]
	s += a[12] * b[12]
	return s
}

func dot14(a, b []float64) float64 {
	a = a[:14]
	b = b[:14]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	s += a[8] * b[8]
	s += a[9] * b[9]
	s += a[10] * b[10]
	s += a[11] * b[11]
	s += a[12] * b[12]
	s += a[13] * b[13]
	return s
}

func dot15(a, b []float64) float64 {
	a = a[:15]
	b = b[:15]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	s += a[8] * b[8]
	s += a[9] * b[9]
	s += a[10] * b[10]
	s += a[11] * b[11]
	s += a[12] * b[12]
	s += a[13] * b[13]
	s += a[14] * b[14]
	return s
}

func dot16(a, b []float64) float64 {
	a = a[:16]
	b = b[:16]
	s := a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	s += a[8] * b[8]
	s += a[9] * b[9]
	s += a[10] * b[10]
	s += a[11] * b[11]
	s += a[12] * b[12]
	s += a[13] * b[13]
	s += a[14] * b[14]
	s += a[15] * b[15]
	return s
}
