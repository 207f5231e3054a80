// Package la provides the dense and sparse linear-algebra kernels that the
// spectral element method is built on: small-matrix multiply kernels in the
// shapes required by tensor-product operator evaluation (Sec. 6 of the
// paper), dense factorizations (LU, Cholesky, banded Cholesky), symmetric
// and generalized-symmetric eigensolvers (for the fast diagonalization
// method), complex LU (for the Orr–Sommerfeld reference eigensolver), and
// sparse matrices with a nested-dissection-ordered sparse Cholesky (for the
// XXT coarse-grid solver).
//
// All dense matrices are stored row-major in flat []float64 slices; the
// multiply kernels take explicit dimensions so they can be called on
// sub-blocks without allocation, matching the DGEMM calling style of the
// paper's computational kernel.
package la

import "math"

// MatMulKernel identifies one of the matrix-multiply variants benchmarked in
// Table 3 of the paper. The paper compares vendor DGEMMs (lkm, csm, ghm)
// against two hand-unrolled Fortran kernels (f2, f3); here the analogues are
// pure-Go kernels with different loop orders and unrolling strategies.
type MatMulKernel int

const (
	// KernelNaive is the textbook ijk triple loop (dot-product inner loop).
	KernelNaive MatMulKernel = iota
	// KernelIKJ is the cache-friendly ikj ordering (saxpy inner loop).
	KernelIKJ
	// KernelF2 unrolls the contraction (n2) dimension completely, with the
	// output column index controlling the outer loop, mirroring the paper's
	// hand-unrolled f2 kernel.
	KernelF2
	// KernelF3 unrolls the contraction dimension completely, with the output
	// row index controlling the outer loop, mirroring the f3 kernel.
	KernelF3
	// KernelBlocked is a register-blocked kernel (2x4 micro-tile), the best
	// the Go compiler's scalar code does.
	KernelBlocked
	// KernelAVX2 is the AVX2 assembly micro-kernel, standing in for the tuned
	// vendor library (csm/ghm) of the paper. It exists on amd64 CPUs with
	// AVX2 only and is listed in Kernels only there; it is Mul's kernel
	// where the CPU lacks AVX-512.
	KernelAVX2
	// KernelAVX512 is the AVX-512 assembly micro-kernel under Mul, tiled by
	// the output's row length. It is listed in Kernels only on CPUs with
	// AVX-512F and VL, where Mul runs it.
	KernelAVX512
)

var kernelNames = [...]string{"naive", "ikj", "f2", "f3", "blocked", "avx2", "avx512"}

func (k MatMulKernel) String() string {
	if k < 0 || int(k) >= len(kernelNames) {
		return "unknown"
	}
	return kernelNames[k]
}

// Kernels lists every MatMulKernel this machine runs, in Table 3 column order.
// Where an assembly kernel is listed, the last one is Mul's.
var Kernels = func() []MatMulKernel {
	ks := []MatMulKernel{KernelNaive, KernelIKJ, KernelF2, KernelF3, KernelBlocked}
	if useAVX2 {
		ks = append(ks, KernelAVX2)
	}
	if useAVX512 {
		ks = append(ks, KernelAVX512)
	}
	return ks
}()

// MatMul computes C = A*B with the given kernel, where A is n1 x n2, B is
// n2 x n3, and C is n1 x n3, all row-major. C must not alias A or B.
func MatMul(k MatMulKernel, c, a, b []float64, n1, n2, n3 int) {
	switch k {
	case KernelNaive:
		MatMulNaive(c, a, b, n1, n2, n3)
	case KernelIKJ:
		MatMulIKJ(c, a, b, n1, n2, n3)
	case KernelF2:
		MatMulF2(c, a, b, n1, n2, n3)
	case KernelF3:
		MatMulF3(c, a, b, n1, n2, n3)
	case KernelBlocked:
		MatMulBlocked(c, a, b, n1, n2, n3)
	case KernelAVX2, KernelAVX512: // listed only where the CPU has them
		if n1 < 1 || n2 < 1 || n3 < 1 {
			Mul(c, a, b, n1, n2, n3)
			return
		}
		asmMul(k == KernelAVX512, c, a, b, n1, n2, n3, 1)
	default:
		MatMulIKJ(c, a, b, n1, n2, n3)
	}
}

// Mul is the multiply used throughout the solvers: C = A*B, the one-layer
// case of MulLayers.
func Mul(c, a, b []float64, n1, n2, n3 int) { MulLayers(c, a, b, n1, n2, n3, 1) }

// MulLayers computes C_k = A*B_k for the nl layers k < nl: B holds nl n2 x n3
// matrices and C nl n1 x n3 ones, each one after the other, as the t layers
// of a tensor-product field lie (tensor's s-direction apply is one call). On
// amd64 every non-empty product runs an assembly micro-kernel, vectorised
// across the columns of C, multiply then add, no FMA: mulAVX512 where the CPU
// has AVX-512F and VL (4-row tiles of one zmm per row for up to 8 columns,
// a zmm and a masked zmm for up to 16, wider rows in 16-column chunks,
// opmasked tails; two layers per tile for rows of up to 12 columns), mulAVX2
// (2x8 tiles, one layer at a time) where it has AVX2 only. Elsewhere the Go
// kernel follows the calling shape (Sec. 6 / Table 3 of the paper) by one
// static rule, layer by layer: the register-blocked kernel wherever its 2x4
// tiles have work, the saxpy ordering otherwise. All of them accumulate every output entry in one
// sequential chain over the contraction index, so the result is bitwise that
// of MatMulNaive whatever the shape, the layer count or the machine, and
// putting the AVX-512 kernel under Mul moved no golden digest; the
// reassociating f2/f3 kernels are never eligible.
func MulLayers(c, a, b []float64, n1, n2, n3, nl int) {
	if useAVX2 && n1 >= 1 && n2 >= 1 && n3 >= 1 && nl >= 1 {
		asmMul(useAVX512, c, a, b, n1, n2, n3, nl)
		return
	}
	nc, nb := n1*n3, n2*n3
	for k := 0; k < nl; k++ {
		ck, bk := c[k*nc:(k+1)*nc], b[k*nb:(k+1)*nb]
		if n1 >= 2 && n3 >= 4 {
			MatMulBlocked(ck, a, bk, n1, n2, n3)
		} else {
			MatMulIKJ(ck, a, bk, n1, n2, n3)
		}
	}
}

// asmMul runs mulAVX512 (avx512) or mulAVX2, once per layer, on n1, n2, n3,
// nl >= 1, after the only bounds checks the operands get: against the
// slices' lengths, not their capacities, so a short operand inside a larger
// arena panics here instead of being overrun there.
func asmMul(avx512 bool, c, a, b []float64, n1, n2, n3, nl int) {
	nc, nb := n1*n3, n2*n3
	_, _, _ = c[nl*nc-1], a[n1*n2-1], b[nl*nb-1]
	if avx512 {
		mulAVX512(&c[0], &a[0], &b[0], n1, n2, n3, nl)
		return
	}
	for k := 0; k < nl; k++ {
		mulAVX2(&c[k*nc], &a[0], &b[k*nb], n1, n2, n3)
	}
}

// MatMulNaive computes C = A*B with the textbook ijk loop order.
func MatMulNaive(c, a, b []float64, n1, n2, n3 int) {
	for i := 0; i < n1; i++ {
		ar := a[i*n2 : i*n2+n2]
		cr := c[i*n3 : i*n3+n3]
		for j := 0; j < n3; j++ {
			var s float64
			for k := 0; k < n2; k++ {
				s += ar[k] * b[k*n3+j]
			}
			cr[j] = s
		}
	}
}

// MatMulIKJ computes C = A*B with the ikj loop order, streaming rows of B.
func MatMulIKJ(c, a, b []float64, n1, n2, n3 int) {
	for i := 0; i < n1; i++ {
		cr := c[i*n3 : i*n3+n3]
		for j := range cr {
			cr[j] = 0
		}
		ar := a[i*n2 : i*n2+n2]
		for k := 0; k < n2; k++ {
			aik := ar[k]
			if aik == 0 {
				continue
			}
			br := b[k*n3 : k*n3+n3]
			for j, bv := range br {
				cr[j] += aik * bv
			}
		}
	}
}

// MatMulF2 mirrors the paper's f2 kernel: the contraction (n2) loop is fully
// unrolled (in chunks of four with a scalar remainder) and the output column
// index controls the outer loop.
func MatMulF2(c, a, b []float64, n1, n2, n3 int) {
	k4 := n2 &^ 3
	for j := 0; j < n3; j++ {
		for i := 0; i < n1; i++ {
			ar := a[i*n2 : i*n2+n2]
			var s0, s1, s2, s3 float64
			for k := 0; k < k4; k += 4 {
				s0 += ar[k] * b[k*n3+j]
				s1 += ar[k+1] * b[(k+1)*n3+j]
				s2 += ar[k+2] * b[(k+2)*n3+j]
				s3 += ar[k+3] * b[(k+3)*n3+j]
			}
			s := (s0 + s1) + (s2 + s3)
			for k := k4; k < n2; k++ {
				s += ar[k] * b[k*n3+j]
			}
			c[i*n3+j] = s
		}
	}
}

// MatMulF3 mirrors the paper's f3 kernel: the contraction loop is fully
// unrolled and the output row index controls the outer loop.
func MatMulF3(c, a, b []float64, n1, n2, n3 int) {
	k4 := n2 &^ 3
	for i := 0; i < n1; i++ {
		ar := a[i*n2 : i*n2+n2]
		cr := c[i*n3 : i*n3+n3]
		for j := 0; j < n3; j++ {
			var s0, s1, s2, s3 float64
			for k := 0; k < k4; k += 4 {
				s0 += ar[k] * b[k*n3+j]
				s1 += ar[k+1] * b[(k+1)*n3+j]
				s2 += ar[k+2] * b[(k+2)*n3+j]
				s3 += ar[k+3] * b[(k+3)*n3+j]
			}
			s := (s0 + s1) + (s2 + s3)
			for k := k4; k < n2; k++ {
				s += ar[k] * b[k*n3+j]
			}
			cr[j] = s
		}
	}
}

// MatMulBlocked computes C = A*B with a 2x4 register-blocked micro-kernel,
// the stand-in for the tuned vendor DGEMM of the paper.
func MatMulBlocked(c, a, b []float64, n1, n2, n3 int) {
	i2 := n1 &^ 1
	j4 := n3 &^ 3
	for i := 0; i < i2; i += 2 {
		a0 := a[i*n2 : i*n2+n2]
		a1 := a[(i+1)*n2 : (i+1)*n2+n2]
		c0 := c[i*n3 : i*n3+n3]
		c1 := c[(i+1)*n3 : (i+1)*n3+n3]
		for j := 0; j < j4; j += 4 {
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			for k := 0; k < n2; k++ {
				br := b[k*n3+j : k*n3+j+4]
				v0, v1 := a0[k], a1[k]
				s00 += v0 * br[0]
				s01 += v0 * br[1]
				s02 += v0 * br[2]
				s03 += v0 * br[3]
				s10 += v1 * br[0]
				s11 += v1 * br[1]
				s12 += v1 * br[2]
				s13 += v1 * br[3]
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for j := j4; j < n3; j++ {
			var s0, s1 float64
			for k := 0; k < n2; k++ {
				bv := b[k*n3+j]
				s0 += a0[k] * bv
				s1 += a1[k] * bv
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for i := i2; i < n1; i++ {
		ar := a[i*n2 : i*n2+n2]
		cr := c[i*n3 : i*n3+n3]
		for j := 0; j < n3; j++ {
			var s float64
			for k := 0; k < n2; k++ {
				s += ar[k] * b[k*n3+j]
			}
			cr[j] = s
		}
	}
}

// abtTile is the largest Bᵀ (n2*n3 elements) MulABt packs: 16 x 16 covers
// every 1-D operator up to N = 15.
const abtTile = 256

// MulABt computes C = A*Bᵀ where A is n1 x n2, B is n3 x n2, C is n1 x n3.
// This is the natural kernel for applying a 1D operator along the second
// tensor dimension (u Bᵀ in eq. (3) of the paper). A B that fits abtTile is
// transposed once into a stack tile and handed to Mul: B is the small 1-D
// operator and A the long field, so the scalar pack is n2*n3 moves against
// n1*n2*n3 multiplies, where vectorising the dot products directly would need
// a gather per k or a reassociating horizontal sum. A larger B, or an empty
// one, takes the plain dot-product loop. Both are one sequential chain over k
// per output and so bitwise-identical.
func MulABt(c, a, b []float64, n1, n2, n3 int) {
	if nb := n2 * n3; nb >= 1 && nb <= abtTile {
		var bt [abtTile]float64
		_ = b[nb-1] // against the length: a short B panics before C is written
		for j := 0; j < n3; j++ {
			for k, v := range b[j*n2 : j*n2+n2] {
				bt[k*n3+j] = v
			}
		}
		Mul(c, a, bt[:nb], n1, n2, n3)
		return
	}
	MulABtSimple(c, a, b, n1, n2, n3)
}

// MulABtSimple is the plain dot-product MulABt, the reference the packed
// path is tested against.
func MulABtSimple(c, a, b []float64, n1, n2, n3 int) {
	for i := 0; i < n1; i++ {
		ar := a[i*n2 : i*n2+n2]
		cr := c[i*n3 : i*n3+n3]
		for j := 0; j < n3; j++ {
			br := b[j*n2 : j*n2+n2]
			var s float64
			for k, av := range ar {
				s += av * br[k]
			}
			cr[j] = s
		}
	}
}

// ShapesForOrder enumerates the matmul calling configurations an order-n
// discretization actually produces through tensor.Apply: the square
// derivative/filter applications on the GLL grid (np1 = n+1) and the
// staggered-grid interpolations to/from the Gauss pressure grid
// (nm1 = n-1). mulShapes are the s- and t-direction products; abtShapes the
// r-direction products U·Aᵀ in MulABt's (n1, n2, n3) convention, which
// tensor runs as Mul(n1, n2, n3) on the operator transposed at set-up.
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
			// Apply on a one-layer k x k field: ApplyR -> U·Aᵀ (k, k, m);
			// ApplyS on the m x k intermediate -> Mul(m, k, m); no ApplyT.
			addABt([3]int{k, k, m})
			addMul([3]int{m, k, m})
			continue
		}
		// Apply on a k^3 field: ApplyR -> U·Aᵀ (k*k, k, m);
		// ApplyS -> MulLayers(m, k, m) over the k layers of the m x k x k
		// field; ApplyT -> Mul(m, k, m*m).
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

// MatVec computes y = A*x where A is m x n row-major.
func MatVec(y, a, x []float64, m, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*n : i*n+n]
		var s float64
		for j, v := range ar {
			s += v * x[j]
		}
		y[i] = s
	}
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
