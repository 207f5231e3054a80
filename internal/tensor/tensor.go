// Package tensor implements the tensor-product operator application at the
// heart of spectral element efficiency (Sec. 3 of the paper): matrix-vector
// products with Kronecker-product operators are recast as small dense
// matrix-matrix products, giving O(K N^{d+1}) work and O(K N^d) storage for
// K elements of order N in d dimensions.
//
// Layout convention: element-local fields are stored with the first
// reference coordinate (r) fastest, i.e. u[(t*ns+s)*nr + r] in 3D, which
// makes "apply along r" a (ns·nt) x nr by nr x mr matrix product U·Aᵀ. The
// r-direction operator is therefore passed already transposed (at, nr x mr,
// row-major): every caller builds its 1-D operators once and holds both
// orientations, and the product is la.Mul's kernel with nothing packed per
// call. The s and t directions take their operators as they are.
package tensor

import "repro/internal/la"

// Transpose returns Aᵀ (n x m, row-major) of the m x n matrix a: the
// orientation the r-direction applies take, built once at set-up.
func Transpose(a []float64, m, n int) []float64 {
	t := make([]float64, n*m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t[j*m+i] = a[i*n+j]
		}
	}
	return t
}

// ApplyR2D computes out = (I ⊗ A) u from at = Aᵀ (nr x mr): the operator A
// (mr x nr) acts along the r (fastest) dimension of the nr x ns field u. out
// has shape mr x ns (r fastest) and must not alias u.
func ApplyR2D(out, at, u []float64, mr, nr, ns int) {
	// out[s][r'] = Σ_r u[s][r] A[r'][r]  =>  Out = U Aᵀ with U (ns x nr).
	la.Mul(out, u, at, ns, nr, mr)
}

// ApplyS2D computes out = (B ⊗ I) u: B (ms x ns) acts along the s (slow)
// dimension of the nr x ns field u. out has shape nr x ms and must not
// alias u.
func ApplyS2D(out, b, u []float64, ms, ns, nr int) {
	// Out = B U with U (ns x nr) row-major.
	la.Mul(out, b, u, ms, ns, nr)
}

// Apply2D computes out = (B ⊗ A) u for at = Aᵀ (A mr x nr), B (ms x ns) and
// the nr x ns field u, using work as scratch (len >= ns*mr). out must not
// alias u or work.
func Apply2D(out, at, b, u, work []float64, mr, nr, ms, ns int) {
	ApplyR2D(work, at, u, mr, nr, ns)
	ApplyS2D(out, b, work, ms, ns, mr)
}

// ApplyR3D applies A (mr x nr), passed as at = Aᵀ, along r of the
// nr x ns x nt field u; out has shape mr x ns x nt.
func ApplyR3D(out, at, u []float64, mr, nr, ns, nt int) {
	la.Mul(out, u, at, ns*nt, nr, mr)
}

// ApplyS3D applies B (ms x ns) along s of the nr x ns x nt field u; out has
// shape nr x ms x nt.
func ApplyS3D(out, b, u []float64, ms, ns, nr, nt int) {
	for k := 0; k < nt; k++ {
		la.Mul(out[k*ms*nr:(k+1)*ms*nr], b, u[k*ns*nr:(k+1)*ns*nr], ms, ns, nr)
	}
}

// ApplyT3D applies C (mt x nt) along t of the nr x ns x nt field u; out has
// shape nr x ns x mt.
func ApplyT3D(out, c, u []float64, mt, nt, nr, ns int) {
	la.Mul(out, c, u, mt, nt, nr*ns)
}

// Apply3D computes out = (C ⊗ B ⊗ A) u from at = Aᵀ, B and C. work must have
// length at least Work3DLen(mr, nr, ms, ns, mt, nt); out must not alias u or
// work.
func Apply3D(out, at, b, c, u, work []float64, mr, nr, ms, ns, mt, nt int) {
	w1 := work[:mr*ns*nt]
	w2 := work[mr*ns*nt : mr*ns*nt+mr*ms*nt]
	ApplyR3D(w1, at, u, mr, nr, ns, nt)
	ApplyS3D(w2, b, w1, ms, ns, mr, nt)
	ApplyT3D(out, c, w2, mt, nt, mr, ms)
}

// ApplyDim applies the square operator A (n x n; at = Aᵀ) along reference
// dimension dim (0 = r, 1 = s, 2 = t) of a field with extent n in each of
// dims (2 or 3) dimensions. out must not alias u.
func ApplyDim(out, a, at, u []float64, n, dims, dim int) {
	if dims == 2 {
		if dim == 0 {
			ApplyR2D(out, at, u, n, n, n)
		} else {
			ApplyS2D(out, a, u, n, n, n)
		}
		return
	}
	switch dim {
	case 0:
		ApplyR3D(out, at, u, n, n, n, n)
	case 1:
		ApplyS3D(out, a, u, n, n, n, n)
	default:
		ApplyT3D(out, a, u, n, n, n, n)
	}
}

// Work3DLen returns the scratch length Apply3D may need for the given shape.
func Work3DLen(mr, nr, ms, ns, mt, nt int) int {
	return mr*ns*nt + mr*ms*nt
}

// FlopsApplyDim returns the floating point operations of one ApplyDim (and,
// per field, of ApplyDimStack).
func FlopsApplyDim(n, dims int) int64 {
	f := 2 * int64(n) * int64(n) * int64(n)
	if dims == 3 {
		f *= int64(n)
	}
	return f
}

// FlopsApply2D returns the floating point operations of Apply2D.
func FlopsApply2D(mr, nr, ms, ns int) int64 {
	return 2 * (int64(mr)*int64(nr)*int64(ns) + int64(ms)*int64(ns)*int64(mr))
}

// FlopsApply3D returns the floating point operations of Apply3D.
func FlopsApply3D(mr, nr, ms, ns, mt, nt int) int64 {
	return 2 * (int64(mr)*int64(nr)*int64(ns)*int64(nt) +
		int64(ms)*int64(ns)*int64(mr)*int64(nt) +
		int64(mt)*int64(nt)*int64(mr)*int64(ms))
}
