// Package tensor implements the tensor-product operator application at the
// heart of spectral element efficiency (Sec. 3 of the paper): matrix-vector
// products with Kronecker-product operators are recast as small dense
// matrix-matrix products, giving O(K N^{d+1}) work and O(K N^d) storage for
// K elements of order N in d dimensions.
//
// Layout convention: element-local fields are stored with the first
// reference coordinate (r) fastest, i.e. u[(t*ns+s)*nr + r], which makes
// "apply along r" a (ns·nt) x nr by nr x mr matrix product U·Aᵀ. The
// r-direction operator is therefore passed already transposed (at, nr x mr,
// row-major): every caller builds its 1-D operators once and holds both
// orientations, and the product is la.Mul's kernel with nothing packed per
// call. The s and t directions take their operators as they are.
//
// A 2-D field is the one-layer case nt = 1 with no t apply, so one set of
// direction applies (ApplyR, ApplyS, ApplyT) and one ApplyRun serve both
// dimensions. The slowest direction of a field (s in 2-D, t in 3-D) is a
// single product over all faster points, ApplyT's; the s apply of a 3-D
// field is one la.MulLayers call over its t layers.
//
// Every apply takes a run of ne consecutive fields (elements), stored one
// after the other: the run is more rows of the r product (ne·ns·nt) and more
// layers of the s (ne·nt) and t (ne) products, so a whole run costs one
// product per direction, and ne = 1 is the one-element call (Apply, Apply2D,
// Apply3D). la.MulLayers accumulates every entry in one sequential chain
// whatever the shape or the layer count, so a run's result is bitwise the
// concatenation of its elements' results.
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

// ApplyR applies A (mr x nr), passed as at = Aᵀ, along r of ne consecutive
// nr x ns x nt fields u (nt = 1: 2-D fields): one product whose rows are every
// element's (s, t) lines. out holds ne mr x ns x nt fields and must not
// alias u.
func ApplyR(out, at, u []float64, mr, nr, ns, nt, ne int) {
	// out[t][s][r'] = Σ_r u[t][s][r] A[r'][r]  =>  Out = U Aᵀ with U (ne·ns·nt x nr).
	la.Mul(out, u, at, ne*ns*nt, nr, mr)
}

// ApplyS applies B (ms x ns) along s of ne consecutive nr x ns x nt fields u:
// the product Out = B U of every t layer of every element, in one
// la.MulLayers call over ne·nt layers. out holds ne nr x ms x nt fields and
// must not alias u.
func ApplyS(out, b, u []float64, ms, ns, nr, nt, ne int) {
	la.MulLayers(out, b, u, ms, ns, nr, ne*nt)
}

// ApplyT applies C (mt x nt) along t of ne consecutive nr x ns x nt fields u,
// one layer per element; out holds ne nr x ns x mt fields and must not alias
// u.
func ApplyT(out, c, u []float64, mt, nt, nr, ns, ne int) {
	la.MulLayers(out, c, u, mt, nt, nr*ns, ne)
}

// ApplyRun computes out = (C ⊗ B ⊗ A) u on each of ne consecutive
// nr x ns x nt fields u, from at = Aᵀ (A mr x nr), B (ms x ns) and C
// (mt x nt), one product per direction for the whole run. A nil c means 2-D
// fields: out = (B ⊗ A) u on nr x ns fields, and mt, nt are not read. work
// must have length at least ne·Work3DLen(mr, nr, ms, ns, mt, nt) (with
// mt = nt = 1 in 2-D); out must not alias u or work.
func ApplyRun(out, at, b, c, u, work []float64, mr, nr, ms, ns, mt, nt, ne int) {
	if c == nil { // one layer: s is the slowest direction
		ApplyR(work, at, u, mr, nr, ns, 1, ne)
		ApplyT(out, b, work, ms, ns, mr, 1, ne)
		return
	}
	n1, n2 := ne*mr*ns*nt, ne*mr*ms*nt
	w1, w2 := work[:n1], work[n1:n1+n2]
	ApplyR(w1, at, u, mr, nr, ns, nt, ne)
	ApplyS(w2, b, w1, ms, ns, mr, nt, ne)
	ApplyT(out, c, w2, mt, nt, mr, ms, ne)
}

// Apply is ApplyRun on one field.
func Apply(out, at, b, c, u, work []float64, mr, nr, ms, ns, mt, nt int) {
	ApplyRun(out, at, b, c, u, work, mr, nr, ms, ns, mt, nt, 1)
}

// Apply2D is Apply on a 2-D field.
func Apply2D(out, at, b, u, work []float64, mr, nr, ms, ns int) {
	Apply(out, at, b, nil, u, work, mr, nr, ms, ns, 1, 1)
}

// Apply3D is Apply on a 3-D field.
func Apply3D(out, at, b, c, u, work []float64, mr, nr, ms, ns, mt, nt int) {
	Apply(out, at, b, c, u, work, mr, nr, ms, ns, mt, nt)
}

// ApplyDim applies the square operator A (n x n; at = Aᵀ) along reference
// dimension dim (0 = r, 1 = s, 2 = t) of ne consecutive fields with extent n
// in each of dims (2 or 3) dimensions. out must not alias u.
func ApplyDim(out, a, at, u []float64, n, dims, dim, ne int) {
	nt := 1
	if dims == 3 {
		nt = n
	}
	switch dim {
	case 0:
		ApplyR(out, at, u, n, n, n, nt, ne)
	case dims - 1: // the slowest direction: s in 2-D
		ApplyT(out, a, u, n, n, n, nt, ne)
	default:
		ApplyS(out, a, u, n, n, n, nt, ne)
	}
}

// Work3DLen returns the scratch length Apply needs for the given shape, and
// ApplyRun per field of its run.
func Work3DLen(mr, nr, ms, ns, mt, nt int) int {
	return mr*ns*nt + mr*ms*nt
}

// FlopsApplyDim returns the floating point operations of one ApplyDim.
func FlopsApplyDim(n, dims int) int64 {
	f := 2 * int64(n) * int64(n) * int64(n)
	if dims == 3 {
		f *= int64(n)
	}
	return f
}

// FlopsApply returns the floating point operations of Apply on a dims-D field
// (2: c = nil, and mt, nt are not read).
func FlopsApply(dims, mr, nr, ms, ns, mt, nt int) int64 {
	if dims == 2 {
		mt, nt = 0, 1 // one layer, no t product
	}
	return 2 * (int64(mr)*int64(nr)*int64(ns)*int64(nt) +
		int64(ms)*int64(ns)*int64(mr)*int64(nt) +
		int64(mt)*int64(nt)*int64(mr)*int64(ms))
}

// FlopsApply2D returns the floating point operations of Apply2D.
func FlopsApply2D(mr, nr, ms, ns int) int64 { return FlopsApply(2, mr, nr, ms, ns, 1, 1) }

// FlopsApply3D returns the floating point operations of Apply3D.
func FlopsApply3D(mr, nr, ms, ns, mt, nt int) int64 { return FlopsApply(3, mr, nr, ms, ns, mt, nt) }
