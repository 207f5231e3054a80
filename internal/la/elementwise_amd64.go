//go:build amd64 && !purego

package la

// The elementwise kernels of elementwise_amd64.s. Each reads and writes
// exactly n >= 1 elements behind its pointers and checks nothing: the
// wrappers in elementwise.go bounds-check first.

//go:noescape
func prodAVX2(dst, a, b *float64, n int)

//go:noescape
func addProdAVX2(dst, a, b *float64, n int)

//go:noescape
func quotAVX2(dst, a, b *float64, n int)

//go:noescape
func axpyAVX2(w, x, y *float64, alpha float64, n int)

//go:noescape
func scaleAVX2(x *float64, alpha float64, n int)

//go:noescape
func unscaleAVX2(x *float64, alpha float64, n int)
