//go:build amd64 && !purego

package la

// The elementwise kernels of elementwise_amd64.s, an AVX2 form of each and an
// AVX-512 form of the four that multiply. Each reads and writes exactly n
// elements behind its pointers, n >= 1 (AVX2) or n >= zmmMin (AVX-512), and
// checks nothing: the wrappers in elementwise.go bounds-check first.

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

//go:noescape
func prodAVX512(dst, a, b *float64, n int)

//go:noescape
func addProdAVX512(dst, a, b *float64, n int)

//go:noescape
func axpyAVX512(w, x, y *float64, alpha float64, n int)

//go:noescape
func scaleAVX512(x *float64, alpha float64, n int)
