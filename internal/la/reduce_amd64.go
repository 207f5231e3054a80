//go:build amd64 && !purego

package la

// The reduction kernels of reduce_amd64.s, an AVX-512 form (four zmm of
// lanes) and an AVX2 form (eight ymm) of each. Each reads exactly n >= 1
// elements behind each pointer and checks nothing: the wrappers in
// reduce.go bounds-check first.

//go:noescape
func dotAVX512(x, y *float64, n int) float64

//go:noescape
func dotWAVX512(x, y, w *float64, n int) float64

//go:noescape
func sumAVX512(x *float64, n int) float64

//go:noescape
func dotAVX2(x, y *float64, n int) float64

//go:noescape
func dotWAVX2(x, y, w *float64, n int) float64

//go:noescape
func sumAVX2(x *float64, n int) float64
