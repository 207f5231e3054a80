//go:build !amd64 || purego

package la

// Without the assembly (useAVX2 and useAVX512 are the constant false) the elementwise
// wrappers compile down to their Go loops; these are never called.

func prodAVX2(dst, a, b *float64, n int)              { panic("la: prodAVX2 without AVX2") }
func addProdAVX2(dst, a, b *float64, n int)           { panic("la: addProdAVX2 without AVX2") }
func quotAVX2(dst, a, b *float64, n int)              { panic("la: quotAVX2 without AVX2") }
func axpyAVX2(w, x, y *float64, alpha float64, n int) { panic("la: axpyAVX2 without AVX2") }
func scaleAVX2(x *float64, alpha float64, n int)      { panic("la: scaleAVX2 without AVX2") }
func unscaleAVX2(x *float64, alpha float64, n int)    { panic("la: unscaleAVX2 without AVX2") }

func prodAVX512(dst, a, b *float64, n int)              { panic("la: prodAVX512 without AVX-512") }
func addProdAVX512(dst, a, b *float64, n int)           { panic("la: addProdAVX512 without AVX-512") }
func axpyAVX512(w, x, y *float64, alpha float64, n int) { panic("la: axpyAVX512 without AVX-512") }
func scaleAVX512(x *float64, alpha float64, n int)      { panic("la: scaleAVX512 without AVX-512") }
