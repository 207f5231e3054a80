//go:build !amd64 || purego

package la

// Without the assembly the reductions run their Go loops; these are never
// called.

func dotAVX512(x, y *float64, n int) float64     { panic("la: dotAVX512 without AVX-512") }
func dotWAVX512(x, y, w *float64, n int) float64 { panic("la: dotWAVX512 without AVX-512") }
func sumAVX512(x *float64, n int) float64        { panic("la: sumAVX512 without AVX-512") }
func dotAVX2(x, y *float64, n int) float64       { panic("la: dotAVX2 without AVX2") }
func dotWAVX2(x, y, w *float64, n int) float64   { panic("la: dotWAVX2 without AVX2") }
func sumAVX2(x *float64, n int) float64          { panic("la: sumAVX2 without AVX2") }
