//go:build !amd64 || purego

package la

// useAVX2 and useAVX512 are false where the assembly kernels are not built
// (other architectures, or -tags purego to run the Go kernels on amd64): Mul
// and MulABt compile down to the Go shape rule.
const (
	useAVX2   = false
	useAVX512 = false
)

func mulAVX2(c, a, b *float64, n1, n2, n3 int)       { panic("la: mulAVX2 without AVX2") }
func mulAVX512(c, a, b *float64, n1, n2, n3, nl int) { panic("la: mulAVX512 without AVX-512") }
