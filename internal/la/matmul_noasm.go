//go:build !amd64 || purego

package la

// useAVX2 is false where the assembly kernel is not built (other
// architectures, or -tags purego to run the Go kernels on amd64): Mul and
// MulABt compile down to the Go shape rule.
const useAVX2 = false

func mulAVX2(c, a, b *float64, n1, n2, n3 int) { panic("la: mulAVX2 without AVX2") }
