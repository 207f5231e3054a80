//go:build amd64 && !purego

package la

// useAVX2 reports whether Mul and MulABt run an assembly kernel: the CPU has
// AVX2 and the OS saves the YMM registers. useAVX512 reports whether that
// kernel is mulAVX512: the CPU also has AVX-512F and VL and the OS saves the
// opmask and ZMM registers. Read once; nothing else selects.
var (
	useAVX2   = cpuHasAVX2()
	useAVX512 = useAVX2 && cpuHasAVX512()
)

func cpuHasAVX2() bool

func cpuHasAVX512() bool

// mulAVX2 computes C = A*B (A n1 x n2, B n2 x n3, row-major) and mulAVX512
// C_k = A*B_k for nl such layers of B and C, for n1, n2, n3, nl >= 1. Each
// reads and writes exactly nl*n1*n3, n1*n2 and nl*n2*n3 elements (nl = 1 for
// mulAVX2) behind the three pointers and checks nothing: callers slice to
// those lengths first. noescape keeps MulABt's packed tile on the stack.
//
//go:noescape
func mulAVX2(c, a, b *float64, n1, n2, n3 int)

//go:noescape
func mulAVX512(c, a, b *float64, n1, n2, n3, nl int)
