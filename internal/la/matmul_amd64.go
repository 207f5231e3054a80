//go:build amd64 && !purego

package la

// useAVX2 reports whether Mul and MulABt run the assembly kernel: the CPU has
// AVX2 and the OS saves the YMM registers. Read once; nothing else selects.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// mulAVX2 computes C = A*B (A n1 x n2, B n2 x n3, row-major) for n1, n2,
// n3 >= 1. It reads and writes exactly n1*n3, n1*n2 and n2*n3 elements behind
// the three pointers and checks nothing: callers slice to those lengths first.
// noescape keeps MulABt's packed tile on the stack.
//
//go:noescape
func mulAVX2(c, a, b *float64, n1, n2, n3 int)
