package la

import (
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedPage maps one read-write page followed by a PROT_NONE page: an
// operand sliced to end at the page's end faults on any access past it.
func guardedPage(t *testing.T) []float64 {
	t.Helper()
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), page/8)
}

// Every operand ends on a page boundary with an unreadable, unwritable page
// behind it, so a kernel that reads A past n1*n2 or B past n2*n3 (a column
// tail loaded whole, a broadcast one k too far), or writes C past n1*n3,
// faults instead of passing. Shapes cover every column class and row
// remainder of the kernels; what lies before C must come back untouched too.
func TestMulOperandsEndOnGuardPage(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	pa, pb, pc := guardedPage(t), guardedPage(t), guardedPage(t)
	tail := func(p []float64, n int) []float64 { return p[len(p)-n:] }
	calls := append([]namedMul{{"Mul", Mul}}, asmKernels...)
	rng := rand.New(rand.NewSource(61))
	const sentinel = -7.0
	for n1 := 1; n1 <= 7; n1++ {
		for _, n2 := range []int{1, 3, 6} {
			for _, n3 := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 24, 33, 36} {
				s := [3]int{n1, n2, n3}
				a, b, c := tail(pa, n1*n2), tail(pb, n2*n3), tail(pc, n1*n3)
				for i := range a {
					a[i] = rng.NormFloat64()
				}
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				want := make([]float64, n1*n3)
				MatMulNaive(want, a, b, n1, n2, n3)
				for _, k := range calls {
					for i := range pc {
						pc[i] = sentinel
					}
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s %v: %v", k.name, s, r)
							}
						}()
						k.mul(c, a, b, n1, n2, n3)
					}()
					requireBitwise(t, k.name, s, c, want)
					for i, v := range pc[:len(pc)-len(c)] {
						if math.Float64bits(v) != math.Float64bits(sentinel) {
							t.Fatalf("%s %v: wrote %v at %d before C", k.name, s, v, i-(len(pc)-len(c)))
						}
					}
				}
			}
		}
	}
}
