package la

import (
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guardedPages maps read-write pages for at least n float64s followed by a
// PROT_NONE page: an operand sliced to end at the last read-write page's end
// faults on any access past it.
func guardedPages(t *testing.T, n int) []float64 {
	t.Helper()
	page := os.Getpagesize()
	rw := (8*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, rw+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[rw:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), rw/8)
}

// Every operand ends on a page boundary with an unreadable, unwritable page
// behind it, so a kernel that reads A past n1*n2 or B past nl*n2*n3 (a column
// tail loaded whole, a broadcast one k too far, a layer too many), or writes
// C past nl*n1*n3, faults instead of passing. Shapes cover every column class
// and row remainder of the kernels, with one, two and three layers (a layer
// pair, and a pair then a last odd layer), the last layer of B and C ending on
// the page; what lies before C must come back untouched too.
func TestMulOperandsEndOnGuardPage(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const most = 3 * 7 * 36 // the largest operand: C or B with three layers
	pa, pb, pc := guardedPages(t, most), guardedPages(t, most), guardedPages(t, most)
	tail := func(p []float64, n int) []float64 { return p[len(p)-n:] }
	rng := rand.New(rand.NewSource(61))
	const sentinel = -7.0
	for nl := 1; nl <= 3; nl++ {
		calls := mulCalls[1:]
		if nl == 1 {
			calls = mulCalls
		}
		for n1 := 1; n1 <= 7; n1++ {
			for _, n2 := range []int{1, 3, 6} {
				for _, n3 := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 24, 33, 36} {
					s := [3]int{n1, n2, n3}
					a, b, c := tail(pa, n1*n2), tail(pb, nl*n2*n3), tail(pc, nl*n1*n3)
					for i := range a {
						a[i] = rng.NormFloat64()
					}
					for i := range b {
						b[i] = rng.NormFloat64()
					}
					want := make([]float64, nl*n1*n3)
					for k := 0; k < nl; k++ {
						MatMulNaive(want[k*n1*n3:], a, b[k*n2*n3:], n1, n2, n3)
					}
					for _, k := range calls {
						for i := range pc {
							pc[i] = sentinel
						}
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("%s %v, %d layers: %v", k.name, s, nl, r)
								}
							}()
							k.mul(c, a, b, n1, n2, n3, nl)
						}()
						requireBitwise(t, k.name, s, c, want)
						for i, v := range pc[:len(pc)-len(c)] {
							if math.Float64bits(v) != math.Float64bits(sentinel) {
								t.Fatalf("%s %v, %d layers: wrote %v at %d before C", k.name, s, nl, v, i-(len(pc)-len(c)))
							}
						}
					}
				}
			}
		}
	}
}

// Every elementwise kernel, through its wrapper and through each assembly
// kernel directly, at every length 1–67 it takes, with dst and both operands
// ending on
// a page boundary with an unreadable, unwritable page behind it: a tail pass
// that loads or stores a whole register past the last entry faults instead
// of passing. What lies before dst must come back untouched.
func TestElementwiseOperandsEndOnGuardPage(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const most = 67
	pa, pb, pd := guardedPages(t, most), guardedPages(t, most), guardedPages(t, most)
	tail := func(p []float64, n int) []float64 { return p[len(p)-n:] }
	rng := rand.New(rand.NewSource(62))
	for _, p := range ewPaths {
		for _, k := range ewKernels {
			run := p.fn(k)
			if run == nil {
				continue // no such form of this kernel
			}
			for n := max(1, p.min); n <= most; n++ {
				a, b, d := tail(pa, n), tail(pb, n), tail(pd, n)
				for i := range pd {
					pd[i] = ewGuard
				}
				ewFill(rng, a)
				ewFill(rng, b)
				ewFill(rng, d)
				ra, rb, rd := slices.Clone(a), slices.Clone(b), slices.Clone(d)
				k.ref(rd, ra, rb, 0.75)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s (%s) n=%d: %v", k.name, p.name, n, r)
						}
					}()
					run(d, a, b, 0.75)
				}()
				for i := range d {
					if !sameBits(d[i], rd[i]) {
						t.Fatalf("%s (%s) n=%d: entry %d = %x, Go loop %x", k.name, p.name, n, i, math.Float64bits(d[i]), math.Float64bits(rd[i]))
					}
				}
				for i, v := range pd[:len(pd)-n] {
					if v != ewGuard {
						t.Fatalf("%s (%s) n=%d: wrote %v at %d before dst", k.name, p.name, n, v, i-(len(pd)-n))
					}
				}
			}
		}
	}
}

// Every reduction, through its wrapper and each assembly kernel directly, at
// every length 1–100 (each tail length 0–31 after zero to three blocks),
// with all three operands ending on a page boundary with an unreadable page
// behind it: a tail that loads a whole register past the last entry faults
// instead of passing.
func TestReductionOperandsEndOnGuardPage(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const most = 100
	px, py, pw := guardedPages(t, most), guardedPages(t, most), guardedPages(t, most)
	tail := func(p []float64, n int) []float64 { return p[len(p)-n:] }
	rng := rand.New(rand.NewSource(63))
	for _, p := range redPaths {
		for _, k := range redKernels {
			for n := max(1, p.min); n <= most; n++ {
				x, y, w := tail(px, n), tail(py, n), tail(pw, n)
				redFill(rng, x, 50)
				redFill(rng, y, 50)
				redFill(rng, w, 50)
				want := refReduce(n, func(i int) float64 { return k.term(x, y, w, i) })
				var got float64
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s (%s) n=%d: %v", k.name, p.name, n, r)
						}
					}()
					got = p.fn(k)(x, y, w)
				}()
				if !sameBits(got, want) {
					t.Fatalf("%s (%s) n=%d: %v, spec %v", k.name, p.name, n, got, want)
				}
			}
		}
	}
}
