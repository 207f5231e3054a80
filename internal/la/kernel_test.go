package la

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// These tests hold Mul, MulLayers and MulABt to MatMulNaive and MulABtSimple
// bit for bit on whichever path the build and the CPU select: an assembly
// micro-kernel, or (other architectures, -tags purego, a CPU without AVX2)
// the Go shape rule. They also call every assembly kernel the CPU has directly, so on an
// AVX-512 machine the AVX2 kernel, which Mul no longer runs there, is still
// held to MatMulNaive. Claims that hold for the assembly only are skipped,
// saying so, when it is absent.

// namedMul is one multiply under test, C_k = A*B_k for nl layers (MulABt and
// the one-layer forms ignore nl).
type namedMul struct {
	name string
	mul  func(c, a, b []float64, n1, n2, n3, nl int)
}

// asmKernels are the assembly kernels this build and CPU run, each behind the
// bounds checks MulLayers gives it; none under -tags purego or off amd64.
var asmKernels = func() (ks []namedMul) {
	if useAVX2 {
		ks = append(ks, namedMul{"avx2", func(c, a, b []float64, n1, n2, n3, nl int) { asmMul(false, c, a, b, n1, n2, n3, nl) }})
	}
	if useAVX512 {
		ks = append(ks, namedMul{"avx512", func(c, a, b []float64, n1, n2, n3, nl int) { asmMul(true, c, a, b, n1, n2, n3, nl) }})
	}
	return ks
}()

// mulCalls are Mul, MulLayers and every assembly kernel.
var mulCalls = append([]namedMul{
	{"Mul", func(c, a, b []float64, n1, n2, n3, _ int) { Mul(c, a, b, n1, n2, n3) }},
	{"MulLayers", MulLayers},
}, asmKernels...)

// inputClasses fill operands that exercise different rounding regimes of the
// multiply-then-add chain.
var inputClasses = []struct {
	name string
	fill func(rng *rand.Rand, v []float64)
}{
	{"normal", func(rng *rand.Rand, v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}},
	// Products and partial sums are subnormal or underflow to zero (each one
	// a microcode assist: the class is thinned under -short).
	{"denormal", func(rng *rand.Rand, v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64() * math.Ldexp(1, -520-rng.Intn(20))
		}
	}},
	// Signed zeros among a few ordinary values: 0 + (-0), x*(-0), exact cancellation.
	{"zeros", func(rng *rand.Rand, v []float64) {
		vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5}
		for i := range v {
			v[i] = vals[rng.Intn(len(vals))]
		}
	}},
	// Sixteen decades of magnitude with random signs: a fused or reassociated
	// sum differs in nearly every entry.
	{"mixed", func(rng *rand.Rand, v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
		}
	}},
}

// forEveryShape visits every n1 <= 20, n2 <= 18, n3 <= 40 (every third n1
// when thinned), then Table 3's ten shapes and the calling shapes of orders 5,
// 7, 9 and 15 in 2-D and 3-D.
func forEveryShape(thinned bool, fn func(n1, n2, n3 int)) {
	step := 1
	if thinned {
		step = 3
	}
	for n1 := 1; n1 <= 20; n1 += step {
		for n2 := 1; n2 <= 18; n2++ {
			for n3 := 1; n3 <= 40; n3++ {
				fn(n1, n2, n3)
			}
		}
	}
	table3 := [][3]int{{14, 2, 14}, {2, 14, 2}, {16, 14, 16}, {16, 14, 196}, {256, 14, 16},
		{14, 16, 14}, {16, 16, 16}, {16, 16, 256}, {196, 16, 14}, {256, 16, 16}}
	for _, n := range []int{5, 7, 9, 15} {
		for dim := 2; dim <= 3; dim++ {
			mul, abt := ShapesForOrder(n, dim)
			table3 = append(append(table3, mul...), abt...)
		}
	}
	for _, s := range table3 {
		fn(s[0], s[1], s[2])
	}
}

func TestMulBitwiseEveryShape(t *testing.T) {
	for ci, class := range inputClasses {
		class := class
		t.Run(class.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(21 + ci)))
			forEveryShape(testing.Short() && class.name == "denormal", func(n1, n2, n3 int) {
				a, b := make([]float64, n1*n2), make([]float64, n2*n3)
				class.fill(rng, a)
				class.fill(rng, b)
				want, got := make([]float64, n1*n3), make([]float64, n1*n3)
				MatMulNaive(want, a, b, n1, n2, n3)
				poison(got)
				Mul(got, a, b, n1, n2, n3)
				requireBitwise(t, "Mul", [3]int{n1, n2, n3}, got, want)
				for _, k := range asmKernels {
					poison(got)
					k.mul(got, a, b, n1, n2, n3, 1)
					requireBitwise(t, k.name, [3]int{n1, n2, n3}, got, want)
				}
				// The same b read as an n3 x n2 matrix is MulABt's operand.
				MulABtSimple(want, a, b, n1, n2, n3)
				poison(got)
				MulABt(got, a, b, n1, n2, n3)
				requireBitwise(t, "MulABt", [3]int{n1, n2, n3}, got, want)
			})
		})
	}
}

// sShapes returns the s-direction products of ShapesForOrder for orders 2-15
// in 2-D and 3-D: the (m, k, m) shapes, each C_k = B*U_k of one t layer.
func sShapes() (shapes [][3]int) {
	for n := 2; n <= 15; n++ {
		for dim := 2; dim <= 3; dim++ {
			mul, _ := ShapesForOrder(n, dim)
			for _, s := range mul {
				if s[0] == s[2] {
					shapes = appendShape(shapes, s)
				}
			}
		}
	}
	return shapes
}

// MulLayers, and every assembly kernel called with a layer count, is
// MatMulNaive layer by layer, bit for bit: on every s-direction shape of
// orders 2-15 with 1 to N+1 layers, where the AVX-512 kernel pairs layers
// (n3 <= 12; for 9-12 columns both layers' last columns share a register), a
// last odd layer goes alone, and a wider row goes one layer at a time.
func TestMulLayersIsMulPerLayer(t *testing.T) {
	for ci, class := range inputClasses {
		rng := rand.New(rand.NewSource(int64(71 + ci)))
		t.Run(class.name, func(t *testing.T) {
			for _, s := range sShapes() {
				n1, n2, n3 := s[0], s[1], s[2]
				for nl := 1; nl <= max(n1, n2); nl++ { // N+1 at order N
					if testing.Short() && class.name == "denormal" && nl%3 != 1 {
						continue
					}
					a, b := make([]float64, n1*n2), make([]float64, nl*n2*n3)
					class.fill(rng, a)
					class.fill(rng, b)
					want, got := make([]float64, nl*n1*n3), make([]float64, nl*n1*n3)
					for k := 0; k < nl; k++ {
						MatMulNaive(want[k*n1*n3:], a, b[k*n2*n3:], n1, n2, n3)
					}
					for _, f := range mulCalls[1:] {
						poison(got)
						f.mul(got, a, b, n1, n2, n3, nl)
						requireBitwise(t, fmt.Sprintf("%s, %d layers", f.name, nl), s, got, want)
					}
				}
			}
		})
	}
}

// The masked column tail and the last odd row write nothing outside C, and
// no operand needs any alignment: C, A and B start 1-3 elements into their
// allocations and three guard values sit on either side of C.
func TestMulGuardsAndUnalignedOperands(t *testing.T) {
	const guard = 3
	rng := rand.New(rand.NewSource(31))
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, s := range [][3]int{{1, 1, 4}, {2, 3, 5}, {3, 6, 6}, {5, 5, 7}, {4, 9, 9}, {7, 8, 10},
		{6, 6, 36}, {9, 7, 11}, {10, 10, 13}, {2, 2, 15}, {16, 16, 17}, {3, 4, 1}, {3, 4, 2}, {3, 4, 3}} {
		n1, n2, n3 := s[0], s[1], s[2]
		for off := 1; off <= 3; off++ {
			a := randMat(rng, off+n1*n2)[off:]
			b := randMat(rng, off+n2*n3)[off:]
			want := make([]float64, n1*n3)
			buf := make([]float64, off+guard+n1*n3+guard)
			c := buf[off+guard : off+guard+n1*n3]
			check := func(what string) {
				t.Helper()
				requireBitwise(t, what, s, c, want)
				for i, v := range buf {
					inC := i >= off+guard && i < off+guard+n1*n3
					if !inC && math.Float64bits(v) != math.Float64bits(sentinel) {
						t.Fatalf("%s %v offset %d: wrote %v at %d, outside C", what, s, off, v, i-off-guard)
					}
				}
			}
			reset := func() {
				for i := range buf {
					buf[i] = sentinel
				}
			}
			MatMulNaive(want, a, b, n1, n2, n3)
			reset()
			Mul(c, a, b, n1, n2, n3)
			check("Mul")
			for _, k := range asmKernels {
				reset()
				k.mul(c, a, b, n1, n2, n3, 1)
				check(k.name)
			}
			MulABtSimple(want, a, b, n1, n2, n3)
			reset()
			MulABt(c, a, b, n1, n2, n3)
			check("MulABt")
		}
	}
}

// An operand one element short panics. With the AVX2 kernel the panic comes
// from Go before a single entry of C is written, and it comes even when the
// short operand is a sub-slice of an arena with room behind it: the checks are
// against length, not capacity. (The Go kernels reslice rows, which capacity
// satisfies, and panic part-way through C; they are held to the first claim
// only, on operands with no spare capacity.)
func TestMulShortOperandPanics(t *testing.T) {
	const n1, n2, n3 = 6, 6, 12
	if !useAVX2 {
		t.Log("no AVX2 kernel in this build or on this CPU: skipping the spare-capacity operands and the untouched-C check")
	}
	arena := make([]float64, 3*n1*n3)
	abt := namedMul{"MulABt", func(c, a, b []float64, n1, n2, n3, _ int) { MulABt(c, a, b, n1, n2, n3) }}
	for _, f := range append(mulCalls, abt) {
		for short := 0; short < 3; short++ {
			for _, roomy := range []bool{false, true} {
				if roomy && !useAVX2 {
					continue
				}
				lens := [3]int{n1 * n3, n1 * n2, n2 * n3}
				lens[short]--
				var ops [3][]float64
				for i, n := range lens {
					ops[i] = arena[i*n1*n3 : i*n1*n3+n]
					if !roomy {
						ops[i] = ops[i][:n:n]
					}
				}
				poison(arena)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s with operand %d one element short (spare capacity: %v) did not panic", f.name, short, roomy)
						}
					}()
					f.mul(ops[0], ops[1], ops[2], n1, n2, n3, 1)
				}()
				for i, v := range ops[0] {
					if useAVX2 && v != -1 {
						t.Fatalf("%s with operand %d short wrote c[%d] before panicking", f.name, short, i)
					}
				}
			}
		}
	}
}

// MulABt's packed tile stays on the stack (the kernels are noescape).
func TestMulABtDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range [][3]int{{36, 6, 6}, {10, 10, 10}, {256, 16, 16}, {4, 6, 3}, {20, 20, 20}} {
		n1, n2, n3 := s[0], s[1], s[2]
		a, b, c := randMat(rng, n1*n2), randMat(rng, n3*n2), make([]float64, n1*n3)
		if n := testing.AllocsPerRun(100, func() { MulABt(c, a, b, n1, n2, n3) }); n != 0 {
			t.Errorf("MulABt %v allocates %v times per call", s, n)
		}
		if n := testing.AllocsPerRun(100, func() { Mul(c, a, b, n1, n2, n3) }); n != 0 {
			t.Errorf("Mul %v allocates %v times per call", s, n)
		}
	}
}

// Kernels lists the avx2 column exactly when the CPU has AVX2, and last
// exactly when Mul is that kernel.
func TestKernelAVX2Listed(t *testing.T) {
	if listed := slices.Contains(Kernels, KernelAVX2); listed != useAVX2 {
		t.Fatalf("Kernels = %v with useAVX2 = %v", Kernels, useAVX2)
	}
	if last := Kernels[len(Kernels)-1] == KernelAVX2; last != (useAVX2 && !useAVX512) {
		t.Fatalf("Kernels = %v with useAVX2 = %v, useAVX512 = %v", Kernels, useAVX2, useAVX512)
	}
	if KernelAVX2.String() != "avx2" {
		t.Fatalf("KernelAVX2 prints as %q", KernelAVX2)
	}
}

// Kernels lists the avx512 column exactly when Mul is that kernel, last.
func TestKernelAVX512Listed(t *testing.T) {
	if listed := Kernels[len(Kernels)-1] == KernelAVX512; listed != useAVX512 {
		t.Fatalf("Kernels = %v with useAVX512 = %v", Kernels, useAVX512)
	}
	if KernelAVX512.String() != "avx512" {
		t.Fatalf("KernelAVX512 prints as %q", KernelAVX512)
	}
}

// BenchmarkMulKernels times every assembly kernel the CPU has on the calling
// shapes of orders 5 and 9 in 2-D and 3-D (ShapesForOrder; the r-direction
// shapes run as Mul on the pre-transposed operator, as tensor calls them),
// and on the 3-D s-direction applies as tensor makes them: one layered call
// over the field's t layers (AVX2 loops over them, AVX-512 pairs them where
// a row fits one zmm). The kernels take turns in blocks of 64 calls within
// one benchmark per shape, so a neighbour's load falls on both alike; each
// reports its own ns/call and GFLOP/s.
func BenchmarkMulKernels(b *testing.B) {
	if len(asmKernels) == 0 {
		b.Skip("no assembly kernel in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(51))
	seen := map[[4]int]bool{}
	for _, n := range []int{5, 9} {
		for dim := 2; dim <= 4; dim++ {
			d, layered := dim, dim == 4
			if layered {
				d = 3
			}
			mul, abt := ShapesForOrder(n, d)
			shapes := append(mul, abt...)
			if layered {
				shapes = mul
			}
			for _, s := range shapes {
				n1, n2, n3, nl := s[0], s[1], s[2], 1
				name := fmt.Sprintf("N%d/%dD/%dx%dx%d", n, d, n1, n2, n3)
				if layered {
					if n1 != n3 {
						continue // a t-direction shape
					}
					nl = n2 // the layers of the field the s apply reads
					name = fmt.Sprintf("N%d/3D-s/%dx%dx%dx%dlayers", n, n1, n2, n3, nl)
				}
				if seen[[4]int{n1, n2, n3, nl}] {
					continue
				}
				seen[[4]int{n1, n2, n3, nl}] = true
				x, y, c := randMat(rng, n1*n2), randMat(rng, nl*n2*n3), make([]float64, nl*n1*n3)
				b.Run(name, func(b *testing.B) {
					const block = 64
					elapsed := make([]time.Duration, len(asmKernels))
					for i := 0; i < b.N; i++ {
						for j, k := range asmKernels {
							t0 := time.Now()
							for r := 0; r < block; r++ {
								k.mul(c, x, y, n1, n2, n3, nl)
							}
							elapsed[j] += time.Since(t0)
						}
					}
					for j, k := range asmKernels {
						ns := float64(elapsed[j].Nanoseconds()) / float64(block*b.N)
						b.ReportMetric(ns, k.name+"-ns/call")
						b.ReportMetric(2*float64(nl*n1*n2*n3)/ns, k.name+"-GFLOP/s")
					}
				})
			}
		}
	}
}
