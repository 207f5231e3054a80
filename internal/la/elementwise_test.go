package la

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// The elementwise kernels against the Go loops they stand for, bit for bit,
// on whichever path the build and the CPU select. Go leaves the payload of a
// NaN result unspecified (x86 picks an operand's by position), so a NaN
// matches any NaN; every other result must have the reference's exact bits,
// signed zeros and subnormals included.

// ewKernel is one kernel with its reference loop. Both write dst from a, b
// and alpha; the single-operand kernels ignore b, Scale and Unscale a too
// (they work on dst in place). avx2 and avx512 call the assembly kernels
// directly, whichever one the wrapper picks: avx2 for n >= 1, avx512 for
// n >= zmmMin; the divides have no avx512 form.
type ewKernel struct {
	name         string
	run          func(dst, a, b []float64, alpha float64)
	ref          func(dst, a, b []float64, alpha float64)
	avx2, avx512 func(dst, a, b []float64, alpha float64)
}

var ewKernels = []ewKernel{
	{"Prod", func(d, a, b []float64, _ float64) { Prod(d, a, b) },
		func(d, a, b []float64, _ float64) {
			for i := range d {
				d[i] = a[i] * b[i]
			}
		},
		func(d, a, b []float64, _ float64) { prodAVX2(&d[0], &a[0], &b[0], len(d)) },
		func(d, a, b []float64, _ float64) { prodAVX512(&d[0], &a[0], &b[0], len(d)) }},
	{"AddProd", func(d, a, b []float64, _ float64) { AddProd(d, a, b) },
		func(d, a, b []float64, _ float64) {
			for i := range d {
				d[i] += a[i] * b[i]
			}
		},
		func(d, a, b []float64, _ float64) { addProdAVX2(&d[0], &a[0], &b[0], len(d)) },
		func(d, a, b []float64, _ float64) { addProdAVX512(&d[0], &a[0], &b[0], len(d)) }},
	{"Quot", func(d, a, b []float64, _ float64) { Quot(d, a, b) },
		func(d, a, b []float64, _ float64) {
			for i := range d {
				d[i] = a[i] / b[i]
			}
		},
		func(d, a, b []float64, _ float64) { quotAVX2(&d[0], &a[0], &b[0], len(d)) }, nil},
	{"AxpyTo", func(d, a, b []float64, alpha float64) { AxpyTo(d, alpha, a, b) },
		func(d, a, b []float64, alpha float64) {
			for i := range d {
				d[i] = b[i] + alpha*a[i]
			}
		},
		func(d, a, b []float64, alpha float64) { axpyAVX2(&d[0], &a[0], &b[0], alpha, len(d)) },
		func(d, a, b []float64, alpha float64) { axpyAVX512(&d[0], &a[0], &b[0], alpha, len(d)) }},
	{"Axpy", func(d, a, _ []float64, alpha float64) { Axpy(alpha, a, d) },
		func(d, a, _ []float64, alpha float64) {
			for i := range d {
				d[i] += alpha * a[i]
			}
		},
		func(d, a, _ []float64, alpha float64) { axpyAVX2(&d[0], &a[0], &d[0], alpha, len(d)) },
		func(d, a, _ []float64, alpha float64) { axpyAVX512(&d[0], &a[0], &d[0], alpha, len(d)) }},
	{"Scale", func(d, _, _ []float64, alpha float64) { Scale(alpha, d) },
		func(d, _, _ []float64, alpha float64) {
			for i := range d {
				d[i] *= alpha
			}
		},
		func(d, _, _ []float64, alpha float64) { scaleAVX2(&d[0], alpha, len(d)) },
		func(d, _, _ []float64, alpha float64) { scaleAVX512(&d[0], alpha, len(d)) }},
	{"Unscale", func(d, _, _ []float64, alpha float64) { Unscale(alpha, d) },
		func(d, _, _ []float64, alpha float64) {
			for i := range d {
				d[i] /= alpha
			}
		},
		func(d, _, _ []float64, alpha float64) { unscaleAVX2(&d[0], alpha, len(d)) }, nil},
}

// ewPath is one way to run a kernel, on vectors of at least min entries: the
// wrapper, or an assembly kernel called directly.
type ewPath struct {
	name string
	min  int
	fn   func(k ewKernel) func(dst, a, b []float64, alpha float64)
}

// ewPaths are the wrapper and every assembly kernel this build and CPU run,
// so on an AVX-512 machine the AVX2 kernels, which the wrappers pick there
// only below zmmMin entries and for the divides, stay held to the Go loops
// at every length.
var ewPaths = func() []ewPath {
	ps := []ewPath{{"wrapper", 0, func(k ewKernel) func(d, a, b []float64, alpha float64) { return k.run }}}
	if useAVX2 {
		ps = append(ps, ewPath{"avx2", 1, func(k ewKernel) func(d, a, b []float64, alpha float64) { return k.avx2 }})
	}
	if useAVX512 {
		ps = append(ps, ewPath{"avx512", zmmMin, func(k ewKernel) func(d, a, b []float64, alpha float64) { return k.avx512 }})
	}
	return ps
}()

// specials are the values whose rounding a careless kernel would change:
// signed zeros, infinities, NaN, subnormals, the extremes of the normal range.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, 1, -1, 3,
}

// ewFill fills v with a random mixture of specials and values over sixty
// decades, so products and quotients overflow, underflow and cancel.
func ewFill(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
			continue
		}
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
	}
}

func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// ewGuard fills the entries around a window, to catch a kernel that writes
// outside it.
const ewGuard = 12345.678

// TestElementwiseMatchesGoLoops runs every kernel, through its wrapper and
// through each assembly kernel directly, at every length 0–67 it takes (each
// remainder of the 32-, 16-, 8- and 4-lane passes), at four offsets into a
// larger arena,
// with dst distinct from its operands and aliasing each of them, and checks
// every entry's bits and that nothing outside dst[:n] moved.
func TestElementwiseMatchesGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	alphas := []float64{0.375, -1.5e-300, 1, -1, 0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 3e300, 0x1p-1040}
	const pad = 8
	for _, p := range ewPaths {
		for _, k := range ewKernels {
			run := p.fn(k)
			if run == nil {
				continue // no such form of this kernel
			}
			for n := 0; n <= 67; n++ {
				if n < p.min {
					continue
				}
				for off := 0; off < 4; off++ {
					// alias 0: dst distinct; 1: dst is a; 2: dst is b.
					for alias := 0; alias < 3; alias++ {
						alpha := alphas[rng.Intn(len(alphas))]
						a := make([]float64, off+n+pad)
						b := make([]float64, off+n+pad)
						d := make([]float64, off+n+pad)
						ewFill(rng, a[off:off+n])
						ewFill(rng, b[off:off+n])
						ewFill(rng, d[off:off+n])
						for _, v := range [][]float64{a, b, d} {
							for i := range v {
								if i < off || i >= off+n {
									v[i] = ewGuard
								}
							}
						}
						switch alias {
						case 1:
							d = a
						case 2:
							d = b
						}
						ra := append([]float64(nil), a...)
						rb := append([]float64(nil), b...)
						rd := append([]float64(nil), d...)
						switch alias {
						case 1:
							rd = ra
						case 2:
							rd = rb
						}
						run(d[off:off+n], a[off:off+n], b[off:off+n], alpha)
						k.ref(rd[off:off+n], ra[off:off+n], rb[off:off+n], alpha)
						for i := range d {
							if !sameBits(d[i], rd[i]) {
								t.Fatalf("%s (%s) n=%d off=%d alias=%d alpha=%g: entry %d = %x, Go loop %x",
									k.name, p.name, n, off, alias, alpha, i-off, math.Float64bits(d[i]), math.Float64bits(rd[i]))
							}
						}
						for i := range a {
							if !sameBits(a[i], ra[i]) || !sameBits(b[i], rb[i]) {
								t.Fatalf("%s (%s) n=%d off=%d alias=%d: operand entry %d moved", k.name, p.name, n, off, alias, i-off)
							}
						}
					}
				}
			}
		}
	}
}

// TestElementwiseShortOperandPanics: an operand shorter than dst, even one
// with the capacity to be read past its end, panics in the wrapper before
// dst is written.
func TestElementwiseShortOperandPanics(t *testing.T) {
	for _, k := range ewKernels {
		if k.name == "Scale" || k.name == "Unscale" {
			continue // one operand: dst itself
		}
		for _, short := range []int{1, 2} { // 1: a short, 2: b short
			if short == 2 && k.name == "Axpy" {
				continue // Axpy's second operand is dst
			}
			for _, n := range []int{1, 5, 40} {
				arena := make([]float64, 2*n)
				a, b := make([]float64, n), make([]float64, n)
				if short == 1 {
					a = arena[:n-1]
				} else {
					b = arena[:n-1]
				}
				d := make([]float64, n)
				for i := range d {
					d[i] = ewGuard
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s n=%d: operand %d of length n-1 did not panic", k.name, n, short)
						}
					}()
					k.run(d, a, b, 2)
				}()
				for i, v := range d {
					if v != ewGuard {
						t.Fatalf("%s n=%d: dst[%d] written before the panic", k.name, n, i)
					}
				}
			}
		}
	}
}

// BenchmarkElementwise times each kernel at the lengths the step calls it
// on: dist_p64's per-rank pressure (16) and velocity (36) blocks at N = 5 in
// 2-D, one 3-D element at N = 5 (216), the channel2d field (1500) and the
// hairpin3d field (15552). The assembly kernels this CPU has for the length
// and the Go loop take turns within one benchmark per kernel and length (an
// AVX-512 machine runs AVX2 below zmmMin entries), so a neighbour's
// load falls on all alike; each reports its own ns/call. A turn is 65536
// entries' worth of calls (tens of microseconds). With turns of 4096 entries
// the zmm kernels read slower than AVX2 at length 16 and faster with longer
// turns, as if the core brought its 512-bit lanes back up after every AVX2
// turn; the step, which runs zmm products throughout, does not alternate so.
func BenchmarkElementwise(b *testing.B) {
	type contender struct {
		name string
		fn   func(dst, a, b []float64, alpha float64)
	}
	for _, k := range ewKernels {
		if k.name == "Axpy" {
			continue // AxpyTo into y
		}
		cs := []contender{{"goloop", k.ref}}
		if useAVX2 {
			cs = append(cs, contender{"avx2", k.avx2})
		}
		for _, n := range []int{16, 36, 216, 1500, 15552} {
			cs := cs
			if useAVX512 && k.avx512 != nil && n >= zmmMin {
				cs = append(cs, contender{"avx512", k.avx512})
			}
			x, y, d := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i], d[i] = 1+float64(i%7)/8, 1+float64(i%5)/4, float64(i%3)
			}
			block := max(1, 65536/n)
			b.Run(k.name+"/"+strconv.Itoa(n), func(b *testing.B) {
				elapsed := make([]time.Duration, len(cs))
				for i := 0; i < b.N; i++ {
					for j, c := range cs {
						t0 := time.Now()
						for r := 0; r < block; r++ {
							c.fn(d, x, y, 1)
						}
						elapsed[j] += time.Since(t0)
					}
				}
				for j, c := range cs {
					b.ReportMetric(float64(elapsed[j].Nanoseconds())/float64(block*b.N), c.name+"-ns/call")
				}
			})
		}
	}
}
