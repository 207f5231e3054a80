package la

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The elementwise kernels against the Go loops they stand for, bit for bit,
// on whichever path the build and the CPU select. Go leaves the payload of a
// NaN result unspecified (x86 picks an operand's by position), so a NaN
// matches any NaN; every other result must have the reference's exact bits,
// signed zeros and subnormals included.

// ewKernel is one kernel with its reference loop. Both write dst from a, b
// and alpha; the single-operand kernels ignore b, Scale and Unscale a too
// (they work on dst in place).
type ewKernel struct {
	name string
	run  func(dst, a, b []float64, alpha float64)
	ref  func(dst, a, b []float64, alpha float64)
}

var ewKernels = []ewKernel{
	{"Prod", func(d, a, b []float64, _ float64) { Prod(d, a, b) },
		func(d, a, b []float64, _ float64) {
			for i := range d {
				d[i] = a[i] * b[i]
			}
		}},
	{"AddProd", func(d, a, b []float64, _ float64) { AddProd(d, a, b) },
		func(d, a, b []float64, _ float64) {
			for i := range d {
				d[i] += a[i] * b[i]
			}
		}},
	{"Quot", func(d, a, b []float64, _ float64) { Quot(d, a, b) },
		func(d, a, b []float64, _ float64) {
			for i := range d {
				d[i] = a[i] / b[i]
			}
		}},
	{"AxpyTo", func(d, a, b []float64, alpha float64) { AxpyTo(d, alpha, a, b) },
		func(d, a, b []float64, alpha float64) {
			for i := range d {
				d[i] = b[i] + alpha*a[i]
			}
		}},
	{"Axpy", func(d, a, _ []float64, alpha float64) { Axpy(alpha, a, d) },
		func(d, a, _ []float64, alpha float64) {
			for i := range d {
				d[i] += alpha * a[i]
			}
		}},
	{"Scale", func(d, _, _ []float64, alpha float64) { Scale(alpha, d) },
		func(d, _, _ []float64, alpha float64) {
			for i := range d {
				d[i] *= alpha
			}
		}},
	{"Unscale", func(d, _, _ []float64, alpha float64) { Unscale(alpha, d) },
		func(d, _, _ []float64, alpha float64) {
			for i := range d {
				d[i] /= alpha
			}
		}},
}

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

// TestElementwiseMatchesGoLoops runs every kernel at every length 0–67 (each
// tail of the 16- and 4-lane passes), at four offsets into a larger arena,
// with dst distinct from its operands and aliasing each of them, and checks
// every entry's bits and that nothing outside dst[:n] moved.
func TestElementwiseMatchesGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	alphas := []float64{0.375, -1.5e-300, 1, -1, 0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 3e300, 0x1p-1040}
	const pad = 8
	for _, k := range ewKernels {
		for n := 0; n <= 67; n++ {
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
					k.run(d[off:off+n], a[off:off+n], b[off:off+n], alpha)
					k.ref(rd[off:off+n], ra[off:off+n], rb[off:off+n], alpha)
					for i := range d {
						if !sameBits(d[i], rd[i]) {
							t.Fatalf("%s n=%d off=%d alias=%d alpha=%g: entry %d = %x, Go loop %x",
								k.name, n, off, alias, alpha, i-off, math.Float64bits(d[i]), math.Float64bits(rd[i]))
						}
					}
					for i := range a {
						if !sameBits(a[i], ra[i]) || !sameBits(b[i], rb[i]) {
							t.Fatalf("%s n=%d off=%d alias=%d: operand entry %d moved", k.name, n, off, alias, i-off)
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

// BenchmarkElementwise times each kernel against its Go loop at the lengths
// the step calls them on: dist_p64's per-rank pressure (16) and velocity (36)
// blocks at N = 5 in 2-D, one 3-D element at N = 5 (216), the channel2d field
// (1500) and the hairpin3d field (15552).
func BenchmarkElementwise(b *testing.B) {
	for _, k := range ewKernels {
		if k.name == "Axpy" {
			continue // AxpyTo into y
		}
		for _, n := range []int{16, 36, 216, 1500, 15552} {
			x, y, d := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i], d[i] = 1+float64(i%7)/8, 1+float64(i%5)/4, float64(i%3)
			}
			for _, impl := range []struct {
				name string
				fn   func(dst, a, b []float64, alpha float64)
			}{{"kernel", k.run}, {"goloop", k.ref}} {
				b.Run(k.name+"/"+strconv.Itoa(n)+"/"+impl.name, func(b *testing.B) {
					b.SetBytes(int64(8 * n))
					for i := 0; i < b.N; i++ {
						impl.fn(d, x, y, 1)
					}
				})
			}
		}
	}
}
