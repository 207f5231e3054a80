package la

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// The reductions against a reference written from reduce.go's order, bit
// for bit, on every path: the wrapper, the Go loop, and each assembly kernel
// this build and CPU have, called directly. A NaN result matches any NaN.

// refReduce sums term(0) … term(n-1) as the spec says: term i into lane
// i mod 32 (every lane from +0, in increasing i), then lane j += lane j+h
// for h = 16, 8, 4, 2, 1.
func refReduce(n int, term func(i int) float64) float64 {
	var lane [32]float64
	for i := 0; i < n; i++ {
		lane[i%32] = lane[i%32] + term(i)
	}
	for _, h := range []int{16, 8, 4, 2, 1} {
		for j := 0; j < h; j++ {
			lane[j] = lane[j] + lane[j+h]
		}
	}
	return lane[0]
}

// redKernel is one reduction: its reference term, and every path that
// computes it (nil where the build or the CPU has none).
type redKernel struct {
	name string
	term func(x, y, w []float64, i int) float64
	// paths, by name: the wrapper, the Go loop and the assembly kernels
	// (pointer forms, n >= 1).
	wrapper, goloop func(x, y, w []float64) float64
	avx2, avx512    func(x, y, w *float64, n int) float64
}

var redKernels = []redKernel{
	{name: "Dot",
		term:    func(x, y, _ []float64, i int) float64 { return float64(x[i] * y[i]) },
		wrapper: func(x, y, _ []float64) float64 { return Dot(x, y) },
		goloop:  func(x, y, _ []float64) float64 { return dotGo(x, y) },
		avx2:    func(x, y, _ *float64, n int) float64 { return dotAVX2(x, y, n) },
		avx512:  func(x, y, _ *float64, n int) float64 { return dotAVX512(x, y, n) }},
	{name: "DotW",
		term:    func(x, y, w []float64, i int) float64 { return float64(float64(x[i]*y[i]) * w[i]) },
		wrapper: DotW,
		goloop:  dotWGo,
		avx2:    dotWAVX2,
		avx512:  dotWAVX512},
	{name: "Sum",
		term:    func(x, _, _ []float64, i int) float64 { return x[i] },
		wrapper: func(x, _, _ []float64) float64 { return Sum(x) },
		goloop:  func(x, _, _ []float64) float64 { return sumGo(x) },
		avx2:    func(x, _, _ *float64, n int) float64 { return sumAVX2(x, n) },
		avx512:  func(x, _, _ *float64, n int) float64 { return sumAVX512(x, n) }},
}

// redPath is one way to run a reduction on n >= min entries.
type redPath struct {
	name string
	min  int
	fn   func(k redKernel) func(x, y, w []float64) float64
}

var redPaths = func() []redPath {
	ps := []redPath{
		{"wrapper", 0, func(k redKernel) func(x, y, w []float64) float64 { return k.wrapper }},
		{"goloop", 0, func(k redKernel) func(x, y, w []float64) float64 { return k.goloop }},
	}
	asm := func(name string, pick func(k redKernel) func(x, y, w *float64, n int) float64) redPath {
		return redPath{name, 1, func(k redKernel) func(x, y, w []float64) float64 {
			f := pick(k)
			return func(x, y, w []float64) float64 { return f(&x[0], &y[0], &w[0], len(x)) }
		}}
	}
	if useAVX2 {
		ps = append(ps, asm("avx2", func(k redKernel) func(x, y, w *float64, n int) float64 { return k.avx2 }))
	}
	if useAVX512 {
		ps = append(ps, asm("avx512", func(k redKernel) func(x, y, w *float64, n int) float64 { return k.avx512 }))
	}
	return ps
}()

// redLengths are 0–130 (every tail of up to four blocks) and the step's
// lengths: dist_p64's per-rank blocks (16, 36), the channel's pressure (960)
// and velocity (1500) fields, the hairpin's (4608, 15552).
var redLengths = func() []int {
	var ns []int
	for n := 0; n <= 130; n++ {
		ns = append(ns, n)
	}
	return append(ns, 16, 36, 100, 960, 1500, 4608, 15552)
}()

// redFill fills v: specials with probability 1/rate (so a long vector is
// still mostly finite), otherwise values over sixty decades of both signs.
func redFill(rng *rand.Rand, v []float64, rate int) {
	for i := range v {
		if rng.Intn(rate) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
			continue
		}
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
	}
}

// TestReductionsMatchSpec fills the operands with specials one entry in
// three (most sums are NaN or infinite), one in 200 (most are finite), or
// all −0 (every lane stays +0, so the sum is +0, not −0).
func TestReductionsMatchSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	negz := math.Copysign(0, -1)
	fills := []func(v []float64){
		func(v []float64) { redFill(rng, v, 3) },
		func(v []float64) { redFill(rng, v, 200) },
		func(v []float64) {
			for i := range v {
				v[i] = negz
			}
		},
	}
	for _, n := range redLengths {
		for fi, fill := range fills {
			for off := 0; off < 3; off++ {
				x, y, w := make([]float64, off+n), make([]float64, off+n), make([]float64, off+n)
				fill(x)
				fill(y)
				fill(w)
				x, y, w = x[off:], y[off:], w[off:]
				for _, k := range redKernels {
					want := refReduce(n, func(i int) float64 { return k.term(x, y, w, i) })
					for _, p := range redPaths {
						if n < p.min {
							continue
						}
						if got := p.fn(k)(x, y, w); !sameBits(got, want) {
							t.Fatalf("%s (%s) n=%d off=%d fill=%d: %v (%x), spec %v (%x)", k.name, p.name, n, off, fi,
								got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestReductionsShortOperandPanics: an operand shorter than x, even one with
// the capacity to be read past its end, panics.
func TestReductionsShortOperandPanics(t *testing.T) {
	for _, n := range []int{1, 5, 40} {
		x, full, arena := make([]float64, n), make([]float64, n), make([]float64, 2*n)
		short := arena[:n-1]
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"Dot y", func() { Dot(x, short) }},
			{"DotW y", func() { DotW(x, short, full) }},
			{"DotW w", func() { DotW(x, full, short) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s n=%d: operand of length n-1 did not panic", c.name, n)
					}
				}()
				c.f()
			}()
		}
	}
}

// The error of the lane order against the exactly rounded sum: a term of
// DotW carries two product roundings, one of Dot one, of Sum none; a lane of
// k = ⌈n/32⌉ terms adds k − 1 times after its exact first add, and the tree
// adds five more. So |lanes − exact| ≤ γ_m·Σ|term| with m = ⌈n/32⌉ + 4 + the
// product roundings, γ_m = m·u/(1 − m·u) (Higham, Accuracy and Stability of
// Numerical Algorithms, Sec. 3.1 and 4.2).
func TestReductionsErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const u = 0x1p-53
	rounds := map[string]int{"Dot": 1, "DotW": 2, "Sum": 0}
	for _, n := range redLengths {
		if n == 0 {
			continue
		}
		x, y, w := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			y[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			w[i] = 0.5 + rng.Float64()
		}
		for _, k := range redKernels {
			exact, abs := new(big.Float).SetPrec(4096), new(big.Float).SetPrec(4096)
			for i := range x {
				term := new(big.Float).SetPrec(4096).SetFloat64(x[i])
				switch k.name {
				case "Dot":
					term.Mul(term, big.NewFloat(y[i]))
				case "DotW":
					term.Mul(term, big.NewFloat(y[i]))
					term.Mul(term, big.NewFloat(w[i]))
				}
				exact.Add(exact, term)
				abs.Add(abs, term.Abs(term))
			}
			ex, _ := exact.Float64()
			sa, _ := abs.Float64()
			m := float64((n+31)/32 + 4 + rounds[k.name])
			bound := m * u / (1 - m*u) * sa
			got := k.wrapper(x, y, w)
			diff := new(big.Float).SetPrec(4096).SetFloat64(got)
			diff.Sub(diff, exact)
			d, _ := diff.Abs(diff).Float64()
			if d > bound {
				t.Errorf("%s n=%d: |%v − %v| = %v > bound %v", k.name, n, got, ex, d, bound)
			}
		}
	}
}

// BenchmarkReductions times the sequential chain the step summed with before
// the lane order against the lanes' Go loop and each assembly kernel this
// CPU has, at the step's lengths. The contenders take turns within one
// benchmark per kernel and length, a turn being 65536 entries' worth of
// calls, so a neighbour's load falls on all alike; each reports its own
// ns/call.
func BenchmarkReductions(b *testing.B) {
	chains := map[string]func(x, y, w []float64) float64{
		"Dot": func(x, y, _ []float64) float64 {
			var s float64
			for i, v := range x {
				s += v * y[i]
			}
			return s
		},
		"DotW": func(x, y, w []float64) float64 {
			var s float64
			for i, v := range x {
				s += v * y[i] * w[i]
			}
			return s
		},
		"Sum": func(x, _, _ []float64) float64 {
			var s float64
			for _, v := range x {
				s += v
			}
			return s
		},
	}
	var sink float64
	for _, k := range redKernels {
		type contender struct {
			name string
			fn   func(x, y, w []float64) float64
		}
		cs := []contender{{"chain", chains[k.name]}}
		for _, p := range redPaths[1:] { // the Go loop and the kernels
			cs = append(cs, contender{p.name, p.fn(k)})
		}
		for _, n := range []int{16, 36, 100, 960, 1500, 4608, 15552} {
			x, y, w := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i], w[i] = 1+float64(i%7)/8, 1+float64(i%5)/4, 1/float64(1+i%3)
			}
			block := max(1, 65536/n)
			b.Run(k.name+"/"+strconv.Itoa(n), func(b *testing.B) {
				elapsed := make([]time.Duration, len(cs))
				for i := 0; i < b.N; i++ {
					for j, c := range cs {
						t0 := time.Now()
						for r := 0; r < block; r++ {
							sink += c.fn(x, y, w)
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
	if sink == 42 {
		b.Log(sink)
	}
}
