package la

// reduce.go holds the inner products of the time step: every CG pass,
// projection coefficient, Gram–Schmidt pass and Chebyshev bound is a Dot or
// a DotW, and the pressure's mean a Sum. Each sums in one fixed order, the
// same on every path:
//
//   - Lanes. Entry i goes into lane i mod 32. Each lane starts at +0 and
//     adds its terms in increasing i. A term is rounded before it is added:
//     x·y for Dot, (x·y)·w for DotW (the first product rounded, then the
//     second), x for Sum.
//   - Tail. The last 1–31 entries go into lanes 0 … r−1 only; the other
//     lanes are left as they are.
//   - Tree. Lane j adds lane j+16 (j < 16), then lane j+8 (j < 8), j+4, j+2,
//     and the result is lane 0 + lane 1.
//
// On an AVX-512 machine (AVX-512F and VL) the kernel holds the lanes in four
// zmm, on an AVX2 one in eight ymm; otherwise the Go loop below runs. None
// fuses a multiply into an add, so the three are bitwise equal, and a
// result depends on the operands alone, never on the machine that summed
// them. Thirty-two independent chains keep the adder busy where one chain
// waits out its latency on every entry.

// lanes is the number of partial sums a reduction keeps.
const lanes = 32

// Dot returns the inner product Σ x[i]·y[i] over len(x) entries, in the lane
// order above; y may be longer.
func Dot(x, y []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	_ = y[n-1]
	switch {
	case useAVX512:
		return dotAVX512(&x[0], &y[0], n)
	case useAVX2:
		return dotAVX2(&x[0], &y[0], n)
	}
	return dotGo(x, y[:n])
}

// DotW returns the weighted inner product Σ (x[i]·y[i])·w[i] over len(x)
// entries, in the lane order above; y and w may be longer.
func DotW(x, y, w []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	_, _ = y[n-1], w[n-1]
	switch {
	case useAVX512:
		return dotWAVX512(&x[0], &y[0], &w[0], n)
	case useAVX2:
		return dotWAVX2(&x[0], &y[0], &w[0], n)
	}
	return dotWGo(x, y[:n], w[:n])
}

// Sum returns Σ x[i] in the lane order above.
func Sum(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	switch {
	case useAVX512:
		return sumAVX512(&x[0], n)
	case useAVX2:
		return sumAVX2(&x[0], n)
	}
	return sumGo(x)
}

// dotGo, dotWGo and sumGo are the Go loops of Dot, DotW and Sum, for
// operands of equal length. The conversions round each product where it
// stands, so no compiler fuses it into the add.
func dotGo(x, y []float64) float64 {
	var acc [lanes]float64
	for len(x) >= lanes {
		xb, yb := x[:lanes], y[:lanes]
		for j := range acc {
			acc[j] += float64(xb[j] * yb[j])
		}
		x, y = x[lanes:], y[lanes:]
	}
	for j, v := range x {
		acc[j] += float64(v * y[j])
	}
	return combine(&acc)
}

func dotWGo(x, y, w []float64) float64 {
	var acc [lanes]float64
	for len(x) >= lanes {
		xb, yb, wb := x[:lanes], y[:lanes], w[:lanes]
		for j := range acc {
			acc[j] += float64(float64(xb[j]*yb[j]) * wb[j])
		}
		x, y, w = x[lanes:], y[lanes:], w[lanes:]
	}
	for j, v := range x {
		acc[j] += float64(float64(v*y[j]) * w[j])
	}
	return combine(&acc)
}

func sumGo(x []float64) float64 {
	var acc [lanes]float64
	for len(x) >= lanes {
		xb := x[:lanes]
		for j := range acc {
			acc[j] += xb[j]
		}
		x = x[lanes:]
	}
	for j, v := range x {
		acc[j] += v
	}
	return combine(&acc)
}

// combine sums the lanes by the tree: lane j adds lane j+h for h = 16, 8, 4,
// 2, 1 in turn.
func combine(acc *[lanes]float64) float64 {
	for h := lanes / 2; h >= 1; h /= 2 {
		for j := 0; j < h; j++ {
			acc[j] += acc[j+h]
		}
	}
	return acc[0]
}
