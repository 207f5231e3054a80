package la

// elementwise.go holds the pointwise kernels of the time step: the metric
// combinations, stage updates, masks and Krylov vector updates that sit
// between the tensor contractions. Each runs over len(dst) entries (the
// vector it writes) and panics, before writing anything, if an operand is
// shorter; dst may alias an operand entry for entry, never shifted. On an
// AVX-512 machine (AVX-512F and VL) each that multiplies is an assembly loop
// on zmm from zmmMin entries; on an AVX2 one each is a loop on ymm, and so
// are the divides and the shorter vectors on an AVX-512 one; otherwise the
// Go loop below it runs. All have one VMULPD, VADDPD or VDIVPD per lane and
// operation and none fuses a multiply into an add (no FMA), so every entry
// is rounded exactly as the Go loop rounds it and the paths are bitwise
// equal. The reductions (Dot, DotW, Sum) are in reduce.go: their lanes fix
// an order of their own.

// zmmMin is the shortest vector the zmm kernels take. A shorter one runs the
// AVX2 kernel on an AVX-512 machine too: two zmm passes measured up to 6 %
// slower than four ymm at length 16, the step's shortest vectors.
const zmmMin = 32

// Prod sets dst = a⊙b.
func Prod(dst, a, b []float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	_, _ = a[n-1], b[n-1]
	if useAVX512 && n >= zmmMin {
		prodAVX512(&dst[0], &a[0], &b[0], n)
		return
	}
	if useAVX2 {
		prodAVX2(&dst[0], &a[0], &b[0], n)
		return
	}
	a, b = a[:n], b[:n]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// AddProd sets dst += a⊙b: each product is rounded, then added.
func AddProd(dst, a, b []float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	_, _ = a[n-1], b[n-1]
	if useAVX512 && n >= zmmMin {
		addProdAVX512(&dst[0], &a[0], &b[0], n)
		return
	}
	if useAVX2 {
		addProdAVX2(&dst[0], &a[0], &b[0], n)
		return
	}
	a, b = a[:n], b[:n]
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

// Quot sets dst = a⊘b, entry by entry a[i]/b[i].
func Quot(dst, a, b []float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	_, _ = a[n-1], b[n-1]
	if useAVX2 {
		quotAVX2(&dst[0], &a[0], &b[0], n)
		return
	}
	a, b = a[:n], b[:n]
	for i := range dst {
		dst[i] = a[i] / b[i]
	}
}

// AxpyTo sets w = y + alpha·x. w may be x or y: p = z + βp is
// AxpyTo(p, β, p, z), and r − αq is r + (−α)q, bitwise.
func AxpyTo(w []float64, alpha float64, x, y []float64) {
	n := len(w)
	if n == 0 {
		return
	}
	_, _ = x[n-1], y[n-1]
	if useAVX512 && n >= zmmMin {
		axpyAVX512(&w[0], &x[0], &y[0], alpha, n)
		return
	}
	if useAVX2 {
		axpyAVX2(&w[0], &x[0], &y[0], alpha, n)
		return
	}
	x, y = x[:n], y[:n]
	for i := range w {
		w[i] = y[i] + alpha*x[i]
	}
}

// Axpy computes y += alpha·x (AxpyTo into y); y += x is Axpy(1, x, y), since
// 1·x is x exactly.
func Axpy(alpha float64, x, y []float64) { AxpyTo(y, alpha, x, y) }

// Scale computes x *= alpha.
func Scale(alpha float64, x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if useAVX512 && n >= zmmMin {
		scaleAVX512(&x[0], alpha, n)
		return
	}
	if useAVX2 {
		scaleAVX2(&x[0], alpha, n)
		return
	}
	for i := range x {
		x[i] *= alpha
	}
}

// Unscale computes x /= alpha, one rounded quotient per entry (not x *= 1/alpha,
// which rounds twice).
func Unscale(alpha float64, x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if useAVX2 {
		unscaleAVX2(&x[0], alpha, n)
		return
	}
	for i := range x {
		x[i] /= alpha
	}
}
