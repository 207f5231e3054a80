package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/la"
)

// kron2Ref computes (B ⊗ A) u by explicit Kronecker expansion for reference:
// v[s'*mr+r'] = Σ_{s,r} B[s'][s] A[r'][r] u[s*nr+r].
func kron2Ref(a, b, u []float64, mr, nr, ms, ns int) []float64 {
	v := make([]float64, mr*ms)
	for sp := 0; sp < ms; sp++ {
		for rp := 0; rp < mr; rp++ {
			var sum float64
			for s := 0; s < ns; s++ {
				for r := 0; r < nr; r++ {
					sum += b[sp*ns+s] * a[rp*nr+r] * u[s*nr+r]
				}
			}
			v[sp*mr+rp] = sum
		}
	}
	return v
}

func kron3Ref(a, b, c, u []float64, mr, nr, ms, ns, mt, nt int) []float64 {
	v := make([]float64, mr*ms*mt)
	for tp := 0; tp < mt; tp++ {
		for sp := 0; sp < ms; sp++ {
			for rp := 0; rp < mr; rp++ {
				var sum float64
				for tt := 0; tt < nt; tt++ {
					for s := 0; s < ns; s++ {
						for r := 0; r < nr; r++ {
							sum += c[tp*nt+tt] * b[sp*ns+s] * a[rp*nr+r] * u[(tt*ns+s)*nr+r]
						}
					}
				}
				v[(tp*ms+sp)*mr+rp] = sum
			}
		}
	}
	return v
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestApply2DMatchesKronecker(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][4]int{{3, 3, 3, 3}, {2, 5, 4, 3}, {7, 7, 7, 7}, {1, 4, 6, 2}}
	for _, cs := range cases {
		mr, nr, ms, ns := cs[0], cs[1], cs[2], cs[3]
		a := randSlice(rng, mr*nr)
		b := randSlice(rng, ms*ns)
		u := randSlice(rng, nr*ns)
		want := kron2Ref(a, b, u, mr, nr, ms, ns)
		got := make([]float64, mr*ms)
		work := make([]float64, ns*mr)
		Apply(got, Transpose(a, mr, nr), b, nil, u, work, mr, nr, ms, ns, 0, 0)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-11 {
				t.Fatalf("case %v: mismatch at %d: %g vs %g", cs, i, got[i], want[i])
			}
		}
	}
}

func TestApply3DMatchesKronecker(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := [][6]int{{3, 3, 3, 3, 3, 3}, {2, 4, 3, 5, 4, 2}, {5, 5, 5, 5, 5, 5}}
	for _, cs := range cases {
		mr, nr, ms, ns, mt, nt := cs[0], cs[1], cs[2], cs[3], cs[4], cs[5]
		a := randSlice(rng, mr*nr)
		b := randSlice(rng, ms*ns)
		c := randSlice(rng, mt*nt)
		u := randSlice(rng, nr*ns*nt)
		want := kron3Ref(a, b, c, u, mr, nr, ms, ns, mt, nt)
		got := make([]float64, mr*ms*mt)
		work := make([]float64, Work3DLen(mr, nr, ms, ns, mt, nt))
		Apply(got, Transpose(a, mr, nr), b, c, u, work, mr, nr, ms, ns, mt, nt)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("case %v: mismatch at %d: %g vs %g", cs, i, got[i], want[i])
			}
		}
	}
}

func TestApply3DQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := func() int { return 1 + rng.Intn(5) }
		mr, nr, ms, ns, mt, nt := dim(), dim(), dim(), dim(), dim(), dim()
		a := randSlice(rng, mr*nr)
		b := randSlice(rng, ms*ns)
		c := randSlice(rng, mt*nt)
		u := randSlice(rng, nr*ns*nt)
		want := kron3Ref(a, b, c, u, mr, nr, ms, ns, mt, nt)
		got := make([]float64, mr*ms*mt)
		work := make([]float64, Work3DLen(mr, nr, ms, ns, mt, nt))
		Apply(got, Transpose(a, mr, nr), b, c, u, work, mr, nr, ms, ns, mt, nt)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIdentityApply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	u := randSlice(rng, n*n*n)
	out := make([]float64, n*n*n)
	work := make([]float64, Work3DLen(n, n, n, n, n, n))
	Apply(out, id, id, id, u, work, n, n, n, n, n, n)
	for i := range u {
		if math.Abs(out[i]-u[i]) > 1e-13 {
			t.Fatalf("identity tensor apply changed the field at %d", i)
		}
	}
}

func TestSingleDimensionApplications(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nr, ns, nt := 3, 4, 5
	u := randSlice(rng, nr*ns*nt)
	a := randSlice(rng, 2*nr)
	id := func(n int) []float64 {
		m := make([]float64, n*n)
		for i := 0; i < n; i++ {
			m[i*n+i] = 1
		}
		return m
	}
	// ApplyR == Apply with identity B, C.
	wantFull := kron3Ref(a, id(ns), id(nt), u, 2, nr, ns, ns, nt, nt)
	got := make([]float64, 2*ns*nt)
	ApplyR(got, Transpose(a, 2, nr), u, 2, nr, ns, nt, 1)
	for i := range wantFull {
		if math.Abs(got[i]-wantFull[i]) > 1e-12 {
			t.Fatalf("ApplyR mismatch at %d", i)
		}
	}
	b := randSlice(rng, 3*ns)
	wantS := kron3Ref(id(nr), b, id(nt), u, nr, nr, 3, ns, nt, nt)
	gotS := make([]float64, nr*3*nt)
	ApplyS(gotS, b, u, 3, ns, nr, nt, 1)
	for i := range wantS {
		if math.Abs(gotS[i]-wantS[i]) > 1e-12 {
			t.Fatalf("ApplyS mismatch at %d", i)
		}
	}
	c := randSlice(rng, 2*nt)
	wantT := kron3Ref(id(nr), id(ns), c, u, nr, nr, ns, ns, 2, nt)
	gotT := make([]float64, nr*ns*2)
	ApplyT(gotT, c, u, 2, nt, nr, ns, 1)
	for i := range wantT {
		if math.Abs(gotT[i]-wantT[i]) > 1e-12 {
			t.Fatalf("ApplyT mismatch at %d", i)
		}
	}
}

func TestFlopCounts(t *testing.T) {
	if f := FlopsApply2D(4, 4, 4, 4); f != 2*(64+64) {
		t.Errorf("FlopsApply2D = %d", f)
	}
	if f := FlopsApply3D(2, 2, 2, 2, 2, 2); f != 2*3*16 {
		t.Errorf("FlopsApply3D = %d", f)
	}
	// A 2-D apply is the one-layer case without the t product, whatever mt
	// and nt say.
	if f, g := FlopsApply(2, 5, 3, 4, 3, 7, 9), FlopsApply2D(5, 3, 4, 3); f != g || f != 2*(45+60) {
		t.Errorf("FlopsApply(2, ...) = %d, FlopsApply2D = %d, want %d", f, g, 2*(45+60))
	}
	if f := FlopsApplyDim(4, 2); f != 2*64 {
		t.Errorf("FlopsApplyDim(4, 2) = %d", f)
	}
	if f := FlopsApplyDim(4, 3); f != 2*256 {
		t.Errorf("FlopsApplyDim(4, 3) = %d", f)
	}
}

// TestApplyRIsBitwiseMulABt pins the r-direction apply — la.Mul on the
// pre-transposed operator — to la.MulABt on the operator itself, bit for bit,
// on every r-direction shape an order-N discretization produces. Run under
// -tags purego too: there Mul is MatMulBlocked/MatMulIKJ and MulABt the Go
// dot-product kernels.
func TestApplyRIsBitwiseMulABt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 2; n <= 15; n++ {
		for dim := 2; dim <= 3; dim++ {
			_, abt := la.ShapesForOrder(n, dim)
			for _, sh := range abt {
				rows, nr, mr := sh[0], sh[1], sh[2]
				a, u := randSlice(rng, mr*nr), randSlice(rng, rows*nr)
				u[rng.Intn(len(u))] = 0 // MatMulIKJ skips zero field entries
				want, got := make([]float64, rows*mr), make([]float64, rows*mr)
				la.MulABt(want, u, a, rows, nr, mr)
				if dim == 2 {
					ApplyR(got, Transpose(a, mr, nr), u, mr, nr, rows, 1, 1)
				} else {
					ApplyR(got, Transpose(a, mr, nr), u, mr, nr, nr, rows/nr, 1)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("N=%d dim=%d shape %v: entry %d is %x, MulABt gives %x",
							n, dim, sh, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestApplyDimIsTheDirectionApply holds ApplyDim, which takes the slowest
// direction as ApplyT's single product, bit for bit to ApplyR, ApplyS and
// ApplyT on the same field, 2-D (nt = 1) and 3-D.
func TestApplyDimIsTheDirectionApply(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 5
	a := randSlice(rng, n*n)
	at := Transpose(a, n, n)
	for dims := 2; dims <= 3; dims++ {
		nt := 1
		if dims == 3 {
			nt = n
		}
		u := randSlice(rng, n*n*nt)
		for dim := 0; dim < dims; dim++ {
			got, want := make([]float64, len(u)), make([]float64, len(u))
			ApplyDim(got, a, at, u, n, dims, dim, 1)
			switch dim {
			case 0:
				ApplyR(want, at, u, n, n, n, nt, 1)
			case 1:
				ApplyS(want, a, u, n, n, n, nt, 1)
			default:
				ApplyT(want, a, u, n, n, n, n, 1)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dims=%d dim=%d: entry %d is %g, the direction apply gives %g", dims, dim, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkDirectionApplies times the three direction applies of a square
// operator on an n x n x n field at orders 5 and 9, taking turns in blocks
// of 64 calls within one benchmark per order so a neighbour's load falls on
// all three alike. Each does the same 2n^4 flops; each reports its ns/call.
func BenchmarkDirectionApplies(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, order := range []int{5, 9} {
		n := order + 1
		a, u, out := randSlice(rng, n*n), randSlice(rng, n*n*n), make([]float64, n*n*n)
		applies := []struct {
			name string
			fn   func()
		}{
			{"r", func() { ApplyR(out, a, u, n, n, n, n, 1) }},
			{"s", func() { ApplyS(out, a, u, n, n, n, n, 1) }},
			{"t", func() { ApplyT(out, a, u, n, n, n, n, 1) }},
		}
		b.Run(fmt.Sprintf("N%d", order), func(b *testing.B) {
			const block = 64
			elapsed := make([]time.Duration, len(applies))
			for i := 0; i < b.N; i++ {
				for j, ap := range applies {
					t0 := time.Now()
					for r := 0; r < block; r++ {
						ap.fn()
					}
					elapsed[j] += time.Since(t0)
				}
			}
			for j, ap := range applies {
				b.ReportMetric(float64(elapsed[j].Nanoseconds())/float64(block*b.N), ap.name+"-ns/call")
			}
		})
	}
}

// randomSplit cuts ne consecutive elements into runs of random lengths that
// add up to ne.
func randomSplit(rng *rand.Rand, ne int) []int {
	var runs []int
	for ne > 0 {
		n := 1 + rng.Intn(ne)
		runs = append(runs, n)
		ne -= n
	}
	return runs
}

// runKernel is one run-form kernel on fields of in points per element,
// writing out points per element.
type runKernel struct {
	name    string
	in, out int
	apply   func(out, u []float64, ne int)
}

// TestRunsAreTheirElementsBitwise holds every run-form kernel — the
// direction applies, ApplyDim and ApplyRun — to its one-element application,
// element by element, bit for bit, over random splits of a random element
// list: square operators and the rectangular J_pv (N-1 → N+1 points) and
// J_pvᵀ (N+1 → N-1) shapes, 2-D and 3-D. Seeded, so a failure repeats.
func TestRunsAreTheirElementsBitwise(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8) // order N: 1-D operators on N+1 points
		dims := 2 + rng.Intn(2)
		ne := 1 + rng.Intn(16)
		for _, sh := range [][2]int{{n + 1, n + 1}, {n + 1, n - 1}, {n - 1, n + 1}} {
			m, k := sh[0], sh[1] // m output points from k input points per direction
			a, b, c := randSlice(rng, m*k), randSlice(rng, m*k), randSlice(rng, m*k)
			at := Transpose(a, m, k)
			nt, mt, ct := 1, 1, []float64(nil) // 2-D: one layer, no t apply
			if dims == 3 {
				nt, mt, ct = k, m, c
			}
			work := make([]float64, ne*Work3DLen(m, k, m, k, mt, nt))
			kernels := []runKernel{
				{"ApplyR", k * k * nt, m * k * nt, func(out, u []float64, ne int) { ApplyR(out, at, u, m, k, k, nt, ne) }},
				{"ApplyS", k * k * nt, k * m * nt, func(out, u []float64, ne int) { ApplyS(out, b, u, m, k, k, nt, ne) }},
				// ApplyT along the slowest direction: s in 2-D, t in 3-D.
				{"ApplyT", k * k * nt, k * m * nt, func(out, u []float64, ne int) { ApplyT(out, c, u, m, k, k, nt, ne) }},
				{"ApplyRun", k * k * nt, m * m * mt, func(out, u []float64, ne int) {
					ApplyRun(out, at, b, ct, u, work, m, k, m, k, mt, nt, ne)
				}},
			}
			if m == k {
				for dim := 0; dim < dims; dim++ {
					kernels = append(kernels, runKernel{fmt.Sprintf("ApplyDim(%d)", dim), len(a) * nt, len(a) * nt,
						func(out, u []float64, ne int) { ApplyDim(out, a, at, u, k, dims, dim, ne) }})
				}
			}
			for _, kr := range kernels {
				u := randSlice(rng, ne*kr.in)
				u[rng.Intn(len(u))] = 0 // MatMulIKJ skips zero entries
				want, got := make([]float64, ne*kr.out), make([]float64, ne*kr.out)
				for e := 0; e < ne; e++ {
					kr.apply(want[e*kr.out:(e+1)*kr.out], u[e*kr.in:(e+1)*kr.in], 1)
				}
				split, e0 := randomSplit(rng, ne), 0
				for _, r := range split {
					kr.apply(got[e0*kr.out:(e0+r)*kr.out], u[e0*kr.in:(e0+r)*kr.in], r)
					e0 += r
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("seed %d, %d-D %dx%d %s, runs %v: entry %d is %g, element by element %g",
							seed, dims, m, k, kr.name, split, i, got[i], want[i])
					}
				}
			}
		}
	}
}
