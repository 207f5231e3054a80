package la

import (
	"math"
	"math/rand"
	"testing"
)

// ruleShapes returns every calling shape an order-N discretization produces
// (N = 2..16, dim 2 and 3) plus shapes on the other side of each branch of
// the Mul/MulABt shape rule: n1 = 1, n3 < 4, n3 = 1, odd tile remainders and
// one shape far larger than any element operator.
func ruleShapes() (mul, abt [][3]int) {
	for n := 2; n <= 16; n++ {
		for dim := 2; dim <= 3; dim++ {
			m, a := ShapesForOrder(n, dim)
			mul = append(mul, m...)
			abt = append(abt, a...)
		}
	}
	extra := [][3]int{{1, 1, 1}, {1, 8, 13}, {10, 10, 1}, {9, 7, 3}, {2, 14, 2},
		{17, 1, 17}, {7, 3, 9}, {5, 5, 33}, {3, 17, 3}, {40, 40, 40}}
	return append(mul, extra...), append(abt, extra...)
}

// poison overwrites an output buffer so a kernel that skips an entry is caught.
func poison(v []float64) {
	for i := range v {
		v[i] = -1
	}
}

func requireBitwise(t *testing.T, what string, s [3]int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("shape %v %s: entry %d = %v (%x), want bitwise %v (%x)", s, what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// Mul and the kernels it may pick are bitwise-identical to the naive loop on
// every shape: each output entry is one sequential accumulation over the
// contraction index, so the shape rule decides speed, never results.
func TestStrictKernelsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes, _ := ruleShapes()
	for _, s := range shapes {
		n1, n2, n3 := s[0], s[1], s[2]
		a := randMat(rng, n1*n2)
		b := randMat(rng, n2*n3)
		want := make([]float64, n1*n3)
		MatMulNaive(want, a, b, n1, n2, n3)
		got := make([]float64, n1*n3)
		for _, k := range []MatMulKernel{KernelIKJ, KernelBlocked} {
			poison(got)
			MatMul(k, got, a, b, n1, n2, n3)
			requireBitwise(t, k.String(), s, got, want)
		}
		poison(got)
		Mul(got, a, b, n1, n2, n3)
		requireBitwise(t, "Mul", s, got, want)
	}
}

func TestABtKernelsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_, shapes := ruleShapes()
	for _, s := range shapes {
		n1, n2, n3 := s[0], s[1], s[2]
		a := randMat(rng, n1*n2)
		b := randMat(rng, n3*n2)
		want := make([]float64, n1*n3)
		MulABtSimple(want, a, b, n1, n2, n3)
		got := make([]float64, n1*n3)
		poison(got)
		MulABt(got, a, b, n1, n2, n3)
		requireBitwise(t, "MulABt", s, got, want)
	}
}

// f2/f3 reassociate (four partial sums), so they agree with the naive loop
// only to rounding, which is why Mul never picks them.
func TestAllKernelsApproxEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes, _ := ruleShapes()
	for _, s := range shapes {
		n1, n2, n3 := s[0], s[1], s[2]
		a := randMat(rng, n1*n2)
		b := randMat(rng, n2*n3)
		want := make([]float64, n1*n3)
		MatMulNaive(want, a, b, n1, n2, n3)
		var scale float64
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		got := make([]float64, n1*n3)
		for _, k := range []MatMulKernel{KernelF2, KernelF3} {
			MatMul(k, got, a, b, n1, n2, n3)
			if d := maxAbsDiff(got, want); d > 1e-12*scale {
				t.Fatalf("shape %v kernel %v: max diff %g relative to %g", s, k, d, scale)
			}
		}
	}
}

func TestShapesForOrder(t *testing.T) {
	mul2, abt2 := ShapesForOrder(9, 2)
	if len(mul2) == 0 || len(abt2) == 0 {
		t.Fatal("no shapes for order 9, dim 2")
	}
	// The square GLL application must be present in both conventions.
	wantMul := [3]int{10, 10, 10}
	found := false
	for _, s := range mul2 {
		if s == wantMul {
			found = true
		}
	}
	if !found {
		t.Fatalf("mul shapes %v missing %v", mul2, wantMul)
	}
	mul3, abt3 := ShapesForOrder(9, 3)
	// 3D adds the t-direction long-slab shape (np1, np1, np1^2).
	wantSlab := [3]int{10, 10, 100}
	found = false
	for _, s := range mul3 {
		if s == wantSlab {
			found = true
		}
	}
	if !found {
		t.Fatalf("3D mul shapes %v missing %v", mul3, wantSlab)
	}
	if len(abt3) == 0 {
		t.Fatal("no 3D abt shapes")
	}
	// No duplicates.
	seen := map[[3]int]bool{}
	for _, s := range mul3 {
		if seen[s] {
			t.Fatalf("duplicate shape %v", s)
		}
		seen[s] = true
	}
}
