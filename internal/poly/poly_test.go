package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

func TestLegendreValues(t *testing.T) {
	// P_0..P_4 at a few known points.
	cases := []struct {
		n    int
		x, p float64
	}{
		{0, 0.3, 1},
		{1, 0.3, 0.3},
		{2, 0.5, 0.5 * (3*0.25 - 1) * 0.5 / 0.5}, // (3x²-1)/2 = -0.125
		{3, 1, 1},
		{4, -1, 1},
		{5, -1, -1},
	}
	cases[2].p = (3*0.25 - 1) / 2
	for _, c := range cases {
		p, _ := Legendre(c.n, c.x)
		if math.Abs(p-c.p) > 1e-14 {
			t.Errorf("P_%d(%g) = %g, want %g", c.n, c.x, p, c.p)
		}
	}
	// Derivative check against finite differences.
	for n := 1; n <= 10; n++ {
		x := 0.37
		h := 1e-6
		pp, _ := Legendre(n, x+h)
		pm, _ := Legendre(n, x-h)
		_, dp := Legendre(n, x)
		if math.Abs(dp-(pp-pm)/(2*h)) > 1e-6 {
			t.Errorf("P'_%d mismatch", n)
		}
	}
}

func TestGaussLobattoExactness(t *testing.T) {
	for n := 1; n <= 16; n++ {
		x, w := GaussLobatto(n)
		if len(x) != n+1 {
			t.Fatalf("wrong point count for N=%d", n)
		}
		if x[0] != -1 || x[n] != 1 {
			t.Fatalf("endpoints missing for N=%d", n)
		}
		for j := 1; j <= n; j++ {
			if x[j] <= x[j-1] {
				t.Fatalf("points not ascending for N=%d", n)
			}
		}
		// Exact for monomials up to degree 2N-1.
		for d := 0; d <= 2*n-1; d++ {
			var q float64
			for j := range x {
				q += w[j] * math.Pow(x[j], float64(d))
			}
			want := 0.0
			if d%2 == 0 {
				want = 2 / float64(d+1)
			}
			if math.Abs(q-want) > 1e-12 {
				t.Errorf("N=%d: ∫x^%d quadrature error %g", n, d, q-want)
			}
		}
	}
}

func TestGaussExactness(t *testing.T) {
	for n := 1; n <= 16; n++ {
		x, w := Gauss(n)
		for d := 0; d <= 2*n-1; d++ {
			var q float64
			for j := range x {
				q += w[j] * math.Pow(x[j], float64(d))
			}
			want := 0.0
			if d%2 == 0 {
				want = 2 / float64(d+1)
			}
			if math.Abs(q-want) > 1e-12 {
				t.Errorf("n=%d: ∫x^%d quadrature error %g", n, d, q-want)
			}
		}
	}
}

func TestGaussKnownPoints(t *testing.T) {
	x, w := Gauss(2)
	if math.Abs(x[0]+1/math.Sqrt(3)) > 1e-14 || math.Abs(x[1]-1/math.Sqrt(3)) > 1e-14 {
		t.Errorf("2-point Gauss nodes wrong: %v", x)
	}
	if math.Abs(w[0]-1) > 1e-14 || math.Abs(w[1]-1) > 1e-14 {
		t.Errorf("2-point Gauss weights wrong: %v", w)
	}
	x3, _ := GaussLobatto(3)
	want := math.Sqrt(1.0 / 5.0)
	if math.Abs(x3[1]+want) > 1e-13 || math.Abs(x3[2]-want) > 1e-13 {
		t.Errorf("GLL N=3 interior nodes wrong: %v", x3)
	}
}

func TestDerivMatrixExactOnPolynomials(t *testing.T) {
	for n := 2; n <= 14; n += 3 {
		x, _ := GaussLobatto(n)
		d := DerivMatrix(x)
		np := n + 1
		// Differentiate x^k exactly for k <= n.
		for k := 0; k <= n; k++ {
			u := make([]float64, np)
			for i, xi := range x {
				u[i] = math.Pow(xi, float64(k))
			}
			for i := 0; i < np; i++ {
				var du float64
				for j := 0; j < np; j++ {
					du += d[i*np+j] * u[j]
				}
				want := 0.0
				if k > 0 {
					want = float64(k) * math.Pow(x[i], float64(k-1))
				}
				if math.Abs(du-want) > 1e-9 {
					t.Errorf("N=%d: D(x^%d) error %g at node %d", n, k, du-want, i)
				}
			}
		}
	}
}

func TestInterpMatrixExactAndNodal(t *testing.T) {
	x, _ := GaussLobatto(8)
	y, _ := Gauss(7)
	j := InterpMatrix(y, x)
	// Interpolation of polynomials of degree <= 8 is exact.
	for k := 0; k <= 8; k++ {
		u := make([]float64, len(x))
		for i, xi := range x {
			u[i] = math.Pow(xi, float64(k))
		}
		for i, yi := range y {
			var v float64
			for l := range x {
				v += j[i*len(x)+l] * u[l]
			}
			if math.Abs(v-math.Pow(yi, float64(k))) > 1e-10 {
				t.Errorf("interp x^%d error at y[%d]", k, i)
			}
		}
	}
	// Interpolating onto the same grid gives the identity.
	jj := InterpMatrix(x, x)
	for i := range x {
		for l := range x {
			want := 0.0
			if i == l {
				want = 1
			}
			if math.Abs(jj[i*len(x)+l]-want) > 1e-14 {
				t.Fatalf("self-interpolation not identity")
			}
		}
	}
}

func TestFilterPreservesLowModesDampsTop(t *testing.T) {
	n := 10
	x, _ := GaussLobatto(n)
	np := n + 1
	alpha := 0.3
	f := FilterMatrix(alpha, x)
	// Polynomials of degree <= N-1 pass through unchanged.
	for k := 0; k < n; k++ {
		u := make([]float64, np)
		for i, xi := range x {
			p, _ := Legendre(k, xi)
			u[i] = p
		}
		for i := 0; i < np; i++ {
			var v float64
			for l := 0; l < np; l++ {
				v += f[i*np+l] * u[l]
			}
			if math.Abs(v-u[i]) > 1e-10 {
				t.Fatalf("filter modified mode %d: diff %g", k, v-u[i])
			}
		}
	}
	// The N-th Legendre mode is damped: ||F u_N|| < ||u_N||, with
	// coefficient reduction close to α at the interior nodes.
	u := make([]float64, np)
	for i, xi := range x {
		p, _ := Legendre(n, xi)
		u[i] = p
	}
	var before, after float64
	for i := 0; i < np; i++ {
		var v float64
		for l := 0; l < np; l++ {
			v += f[i*np+l] * u[l]
		}
		before += u[i] * u[i]
		diff := v - (1-alpha)*u[i]
		after += diff * diff
	}
	// F u_N should be close to (1-α) u_N modulo the aliasing of Π_{N-1};
	// the residual must be far smaller than u_N itself.
	if after > 0.2*before {
		t.Errorf("top-mode damping incorrect: residual %g vs %g", after, before)
	}
}

func TestFilterIdentityWhenAlphaZero(t *testing.T) {
	x, _ := GaussLobatto(7)
	f := FilterMatrix(0, x)
	np := len(x)
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(f[i*np+j]-want) > 1e-12 {
				t.Fatalf("alpha=0 filter not identity")
			}
		}
	}
	// Degenerate low degree: identity regardless of alpha.
	x1, _ := GaussLobatto(1)
	f1 := FilterMatrix(0.5, x1)
	if f1[0] != 1 || f1[3] != 1 || f1[1] != 0 {
		t.Error("low-degree filter should be identity")
	}
}

func TestModalFilterMatchesInterpFilterOnTopMode(t *testing.T) {
	n := 8
	x, _ := GaussLobatto(n)
	np := n + 1
	alpha := 0.4
	fm, err := ModalFilterMatrix(alpha, n, x)
	if err != nil {
		t.Fatal(err)
	}
	// Both preserve low modes; modal filter damps P_N exactly by (1-α).
	u := make([]float64, np)
	for i, xi := range x {
		p, _ := Legendre(n, xi)
		u[i] = p
	}
	for i := 0; i < np; i++ {
		var v float64
		for l := 0; l < np; l++ {
			v += fm[i*np+l] * u[l]
		}
		if math.Abs(v-(1-alpha)*u[i]) > 1e-9 {
			t.Fatalf("modal filter top mode: got %g want %g", v, (1-alpha)*u[i])
		}
	}
}

func TestLagrangeEvalProperty(t *testing.T) {
	// InterpMatrix's barycentric interpolation reproduces arbitrary degree-N
	// polynomials at random evaluation points (property-based).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		x, _ := GaussLobatto(n)
		coef := make([]float64, n+1)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		evalPoly := func(t float64) float64 {
			v := 0.0
			for i := n; i >= 0; i-- {
				v = v*t + coef[i]
			}
			return v
		}
		u := make([]float64, n+1)
		for i, xi := range x {
			u[i] = evalPoly(xi)
		}
		pts := make([]float64, 6)
		for i := range pts[:5] {
			pts[i] = rng.Float64()*2 - 1
		}
		pts[5] = x[1] // node hit path
		j := InterpMatrix(pts, x)
		v := make([]float64, len(pts))
		la.MatVec(v, j, u, len(pts), n+1)
		for i, pt := range pts[:5] {
			if math.Abs(v[i]-evalPoly(pt)) > 1e-8 {
				return false
			}
		}
		return v[5] == u[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGLLWeightsSumToTwo(t *testing.T) {
	for n := 1; n <= 24; n++ {
		_, w := GaussLobatto(n)
		var s float64
		for _, v := range w {
			s += v
		}
		if math.Abs(s-2) > 1e-12 {
			t.Errorf("N=%d: weights sum %g", n, s)
		}
	}
}

func TestBaryWeightsSymmetry(t *testing.T) {
	x, _ := GaussLobatto(9)
	w := BaryWeights(x)
	n := len(x)
	for i := 0; i < n; i++ {
		if math.Abs(math.Abs(w[i])-math.Abs(w[n-1-i])) > 1e-12 {
			t.Errorf("barycentric weights not symmetric at %d", i)
		}
	}
}
