package ns

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/instrument"
	"repro/internal/mesh"
)

// The three mixes of metric pairs the E-apply kernels see: the Table-1
// channel (every element undeformed: dim pairs; enclosed), the hairpin box of
// the benchmark (24 undeformed elements, 48 with 5 of 9 pairs; open outflow)
// and the Table-2 O-grid (every element fully deformed; all-Dirichlet here,
// so enclosed).
type eApplyCase struct {
	name     string
	deformed int // expected count of elements with off-diagonal pairs
	build    func(t testing.TB) Config
}

var eApplyCases = []eApplyCase{
	{"channel", 0, func(t testing.TB) Config {
		spec := mesh.Box2D(mesh.Box2DSpec{Nx: 5, Ny: 3, X0: 0, X1: 2 * math.Pi, Y0: -1, Y1: 1, PeriodicX: true})
		return Config{Mesh: discretize(t, spec, 9), Re: 7500, Dt: 0.003125,
			DirichletMask: func(x, y, z float64) bool { return true }}
	}},
	{"hairpin", 48, func(t testing.TB) Config {
		const lz = 4.0
		spec := mesh.HemisphereBox(mesh.HemisphereBoxSpec{
			Nx: 6, Ny: 4, Nz: 3, Lx: 12, Ly: 6, Lz: lz,
			Cx: 3, Cy: 3, Radius: 1, Height: 0.8, WallRatio: 3,
		})
		return Config{Mesh: discretize(t, spec, 5), Re: 850, Dt: 0.05,
			DirichletMask: func(x, y, z float64) bool { return x < 1e-9 || z > lz-1e-9 || z < 0.85 }}
	}},
	{"ogrid", 32, func(t testing.TB) Config {
		spec := mesh.CylinderOGrid(mesh.CylinderOGridSpec{NTheta: 8, NLayer: 4, R: 0.5, H: 4, WallRatio: 8})
		return Config{Mesh: discretize(t, spec, 6), Re: 100, Dt: 0.01,
			DirichletMask: func(x, y, z float64) bool { return true }}
	}},
}

func discretize(t testing.TB, spec *mesh.Spec, n int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Discretize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func eApplySolver(t testing.TB, cfg Config) *Solver {
	t.Helper()
	cfg.PressurePrecond = PrecondNone
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func normalVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func velocityVecs(rng *rand.Rand, s *Solver) (u [3][]float64, hdr [][]float64) {
	for c := 0; c < 3; c++ {
		u[c] = normalVec(rng, s.n)
	}
	return u, u[:s.dim]
}

func plainDot(a, b []float64) float64 {
	var v float64
	for i := range a {
		v += a[i] * b[i]
	}
	return v
}

func norm(a []float64) float64 { return math.Sqrt(plainDot(a, a)) }

// D and Dᵀ are adjoint, E is symmetric and annihilates constants on enclosed
// domains, on every element-class mix, for seeded random vectors: what CG
// assumes of the operator, to 1e-12 of the sizes of the vectors involved.
func TestEApplyAdjointSymmetricNullSpace(t *testing.T) {
	for _, tc := range eApplyCases {
		t.Run(tc.name, func(t *testing.T) {
			s := eApplySolver(t, tc.build(t))
			var deformed int
			for _, p := range s.M.RXPairs {
				if bits.OnesCount16(p) > s.dim {
					deformed++
				}
			}
			if deformed != tc.deformed {
				t.Fatalf("%d deformed elements, want %d", deformed, tc.deformed)
			}
			np := s.M.K * s.npp
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p, q := normalVec(rng, np), normalVec(rng, np)
				u, uh := velocityVecs(rng, s)

				// ⟨Dᵀp, u⟩ = ⟨p, D u⟩.
				_, gt := velocityVecs(rng, s)
				du := make([]float64, np)
				s.GradientT(gt, p)
				s.Divergence(du, u)
				var lhs, scale float64
				for c := range gt {
					lhs += plainDot(gt[c], uh[c])
					scale += norm(gt[c]) * norm(uh[c])
				}
				if rhs := plainDot(p, du); math.Abs(lhs-rhs) > 1e-12*scale {
					t.Errorf("seed %d: ⟨Dᵀp,u⟩ = %.17g, ⟨p,Du⟩ = %.17g (scale %g)", seed, lhs, rhs, scale)
				}

				// pᵀEq = qᵀEp.
				ep, eq := make([]float64, np), make([]float64, np)
				s.applyE(ep, p)
				s.applyE(eq, q)
				peq, qep := plainDot(p, eq), plainDot(q, ep)
				if scale := norm(p) * norm(eq); math.Abs(peq-qep) > 1e-12*scale {
					t.Errorf("seed %d: pᵀEq = %.17g, qᵀEp = %.17g (scale %g)", seed, peq, qep, scale)
				}
			}
			if !s.enclosed {
				return
			}
			// E·1 = 0, measured without the deflation applyE ends with.
			one := make([]float64, np)
			for i := range one {
				one[i] = 1
			}
			s.enclosed = false
			e1 := make([]float64, np)
			s.applyE(e1, one)
			s.enclosed = true
			ep := make([]float64, np)
			s.applyE(ep, normalVec(rand.New(rand.NewSource(9)), np))
			if norm(e1) > 1e-12*norm(ep) {
				t.Errorf("‖E·1‖ = %g against ‖E·random‖ = %g", norm(e1), norm(ep))
			}
		})
	}
}

// The classification only selects which metric pairs the kernels visit: with
// every element forced through all dim² pairs (the test sets the mesh's own
// masks; there is no option) Dᵀ, D and E agree with the classified path to
// 1e-12, which bounds what dropping the ≤1e-12-relative off-diagonal metrics
// can do to a result.
func TestEApplyClassifiedMatchesAllPairs(t *testing.T) {
	for _, tc := range eApplyCases {
		t.Run(tc.name, func(t *testing.T) {
			s := eApplySolver(t, tc.build(t))
			np := s.M.K * s.npp
			rng := rand.New(rand.NewSource(11))
			p := normalVec(rng, np)
			u, _ := velocityVecs(rng, s)
			run := func() (gt [][]float64, du, ep []float64) {
				_, gt = velocityVecs(rng, s)
				du, ep = make([]float64, np), make([]float64, np)
				s.GradientT(gt, p)
				s.Divergence(du, u)
				s.applyE(ep, p)
				return gt, du, ep
			}
			gt, du, ep := run()
			classified := append([]uint16(nil), s.M.RXPairs...)
			for e := range s.M.RXPairs {
				s.M.RXPairs[e] = 1<<(s.dim*s.dim) - 1
			}
			gtAll, duAll, epAll := run()
			copy(s.M.RXPairs, classified)
			check := func(what string, a, b []float64) {
				t.Helper()
				var diff float64
				for i := range a {
					diff = math.Max(diff, math.Abs(a[i]-b[i]))
				}
				if diff > 1e-12*maxAbs(b) {
					t.Errorf("%s: classified and all-pairs paths differ by %g (max |value| %g)", what, diff, maxAbs(b))
				}
			}
			for c := range gt {
				check("Dᵀp", gt[c], gtAll[c])
			}
			check("Du", du, duAll)
			check("Ep", ep, epAll)
		})
	}
}

func maxAbs(a []float64) float64 {
	var m float64
	for _, v := range a {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// The flop meter follows the metric pairs: EApplyFlops per element, summed by
// GradientT and Divergence; each pair beyond the diagonal ones costs one
// derivative product and its pointwise work.
func TestEApplyFlopsPerClass(t *testing.T) {
	s := eApplySolver(t, eApplyCases[1].build(t)) // hairpin: 3-pair and 5-pair elements
	var und, def int
	for e, p := range s.M.RXPairs {
		if bits.OnesCount16(p) > s.dim {
			def = e
		} else {
			und = e
		}
	}
	gtU, dvU := s.eApplyFlops(und)
	gtD, dvD := s.eApplyFlops(def)
	np1, np := int64(s.np1), int64(s.M.Np)
	deriv := 2 * np1 * np
	if got, want := gtD.mm+gtD.vec-gtU.mm-gtU.vec, 2*(deriv+np)+2*np; got != want {
		t.Errorf("Dᵀ: deformed − undeformed = %d flops, want %d (2 more pairs)", got, want)
	}
	if got, want := dvD.mm+dvD.vec-dvU.mm-dvU.vec, 2*(deriv+2*np); got != want {
		t.Errorf("D: deformed − undeformed = %d flops, want %d (2 more pairs)", got, want)
	}
	np3 := s.M.K * s.npp
	rng := rand.New(rand.NewSource(3))
	p := normalVec(rng, np3)
	u, uh := velocityVecs(rng, s)
	var wantGT, wantDv int64
	for e := range s.M.RXPairs {
		g, d := s.eApplyFlops(e)
		wantGT += g.mm + g.vec
		wantDv += d.mm + d.vec
	}
	f0 := s.D.Flops()
	s.GradientT(uh, p)
	f1 := s.D.Flops()
	s.Divergence(p, u)
	f2 := s.D.Flops()
	if f1-f0 != wantGT || f2-f1 != wantDv {
		t.Errorf("metered %d / %d flops for GradientT / Divergence, want %d / %d", f1-f0, f2-f1, wantGT, wantDv)
	}
}

// The ns/pressure.eapply timer counts every E application once a registry is
// attached and costs nothing when none is.
func TestEApplyTimer(t *testing.T) {
	s := eApplySolver(t, eApplyCases[0].build(t))
	np := s.M.K * s.npp
	p, out := normalVec(rand.New(rand.NewSource(1)), np), make([]float64, np)
	s.applyE(out, p) // no registry: nil timer
	reg := instrument.New()
	s.AttachMetrics(reg)
	for i := 0; i < 3; i++ {
		s.applyE(out, p)
	}
	tm := reg.Timer("ns/pressure.eapply")
	if tm.Count() != 3 || tm.Total() <= 0 {
		t.Errorf("ns/pressure.eapply: %d calls, %v total, want 3 calls and a positive total", tm.Count(), tm.Total())
	}
}

// randomRuns cuts the solver's owned elements into runs of random lengths,
// each inside a stretch mesh.Runs may join (consecutive global ids, one
// metric-pair mask) but with no cap on its points.
func randomRuns(rng *rand.Rand, s *Solver) []mesh.Run {
	var runs []mesh.Run
	for li, e := range s.elems {
		if k := len(runs) - 1; k >= 0 && rng.Intn(4) > 0 {
			if r := &runs[k]; e == r.E+r.N && s.M.RXPairs[e] == s.M.RXPairs[r.E] {
				r.N++
				continue
			}
		}
		runs = append(runs, mesh.Run{L: li, E: e, N: 1})
	}
	return runs
}

// TestRunKernelsAreTheirElementsBitwise holds the step's run loops of
// GradientT, Divergence, toContravariant and convect to their one-element
// runs, bit for bit, over random splits of the owned elements on the three
// metric-pair mixes (every element undeformed, mixed, every one deformed).
// Seeded, so a failure repeats.
func TestRunKernelsAreTheirElementsBitwise(t *testing.T) {
	for _, tc := range eApplyCases {
		s := eApplySolver(t, tc.build(t))
		one := make([]mesh.Run, len(s.elems))
		for li, e := range s.elems {
			one[li] = mesh.Run{L: li, E: e, N: 1}
		}
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, v := normalVec(rng, len(s.P)), normalVec(rng, s.n)
			u, _ := velocityVecs(rng, s)
			apply := func(runs []mesh.Run) map[string][]float64 {
				s.setRuns(runs)
				out := map[string][]float64{}
				gt := make([][]float64, s.dim)
				for c := range gt {
					gt[c] = make([]float64, s.n)
				}
				s.GradientT(gt, p)
				div := make([]float64, len(s.P))
				s.Divergence(div, u)
				var chat [3][]float64
				for c := 0; c < s.dim; c++ {
					chat[c] = append([]float64(nil), u[c]...)
				}
				s.toContravariant(chat)
				conv := make([]float64, s.n)
				s.convect(conv, v, chat)
				for c := 0; c < s.dim; c++ {
					out[fmt.Sprintf("GradientT[%d]", c)] = gt[c]
					out[fmt.Sprintf("toContravariant[%d]", c)] = chat[c]
				}
				out["Divergence"], out["convect"] = div, conv
				return out
			}
			want := apply(one)
			runs := randomRuns(rng, s)
			got := apply(runs)
			for name, w := range want {
				for i := range w {
					if math.Float64bits(got[name][i]) != math.Float64bits(w[i]) {
						t.Fatalf("%s seed %d %s, %d runs: entry %d is %g, element by element %g",
							tc.name, seed, name, len(runs), i, got[name][i], w[i])
					}
				}
			}
		}
	}
}
