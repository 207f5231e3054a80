package repro_test

// kernels_golden_test.go pins what the flow-case goldens do not reach: the
// gradient (the step never calls it; flowcases.Vorticity and the benchmark's
// sem.grad rung do), the filter and the Helmholtz operator as kernels on
// deformed meshes, bit for bit, and the analytic flop meters exactly —
// sem.flops_per_helmholtz is an exact benchmark metric and the virtual clock
// prices every charged flop by its class.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/flowcases"
	"repro/internal/mesh"
	"repro/internal/ns"
	"repro/internal/sem"
)

type kernelCase struct {
	name string
	spec *mesh.Spec
	n    int

	// Digests of Grad (every component), of FilterElement on every element
	// and of Helmholtz(h1 = 0.7, h2 = 1.3), each of the field kernelField.
	grad, filter, helmholtz string
	// Flop meter advance of one Helmholtz and one Grad.
	helmholtzFlops, gradFlops int64
}

var kernelCases = []kernelCase{
	{
		name:           "cylinder O-grid (2-D, deformed)",
		spec:           mesh.CylinderOGrid(mesh.CylinderOGridSpec{NTheta: 8, NLayer: 2, R: 0.5, H: 2, WallRatio: 4}),
		n:              7,
		grad:           "c1c6dfa7b1a3b9e8675679615b560aba352e8174f2f31e8aec41eef3ad217161",
		filter:         "a4fa116b255be7b07225810e52a296f775b965150aa283fa2a993879fba92f74",
		helmholtz:      "1b7ea002febb16f5b2216e2ae1d533cc343cf80ead20cfe8c763c892fa131ff1",
		helmholtzFlops: 76800, gradFlops: 38912,
	},
	{
		name: "hemisphere box (3-D, deformed)",
		spec: mesh.HemisphereBox(mesh.HemisphereBoxSpec{Nx: 3, Ny: 2, Nz: 2, Lx: 3, Ly: 2, Lz: 1,
			Cx: 1.5, Cy: 1, Radius: 0.4, Height: 0.2, WallRatio: 3}),
		n:              5,
		grad:           "64393c721089f480fd24c6343300782dca499e934fcfdde610eb6312b5f666ab",
		filter:         "bc80e2b27a44128301ba85d5afb763802066fff5b592843d5353cb87093660ab",
		helmholtz:      "5bb5361356df6b2e90f9ff49e4c4e91453a32ea37c0eee2c63fe4435db68fe9b",
		helmholtzFlops: 241056, gradFlops: 132192,
	},
}

// kernelField is a smooth field with no symmetry the kernels could hide.
func kernelField(m *mesh.Mesh) []float64 {
	u := make([]float64, m.K*m.Np)
	for i := range u {
		u[i] = math.Sin(1.3*m.X[i]+0.2)*math.Cos(0.7*m.Y[i]) + 0.5*m.Zc[i]*m.X[i]
	}
	return u
}

func TestKernelDigestsAndFlops(t *testing.T) {
	for _, kc := range kernelCases {
		t.Run(kc.name, func(t *testing.T) {
			m, err := mesh.Discretize(kc.spec, kc.n)
			if err != nil {
				t.Fatal(err)
			}
			d := sem.New(m, m.BoundaryMask(nil))
			u := kernelField(m)

			grads := make([][]float64, m.Dim)
			for c := range grads {
				grads[c] = make([]float64, len(u))
			}
			d.ResetFlops()
			d.Grad(grads, u)
			if got := d.Flops(); got != kc.gradFlops {
				t.Errorf("Grad charged %d flops, want %d", got, kc.gradFlops)
			}

			filtered := append([]float64(nil), u...)
			f, s := sem.NewFilter(m, 0.3), make([]float64, d.ElemScratchLen())
			for e := 0; e < m.K; e++ {
				d.FilterElement(f, filtered[e*m.Np:(e+1)*m.Np], s)
			}

			hu := make([]float64, len(u))
			d.ResetFlops()
			d.Helmholtz(hu, u, 0.7, 1.3)
			if got := d.Flops(); got != kc.helmholtzFlops {
				t.Errorf("Helmholtz charged %d flops, want %d", got, kc.helmholtzFlops)
			}

			if runtime.GOARCH != "amd64" {
				t.Skip("digests were generated on amd64; other architectures may contract a*b+c into FMA")
			}
			checkDigest(t, "Grad", kc.grad, grads...)
			checkDigest(t, "FilterElement", kc.filter, filtered)
			checkDigest(t, "Helmholtz", kc.helmholtz, hu)
		})
	}
}

// TestStepFlopsByClass pins one step's charged flops, matrix–matrix and
// vector, and the fields it leaves, on the 2-D channel and the 3-D hairpin
// box of the goldens; the hairpin once more under the Schwarz preconditioner,
// whose 3-D fast-diagonalization solves no other golden runs.
//
// The hairpin3d-schwarz charge moved (mm 283 834 368 → 280 556 352, vec
// 45 594 560 → 45 098 716) when the step's inner products were summed in
// la's 32-lane order: its cold pressure solve converges in 79 iterations
// where the sequential sums took 80, and the difference is one iteration's
// E apply, preconditioner and inner products. The other two cases' charges
// held; every case's fields digest moved.
func TestStepFlopsByClass(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("iteration counts, and with them the charges, were taken on amd64")
	}
	hairpin := func(pre string) func() (*ns.Solver, error) {
		return func() (*ns.Solver, error) {
			return flowcases.Hairpin(flowcases.HairpinConfig{Nx: 6, Ny: 4, Nz: 3, N: 5, Re: 850, Dt: 0.05,
				FilterA: 0.1, Workers: 1, Precond: pre})
		}
	}
	cases := []struct {
		name    string
		build   func() (*ns.Solver, error)
		mm, vec int64
		fields  string
	}{
		{"channel2d", func() (*ns.Solver, error) {
			s, _, err := flowcases.Channel(goldenChannel)
			return s, err
		}, 8426100, 1248644, "612d28274f0fc0dcf352cd36e074d1de9d64efe5aefb75c97c888459e8d93545"},
		{"hairpin3d", hairpin(ns.PrecondChebJacobi), 471564288, 67931136,
			"00e8eec480f852383806ce5e054cb55378bf145eb6e45ce069c5ca6a5e7054e4"},
		{"hairpin3d-schwarz", hairpin(ns.PrecondSchwarz), 280556352, 45098716,
			"86c4654eee0afad10fd3a08e44858ddbdcbd9c9bcf08d537ac1d6405edbb1f8d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			mm0, vec0 := s.ChargedFlops()
			stepN(t, s, 1)
			mm1, vec1 := s.ChargedFlops()
			if mm, vec := mm1-mm0, vec1-vec0; mm != c.mm || vec != c.vec {
				t.Errorf("one step charged mm %d, vec %d; want mm %d, vec %d", mm, vec, c.mm, c.vec)
			}
			fields := [][]float64{s.Pressure()}
			for k := 0; k < s.Dim(); k++ {
				fields = append(fields, s.Velocity(k))
			}
			checkDigest(t, "fields after one step", c.fields, fields...)
		})
	}
}
