package coarse_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/coarse"
	"repro/internal/comm"
	"repro/internal/fem"
	"repro/internal/flowcases"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/ns"
)

// workloadCoarse returns the three workloads' pressure solvers' vertex
// problems: the channel at K = 5×3, N = 9 (NVert 20), the channel at 16×4,
// N = 5 (NVert 80), and the 3-D hairpin box at 6×4×3, N = 5 (NVert 140).
func workloadCoarse(t testing.TB) map[string]*ns.Solver {
	t.Helper()
	out := map[string]*ns.Solver{}
	add := func(name string, cfg ns.Config, err error) {
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers, cfg.PressurePrecond = 1, ns.PrecondSchwarz
		s, err := ns.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(s.Close)
		out[name] = s
	}
	cfg, _, _, err := flowcases.ChannelSpec(flowcases.ChannelConfig{Re: 7500, Alpha: 1, N: 9, KX: 5, KY: 3, Dt: 0.003125, Order: 2})
	add("channel2d", cfg, err)
	cfg, _, _, err = flowcases.ChannelSpec(flowcases.ChannelConfig{Re: 7500, Alpha: 1, N: 5, Dt: 0.003125, Order: 2, KX: 16, KY: 4})
	add("dist_p64", cfg, err)
	cfg, _, err = flowcases.HairpinSpec(flowcases.HairpinConfig{Nx: 6, Ny: 4, Nz: 3, N: 5, Re: 1600, Dt: 0.05})
	add("hairpin3d", cfg, err)
	return out
}

// pinnedA0 is the pressure preconditioner's A₀, assembled here from the
// mesh: the vertex-mesh Laplacian with vertex 0 pinned by an identity row.
func pinnedA0(m *mesh.Mesh) *la.CSR {
	a0 := fem.AssembleCoarse(m)
	b := la.NewCOO(m.NVert, m.NVert)
	b.Add(0, 0, 1)
	for i := 1; i < m.NVert; i++ {
		for q := a0.Ptr[i]; q < a0.Ptr[i+1]; q++ {
			if j := a0.Col[q]; j != 0 {
				b.Add(i, j, a0.Val[q])
			}
		}
	}
	return b.ToCSR()
}

// TestCoarseOnWorkloadA0: on each workload's real A₀ the solver's factor
// solves serially bitwise as a nested-dissection-permuted la.SparseChol
// does, and its natural-order distributed solve over P ∈ {1, 2, 3, 4, 5, 8}
// ranks, each rank holding a share of the right-hand side, leaves the same
// solution on every rank, within 1e-12 (relative) of that. Each rank's
// SolveWork lists the columns a scan of X finds for its block, and a
// steady-state block solve allocates nothing.
func TestCoarseOnWorkloadA0(t *testing.T) {
	const allocRuns = 20
	nverts := map[string]int{"channel2d": 20, "dist_p64": 80, "hairpin3d": 140}
	for name, sv := range workloadCoarse(t) {
		fac := sv.CoarseFactor()
		a := pinnedA0(sv.M)
		n := a.Rows
		if n != nverts[name] || fac.N != n {
			t.Fatalf("%s: NVert %d, factor order %d, want %d", name, n, fac.N, nverts[name])
		}
		adj := make([][]int, n)
		for i := range adj {
			for q := a.Ptr[i]; q < a.Ptr[i+1]; q++ {
				if j := a.Col[q]; j != i {
					adj[i] = append(adj[i], j)
				}
			}
		}
		perm := la.NDPermGraph(adj)
		chol, err := la.FactorSparseChol(a.Permute(perm))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		bp := make([]float64, n)
		for k, old := range perm {
			bp[k] = b[old]
		}
		chol.Solve(bp, bp)
		want := make([]float64, n)
		for k, old := range perm {
			want[old] = bp[k]
		}

		got := make([]float64, n)
		if flops := fac.Solve(got, b, make([]float64, n)); flops != int64(4*chol.NNZ()) {
			t.Errorf("%s: serial solve charged %d flops, want 4·nnz(L) = %d", name, flops, 4*chol.NNZ())
		}
		var scale float64
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: serial solve [%d] = %v, want %v (bitwise)", name, i, got[i], want[i])
			}
			scale = max(scale, math.Abs(want[i]))
		}

		for _, p := range []int{1, 2, 3, 4, 5, 8} {
			xxt := fac.Distribute(p)
			x := make([][]float64, p)
			errs := make([]error, p)
			var allocs float64
			comm.NewNetwork(comm.ASCIRed(p)).Run(func(r *comm.Rank) {
				w := xxt.NewSolveWork(r)
				errs[r.ID] = coarse.CheckColumns(xxt, r.ID, w)
				// Rank q holds the entries i ≡ q (mod P): the ranks' sum is b.
				r0 := make([]float64, n)
				for i := r.ID; i < n; i += p {
					r0[i] = b[i]
				}
				x[r.ID] = make([]float64, n)
				xxt.SolveNatural(r, x[r.ID], r0, w)
				// Every rank solves its block as often as AllocsPerRun calls
				// rank 0's: once to warm up, then allocRuns times.
				bl := b[xxt.BlockLo[r.ID]:xxt.BlockHi[r.ID]]
				if r.ID == 0 {
					allocs = testing.AllocsPerRun(allocRuns, func() { xxt.SolveOn(r, bl, w) })
				} else {
					for range allocRuns + 1 {
						xxt.SolveOn(r, bl, w)
					}
				}
			})
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s P=%d: %v", name, p, err)
				}
			}
			if allocs != 0 {
				t.Errorf("%s P=%d: a steady-state block solve allocated %v times", name, p, allocs)
			}
			for q := range x {
				for i := range want {
					if d := math.Abs(x[q][i] - want[i]); d > 1e-12*scale {
						t.Fatalf("%s P=%d rank %d: distributed solve [%d] off by %.3g (relative %.3g)", name, p, q, i, d, d/scale)
					}
					if x[q][i] != x[0][i] {
						t.Fatalf("%s P=%d: ranks %d and 0 disagree at [%d]: %v, %v", name, p, q, i, x[q][i], x[0][i])
					}
				}
			}
		}
	}
}

// BenchmarkCoarseSolve times one coarse solve on each workload's A₀ both
// ways the factor offers: the serial machine's two triangular solves with L
// (Solve), and the distributed product X Xᵀ b on one rank (Dist.SolveOn at
// P = 1). Run with
// go test -run '^$' -bench CoarseSolve ./internal/coarse.
func BenchmarkCoarseSolve(b *testing.B) {
	solvers := workloadCoarse(b)
	for _, name := range []string{"channel2d", "dist_p64", "hairpin3d"} {
		fac := solvers[name].CoarseFactor()
		n := fac.N
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i%7) - 3
		}
		b.Run(name+"/L", func(b *testing.B) {
			x, rp := make([]float64, n), make([]float64, n)
			var flops int64
			for range b.N {
				flops = fac.Solve(x, rhs, rp)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			b.ReportMetric(float64(flops)/4, "nnz")
		})
		b.Run(name+"/X-P1", func(b *testing.B) {
			xxt := fac.Distribute(1)
			comm.NewNetwork(comm.ASCIRed(1)).Run(func(r *comm.Rank) {
				w := xxt.NewSolveWork(r)
				b.ResetTimer()
				for range b.N {
					xxt.SolveOn(r, rhs, w)
				}
			})
			b.StopTimer()
			// Xᵀ b and X z: two flops per stored entry each.
			flops := 4 * float64(xxt.NNZ())
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			b.ReportMetric(float64(xxt.NNZ()), "nnz")
		})
	}
}
