package session

import (
	"testing"

	"repro/internal/flowcases"
)

// TestNamedAppliesAlphaToEveryCase: the filter strength is a parameter every
// named case takes the same way, as it does the preconditioner —
// the convection cell once dropped it and ran unfiltered whatever was asked.
func TestNamedAppliesAlphaToEveryCase(t *testing.T) {
	for _, name := range CaseNames() {
		for _, alpha := range []float64{0, 0.3, 1} {
			cfg, _, err := Config{Case: name, N: 4, Nel: 2, Alpha: alpha}.Problem()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cfg.FilterAlpha != alpha {
				t.Errorf("%s with alpha %g: FilterAlpha %g", name, alpha, cfg.FilterAlpha)
			}
		}
	}
}

// TestNamedCaseTable pins the problem each named case builds to the values
// the shared-memory and distributed drivers hard-coded in two switches before
// the table replaced both, so the one table is checked against them rather
// than trusted.
func TestNamedCaseTable(t *testing.T) {
	p := Config{N: 6, Nel: 3, Alpha: 0.3, Precond: "chebjacobi"}
	named := func(name string) Config { c := p; c.Case = name; return c }
	type scalars struct {
		Re, Dt, Filter, PTol, VTol, SubCFL float64
		Order, ProjL, K, N, PMaxIter       int
	}
	for name, want := range map[string]scalars{
		"shearlayer": {Re: 1e5, Dt: 0.002, Filter: 0.3, PTol: 1e-7, SubCFL: 0.25, ProjL: 20, K: 9, N: 6},
		"channel":    {Re: 7500, Dt: 0.003125, Filter: 0.3, PTol: 1e-9, VTol: 1e-11, Order: 2, ProjL: 20, K: 15, N: 6},
		"convection": {Re: 1, Dt: 0.002, Filter: 0.3, PTol: 1e-8, ProjL: 20, K: 9, N: 6},
		"hairpin":    {Re: 1600, Dt: 0.05, Filter: 0.3, PTol: 1e-6, VTol: 1e-8, ProjL: 20, K: 72, N: 6},
	} {
		cfg, init, err := named(name).Problem()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := scalars{Re: cfg.Re, Dt: cfg.Dt, Filter: cfg.FilterAlpha, PTol: cfg.PTol, VTol: cfg.VTol,
			SubCFL: cfg.SubCFL, Order: cfg.Order, ProjL: cfg.ProjectionL, K: cfg.Mesh.K, N: cfg.Mesh.N,
			PMaxIter: cfg.PMaxIter}
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
		if cfg.PressurePrecond != "chebjacobi" {
			t.Errorf("%s: precond %q not passed through", name, cfg.PressurePrecond)
		}
		// Only the convection cell starts at rest, with a scalar driving it.
		if rest := name == "convection"; (init == nil) != rest || (cfg.Scalar != nil) != rest {
			t.Errorf("%s: init nil %v, scalar %v", name, init == nil, cfg.Scalar != nil)
		}
	}
	if cfg, _, _ := named("convection").Problem(); cfg.Scalar.Buoyancy != [3]float64{0, 1e4, 0} {
		t.Errorf("convection buoyancy %v, want Ra = 1e4 upward", cfg.Scalar.Buoyancy)
	}
	// The parameters that are not defaults: mesh size, projection basis, cap.
	cfg, _, err := Config{Case: "channel", N: 4, KX: 8, KY: 2, ProjectionL: 5, PIters: 8}.Problem()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mesh.K != 16 || cfg.ProjectionL != 5 || cfg.PMaxIter != 8 {
		t.Errorf("channel 8x2 L=5 piters=8: K %d, L %d, cap %d", cfg.Mesh.K, cfg.ProjectionL, cfg.PMaxIter)
	}
	// projection_l -1 turns projection off; 0 keeps the case default.
	for l, want := range map[int]int{-1: 0, 0: 20} {
		cfg, _, err := Config{Case: "channel", N: 4, ProjectionL: l}.Problem()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.ProjectionL != want {
			t.Errorf("channel projection_l=%d: ns.Config.ProjectionL = %d, want %d", l, cfg.ProjectionL, want)
		}
	}
	if _, _, err := named("vortexstreet").Problem(); err == nil {
		t.Error("unknown case accepted")
	}
	if got := CaseNames(); len(got) != 4 || got[0] != "channel" || got[3] != "shearlayer" {
		t.Errorf("CaseNames() = %v", got)
	}
}

// TestProblemDefaultsEachChannelDimension: kx and ky default one at a time
// (5 along, 3 across) — a channel given only kx once had no rows of elements
// and panicked in the pressure preconditioner, and one given only ky ran the
// 5 x 3 mesh.
func TestProblemDefaultsEachChannelDimension(t *testing.T) {
	for _, tc := range []struct {
		kx, ky, k int
	}{{0, 0, 15}, {8, 0, 24}, {0, 2, 10}, {8, 2, 16}} {
		cfg, _, err := Config{Case: "channel", N: 4, KX: tc.kx, KY: tc.ky}.Problem()
		if err != nil {
			t.Fatalf("kx %d, ky %d: %v", tc.kx, tc.ky, err)
		}
		if cfg.Mesh.K != tc.k {
			t.Errorf("kx %d, ky %d: K = %d, want %d", tc.kx, tc.ky, cfg.Mesh.K, tc.k)
		}
	}
}

// BenchmarkCaseSetUp times what a cold job pays before its first step, per
// named case at the order of semflowd's channel jobs (N = 9): the problem
// from its config, the solver (mesh, operators, preconditioner) and the
// initial condition.
func BenchmarkCaseSetUp(b *testing.B) {
	for _, name := range CaseNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				cfg, init, err := Config{Case: name, N: 9}.Problem()
				if err != nil {
					b.Fatal(err)
				}
				s, err := flowcases.NewSolver(cfg, init)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
