package main

import (
	"fmt"
	"math"

	"repro/internal/flowcases"
)

// fig3 reproduces the shear-layer roll-up study: stability and vorticity
// extrema for the (K, N, α) pairings of Fig. 3, for the "thick" (ρ=30,
// Re=1e5) and "thin" (ρ=100, Re=4e4) layers.
func fig3(quick bool) error {
	type cse struct {
		label   string
		nel, n  int
		rho, re float64
		alpha   float64
	}
	// Our collocation-form OIFS convection is less robust than the paper's
	// production operator at N=16 with convective CFL > 1 (see
	// EXPERIMENTS.md); the filter-stabilization comparison is therefore run
	// on the N=8 element family where the paper's qualitative result —
	// unfiltered blow-up vs filtered survival at identical resolution —
	// reproduces cleanly.
	var cases []cse
	// t = 2.0 at dt = 0.002: the roll-up window and as long again after
	// it, so a run that only starts to fail late in the roll-up, as the
	// default shear layer (row (d)) does at step 541, is reported as failed.
	steps := 1000
	if quick {
		steps = 320
		cases = []cse{
			{"(a) thick, n=128, no filter", 16, 8, 30, 1e5, 0},
			{"(b) thick, n=128, alpha=0.3", 16, 8, 30, 1e5, 0.3},
			{"(d) thick, n=64,  alpha=0.3", 8, 8, 30, 1e5, 0.3},
		}
	} else {
		cases = []cse{
			{"(a) thick, n=128, no filter ", 16, 8, 30, 1e5, 0},
			{"(b) thick, n=128, alpha=0.3 ", 16, 8, 30, 1e5, 0.3},
			{"(c) thick, n=128, alpha=1.0 ", 16, 8, 30, 1e5, 1.0},
			{"(d) thick, n=64,  alpha=0.3 ", 8, 8, 30, 1e5, 0.3},
			{"(e) thin,  n=128, alpha=0.3 ", 16, 8, 100, 4e4, 0.3},
		}
	}
	fmt.Println("Fig 3: shear layer roll-up, dt=0.002 (series: survival + vorticity extrema)")
	fmt.Printf("%-30s %8s %10s %10s %10s\n", "case", "steps", "w_min", "w_max", "KE/KE0")
	for _, c := range cases {
		s, err := flowcases.ShearLayer(flowcases.ShearLayerConfig{
			Nel: c.nel, N: c.n, Rho: c.rho, Re: c.re, Dt: 0.002, Alpha: c.alpha,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		ke0 := flowcases.KineticEnergy(s)
		survived := steps
		for i := 0; i < steps; i++ {
			if _, err := s.Step(); err != nil {
				survived = i
				break
			}
			if ke := flowcases.KineticEnergy(s); math.IsNaN(ke) || ke > 10*ke0 {
				survived = i
				break
			}
		}
		if survived < steps {
			fmt.Printf("%-30s %7d* %10s %10s %10s   (*blow-up)\n", c.label, survived, "-", "-", "-")
		} else {
			lo, hi := flowcases.FieldRange(flowcases.Vorticity(s))
			fmt.Printf("%-30s %8d %10.1f %10.1f %10.4f\n",
				c.label, survived, lo, hi, flowcases.KineticEnergy(s)/ke0)
		}
	}
	fmt.Println("\nExpected shape (paper): the unfiltered case blows up during roll-up;")
	fmt.Println("alpha=0.3 is stable with vorticity extrema near the initial +-rho;")
	fmt.Println("alpha=1 is stable but more dissipative (larger KE drop); the thin")
	fmt.Println("layer needs the higher order at fixed resolution.")
	return nil
}
