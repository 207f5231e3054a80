package main

import (
	"fmt"

	"repro/internal/flowcases"
)

// fig4 reproduces the projection study: pressure iteration count and
// pre-iteration residual per time step, with (L=26) and without (L=0)
// projection onto previous solutions, on a buoyancy-driven convection cell
// (the Fig. 4 spherical-convection stand-in).
func fig4(quick bool) error {
	nel, n, steps := 6, 7, 40
	if quick {
		nel, n, steps = 4, 5, 20
	}
	run := func(l int) (iters []int, res0 []float64, err error) {
		s, err := flowcases.Convection(flowcases.ConvectionConfig{
			Nel: nel, N: n, Ra: 1e4, Dt: 0.002, ProjectionL: l,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("convection L=%d: %w", l, err)
		}
		for i := 0; i < steps; i++ {
			st, err := s.Step()
			if err != nil {
				return nil, nil, fmt.Errorf("convection L=%d, step %d: %w", l, i+1, err)
			}
			iters = append(iters, st.PressureIters)
			res0 = append(res0, st.PressureRes0)
		}
		return iters, res0, nil
	}
	it26, r26, err := run(26)
	if err != nil {
		return err
	}
	it0, r0, err := run(0)
	if err != nil {
		return err
	}
	fmt.Println("Fig 4: pressure iterations and pre-iteration residual per step")
	fmt.Printf("%6s | %10s %12s | %10s %12s\n", "step", "iters L=26", "res0 L=26", "iters L=0", "res0 L=0")
	for i := range it26 {
		fmt.Printf("%6d | %10d %12.3e | %10d %12.3e\n", i+1, it26[i], r26[i], it0[i], r0[i])
	}
	var s26, s0 int
	for i := range it26 {
		s26 += it26[i]
		s0 += it0[i]
	}
	fmt.Printf("\ntotal iterations: L=26: %d, L=0: %d (reduction factor %.1f)\n",
		s26, s0, float64(s0)/float64(s26))
	var l26, l0 int
	for i := steps - 5; i < steps; i++ {
		l26 += it26[i]
		l0 += it0[i]
	}
	fmt.Printf("settled (last five steps) reduction factor: %.1f\n", float64(l0)/float64(l26))
	fmt.Println("Expected shape (paper): projection cuts the iteration count by")
	fmt.Println("2.5-5x once the basis fills, and the residual before iterating")
	fmt.Println("drops by orders of magnitude.")
	return nil
}
