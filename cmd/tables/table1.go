package main

import (
	"fmt"
	"math"

	"repro/internal/flowcases"
	"repro/internal/session"
)

// channelCase is the channel case's physics on the case table's element
// grid.
func channelCase() flowcases.ChannelConfig {
	d, _ := session.Config{Case: "channel"}.Resolve()
	c := session.Channel()
	c.KX, c.KY = d.KX, d.KY
	return c
}

// table1 reproduces the Orr–Sommerfeld convergence study: growth-rate error
// vs polynomial order N (spatial, Δt = 0.003125) and vs Δt for the 2nd- and
// 3rd-order splittings, each with filter strength α = 0 and α = 0.2.
func table1(quick bool) error {
	horizon := 0.5 // measurement window in time units
	orders := []int{7, 9, 11, 13}
	if quick {
		orders = []int{7, 9, 11}
	}

	// A blow-up is a measured outcome (the cell reads "unstable"); a channel
	// that cannot be set up fails the table.
	var setupErr error
	measure := func(n int, dt float64, order int, alpha float64) (relErr float64, blew bool) {
		p := channelCase()
		p.N, p.Dt, p.Order, p.Filter = n, dt, order, alpha
		s, osr, err := flowcases.Channel(p)
		if err != nil {
			setupErr = fmt.Errorf("channel N=%d dt=%g: %w", n, dt, err)
			return math.NaN(), true
		}
		steps := int(math.Round(horizon / dt))
		if steps < 2 {
			steps = 2
		}
		g, err := flowcases.MeasuredGrowthRate(s, steps)
		if err != nil {
			return math.Inf(1), true
		}
		ref := osr.GrowthRate()
		return math.Abs(g-ref) / math.Abs(ref), false
	}

	ch := channelCase() // the spatial study runs the case's Δt and order
	fmt.Printf("Table 1 (spatial): Orr-Sommerfeld growth-rate relative error, K=15, dt=%g\n", ch.Dt)
	fmt.Printf("%4s  %12s  %12s\n", "N", "alpha=0.0", "alpha=0.2")
	for _, n := range orders {
		e0, b0 := measure(n, ch.Dt, ch.Order, 0)
		e2, b2 := measure(n, ch.Dt, ch.Order, 0.2)
		fmt.Printf("%4d  %12s  %12s\n", n, fmtErr(e0, b0), fmtErr(e2, b2))
	}

	fmt.Println("\nTable 1 (temporal): growth-rate relative error vs dt, N=17")
	horizon = 1.0 // longer window for the coarse time steps
	nT := 17
	dts := []float64{0.05, 0.025, 0.0125, 0.00625}
	if quick {
		dts = []float64{0.05, 0.025, 0.0125}
	}
	fmt.Printf("%9s  %12s %12s  %12s %12s\n", "dt",
		"2nd a=0.0", "2nd a=0.2", "3rd a=0.0", "3rd a=0.2")
	for _, dt := range dts {
		var cells [4]string
		i := 0
		for _, order := range []int{2, 3} {
			for _, alpha := range []float64{0, 0.2} {
				e, blew := measure(nT, dt, order, alpha)
				cells[i] = fmtErr(e, blew)
				i++
			}
		}
		fmt.Printf("%9.5f  %12s %12s  %12s %12s\n", dt, cells[0], cells[1], cells[2], cells[3])
	}
	fmt.Println("\nExpected shape: exponential error decay in N; the filter slightly")
	fmt.Println("degrades spatial accuracy but preserves convergence; both temporal")
	fmt.Println("orders converge when filtered (the paper's unfiltered 3rd-order")
	fmt.Println("instability is specific to its splitting and shows as large errors).")
	return setupErr
}

func fmtErr(e float64, blew bool) string {
	if blew || math.IsNaN(e) || math.IsInf(e, 0) || e > 10 {
		return "unstable"
	}
	return fmt.Sprintf("%.6f", e)
}
