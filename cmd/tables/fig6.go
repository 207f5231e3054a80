package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/coarse"
	"repro/internal/comm"
	"repro/internal/instrument"
)

// fig6 reproduces the coarse-grid solver comparison: modeled ASCI-Red solve
// time vs node count P for the XXT solver, redundant banded-LU, and
// row-distributed A⁻¹, plus the 2·latency·log₂P lower bound, for the 63²
// (n=3969) and 127² (n=16129) five-point Poisson problems. The distributed
// algorithms execute for real on the simulated machine (coroutine ranks,
// real messages); times come from the per-rank virtual clocks.
func fig6(quick bool) error {
	grids := [][2]int{{63, 63}, {127, 127}}
	maxP := 2048
	if quick {
		grids = [][2]int{{63, 63}}
		maxP = 256
	}
	for _, g := range grids {
		nx, ny := g[0], g[1]
		n := nx * ny
		fmt.Printf("\nFig 6: coarse-grid solve times, n=%d (%dx%d five-point Poisson)\n", n, nx, ny)
		a, b := coarse.Poisson5pt(nx, ny), normalVec(n, 7)
		fac, err := coarse.NewXXT(a, nx, ny)
		if err != nil {
			return fmt.Errorf("XXT factor, n=%d: %w", n, err)
		}
		fmt.Printf("%6s %12s %12s %12s %12s %10s %10s\n",
			"P", "XXT", "red. LU", "dist. A^-1", "2*lat*logP", "xxt msgs", "xxt KB")
		var lastNNZ, lastCross int
		// Each rank's baseline work, built on its first solve and reused by
		// both baselines at every P; rank 0 alone runs the numeric solves.
		works := make([]*coarse.BaselineWork, maxP)
		work := func(r *comm.Rank) *coarse.BaselineWork {
			if works[r.ID] == nil {
				works[r.ID] = coarse.NewBaselineWork(n, r.ID == 0)
			}
			return works[r.ID]
		}
		for p := 1; p <= maxP; p *= 4 {
			m := comm.ASCIRed(p)
			// XXT, with the measured traffic counters printed per row.
			reg := instrument.New()
			xxt, ranks := xxtRun(fac, p, b, func(net *comm.Network) { net.Attach(reg) })
			tXXT := comm.MaxTime(ranks)
			xxtMsgs := reg.Counter("comm/send.msgs").Value()
			xxtKB := float64(reg.Counter("comm/send.bytes").Value()) / 1024
			lastNNZ, lastCross = xxt.NNZ(), xxt.CrossCount()
			// Redundant banded LU.
			lu, err := coarse.NewRedundantLU(a, nx, p)
			if err != nil {
				return fmt.Errorf("redundant LU at P=%d: %w", p, err)
			}
			ranks = comm.NewNetwork(m).Run(func(r *comm.Rank) {
				lo, hi := r.ID*n/p, (r.ID+1)*n/p
				lu.SolveOn(r, b[lo:hi], work(r))
			})
			tLU := comm.MaxTime(ranks)
			// Distributed inverse.
			di, err := coarse.NewDistInv(a, p)
			if err != nil {
				return fmt.Errorf("distributed inverse at P=%d: %w", p, err)
			}
			ranks = comm.NewNetwork(m).Run(func(r *comm.Rank) {
				lo, hi := r.ID*n/p, (r.ID+1)*n/p
				di.SolveOn(r, b[lo:hi], work(r))
			})
			tDI := comm.MaxTime(ranks)
			fmt.Printf("%6d %12.3e %12.3e %12.3e %12.3e %10d %10.1f\n",
				p, tXXT, tLU, tDI, coarse.LatencyBound(m), xxtMsgs, xxtKB)
		}
		fmt.Printf("(XXT factor at max P: %d nonzeros, %d separator-crossing columns)\n",
			lastNNZ, lastCross)
	}
	fmt.Println("\nExpected shape (paper): XXT time falls until P ~ 16 (n=3969) /")
	fmt.Println("P ~ 256 (n=16129) then tracks the latency bound with a bandwidth")
	fmt.Println("offset; it beats both baselines in the work- and the")
	fmt.Println("communication-dominated regimes.")
	if err := fig6Timeline(); err != nil {
		return err
	}
	return fig6Distributed(quick)
}

// fig6Timeline renders the per-rank message timeline of one XXT coarse
// solve from a real trace: the 63² Poisson problem at P=16, each rank a
// row, time binned into columns ('=' inside the xxt solve span, 'A' inside
// the cross-column allreduce, '.' idle). This is the Perfetto view of the
// coarse solve, reduced to ASCII: compute-dominated ranks show '='; the
// log₂P combine shows up as the shared 'A' band.
func fig6Timeline() error {
	const nx, ny, p = 63, 63, 16
	n := nx * ny
	tr := instrument.NewTracer()
	tr.DisableWallClock()
	fac, err := coarse.NewXXT(coarse.Poisson5pt(nx, ny), nx, ny)
	if err != nil {
		return fmt.Errorf("XXT factor, n=%d: %w", n, err)
	}
	_, ranks := xxtRun(fac, p, normalVec(n, 7), func(net *comm.Network) { net.AttachTracer(tr) })
	maxUS := comm.MaxTime(ranks) * 1e6
	const cols = 64
	rows := make([][]byte, p)
	for q := range rows {
		rows[q] = bytes.Repeat([]byte("."), cols)
	}
	paint := func(row []byte, t0, t1 float64, ch byte, over bool) {
		c0 := int(t0 / maxUS * cols)
		c1 := int(t1 / maxUS * cols)
		if c1 >= cols {
			c1 = cols - 1
		}
		for c := c0; c <= c1; c++ {
			if over || row[c] == '.' {
				row[c] = ch
			}
		}
	}
	for _, ev := range tr.Events() {
		if ev.Pid != instrument.PidMachine || ev.Ph != "X" || ev.Tid >= p {
			continue
		}
		switch ev.Name {
		case "coarse/xxt.solve":
			paint(rows[ev.Tid], ev.Ts, ev.Ts+ev.Dur, '=', false)
		case "allreduce":
			paint(rows[ev.Tid], ev.Ts, ev.Ts+ev.Dur, 'A', true)
		}
	}
	fmt.Printf("\nPer-rank XXT coarse-solve timeline from the trace (n=%d, P=%d,\n", n, p)
	fmt.Printf("%.0f us total; '=' local Xᵀb / Xz work, 'A' cross-column allreduce):\n", maxUS)
	for q := 0; q < p; q++ {
		fmt.Printf("rank %2d |%s|\n", q, rows[q])
	}
	return nil
}

// xxtRun distributes the factor fac over P ranks, permutes b into its
// ordering, and solves once on a fresh ASCI-Red network of P ranks. attach,
// when not nil, wires the caller's registry or tracer into the network
// before the solve; the ranks' solves record and trace through it. It
// returns the distributed factor and the network's ranks.
func xxtRun(fac *coarse.XXT, p int, b []float64, attach func(*comm.Network)) (*coarse.Dist, []*comm.Rank) {
	xxt := fac.Distribute(p)
	bp := make([]float64, len(b))
	for old, v := range b {
		bp[xxt.InvPerm[old]] = v
	}
	net := comm.NewNetwork(comm.ASCIRed(p))
	if attach != nil {
		attach(net)
	}
	ranks := net.Run(func(r *comm.Rank) {
		xxt.SolveOn(r, bp[xxt.BlockLo[r.ID]:xxt.BlockHi[r.ID]], xxt.NewSolveWork(r))
	})
	return xxt, ranks
}

// normalVec returns n standard normal draws from seed: a coarse right-hand
// side.
func normalVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}
