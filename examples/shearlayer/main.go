// Shear layer roll-up (Fig. 3 of the paper): a doubly periodic double shear
// layer at Re = 10^5 that is unrunnable without stabilization; the
// Fischer–Mullen filter (α = 0.3) keeps the spectral element method stable
// through roll-up at marginal resolution. Prints vorticity extrema and an
// ASCII vorticity picture as the layers roll up.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/flowcases"
	"repro/internal/ns"
)

func main() {
	nel := flag.Int("nel", 8, "elements per direction")
	n := flag.Int("n", 8, "polynomial order")
	alpha := flag.Float64("alpha", 0.3, "filter strength (0 = unfiltered)")
	steps := flag.Int("steps", 300, "time steps (dt = 0.002)")
	flag.Parse()

	s, err := flowcases.ShearLayer(flowcases.ShearLayerConfig{
		Nel: *nel, N: *n, Rho: 30, Re: 1e5, Dt: 0.002, Alpha: *alpha,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("double shear layer: %dx%d elements, N=%d, alpha=%g\n", *nel, *nel, *n, *alpha)
	for i := 1; i <= *steps; i++ {
		st, err := s.Step()
		if err != nil {
			fmt.Printf("step %d: BLOW UP (%v) — rerun with -alpha 0.3\n", i, err)
			return
		}
		if i%50 == 0 {
			lo, hi := flowcases.FieldRange(flowcases.Vorticity(s))
			fmt.Printf("step %4d  t=%.3f  CFL=%.2f  p-iters=%3d  vorticity [%7.1f, %6.1f]\n",
				i, s.Time(), st.CFL, st.PressureIters, lo, hi)
		}
	}
	fmt.Println("\nvorticity field (coarse ASCII rendering):")
	render(s)
}

// render prints a coarse ASCII picture of the vorticity field.
func render(s *ns.Solver) {
	w := flowcases.Vorticity(s)
	m := s.M
	const nx, ny = 64, 32
	grid := make([]float64, nx*ny)
	count := make([]int, nx*ny)
	for i := range w {
		ix := int(m.X[i] * nx)
		iy := int(m.Y[i] * ny)
		if ix >= nx {
			ix = nx - 1
		}
		if iy >= ny {
			iy = ny - 1
		}
		grid[iy*nx+ix] += w[i]
		count[iy*nx+ix]++
	}
	glyphs := []byte(" .:-=+*#%@")
	lo, hi := flowcases.FieldRange(w)
	span := hi - lo
	if span == 0 {
		span = 1
	}
	for iy := ny - 1; iy >= 0; iy-- {
		line := make([]byte, nx)
		for ix := 0; ix < nx; ix++ {
			v := 0.0
			if c := count[iy*nx+ix]; c > 0 {
				v = grid[iy*nx+ix] / float64(c)
			}
			g := int((v - lo) / span * float64(len(glyphs)-1))
			if g < 0 {
				g = 0
			}
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			line[ix] = glyphs[g]
		}
		fmt.Println(string(line))
	}
}
