package parrun

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/flowcases"
	"repro/internal/ns"
)

// TestNavierStokesChannelPeriodicMatchesSerial: the paper's channel case on
// the periodic mesh, distributed over several rank counts, must agree with
// the serial solver. This is the hard regression for two subtle failure
// modes fixed together:
//
//   - the component-0 viscous Helmholtz solve starts so close to its
//     solution that the relative tolerance is below machine precision; CG
//     then idles at the roundoff floor where a single near-breakdown step
//     (tiny positive p·q, huge alpha) can catapult the iterate O(1e-3) away.
//     Reduction-order roundoff decides whether that step happens, so before
//     CG returned its best iterate the distributed fields disagreed with
//     serial by ~1e-2 at P >= 4 while P <= 2 happened to match;
//   - map-iteration-order nondeterminism (mesh adjacency, XXT owned-column
//     accumulation) made the failure appear and vanish between processes.
func TestNavierStokesChannelPeriodicMatchesSerial(t *testing.T) {
	cfg, init, _, err := flowcases.ChannelSpec(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 5, KX: 5, KY: 3, Dt: 0.003125, Order: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	ser := runSerial(t, cfg, init, steps)
	for _, p := range []int{1, 2, 4, 8} {
		res, err := NavierStokes(cfg, NSConfig{P: p, Steps: steps, Init: init})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		const tol = 1e-8
		for c := 0; c < cfg.Mesh.Dim; c++ {
			if d := maxAbsDiff(res.U[c], ser.Velocity(c)); d > tol {
				t.Errorf("P=%d: velocity component %d differs from serial by %g > %g", p, c, d, tol)
			}
		}
		if d := maxAbsDiff(res.Pressure, ser.Pressure()); d > tol {
			t.Errorf("P=%d: pressure differs from serial by %g > %g", p, d, tol)
		}
		if math.Abs(res.Time-ser.Time()) > 1e-12 {
			t.Errorf("P=%d: time %g, serial %g", p, res.Time, ser.Time())
		}
	}
}

// One application of the Schwarz preconditioner (subdomain solves with their
// two border exchanges, vertex solve by XXT) on P ranks is the serial
// application: the extruded layers cross rank boundaries and the periodic
// seam through the same gather–scatter as the velocity, on the 2-D periodic
// channel and on the 3-D hairpin box with its open boundary.
func TestSchwarzApplicationMatchesSerialOnRanks(t *testing.T) {
	channel, _, _, err := flowcases.ChannelSpec(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 5, KX: 5, KY: 3, Dt: 0.003125, Order: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hairpin, _, err := flowcases.HairpinSpec(flowcases.HairpinConfig{
		Nx: 4, Ny: 3, Nz: 2, N: 4, Re: 850, Dt: 0.05, FilterA: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]ns.Config{"channel": channel, "hairpin": hairpin} {
		cfg.PressurePrecond = ns.PrecondSchwarz
		ser, err := ns.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		npp := ser.Npp()
		r := make([]float64, cfg.Mesh.K*npp)
		rng := rand.New(rand.NewSource(19))
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		want := make([]float64, len(r))
		ser.ApplyPrecond(want, r)
		ser.Close()
		var scale float64
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for _, p := range []int{1, 3, 8} {
			st, err := Start(cfg, NSConfig{P: p})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			got := make([]float64, len(r))
			st.net.Run(func(rk *comm.Rank) {
				rs := &st.rs[rk.ID]
				mine := rs.mach.mine
				in, out := make([]float64, len(mine)*npp), make([]float64, len(mine)*npp)
				for li, e := range mine {
					copy(in[li*npp:(li+1)*npp], r[e*npp:(e+1)*npp])
				}
				rs.f.ApplyPrecond(out, in)
				for li, e := range mine {
					copy(got[e*npp:(e+1)*npp], out[li*npp:(li+1)*npp])
				}
			})
			d := maxAbsDiff(got, want)
			t.Logf("%s P=%d: max difference from serial %.2g (scale %.2g)", name, p, d, scale)
			if d > 1e-12*scale {
				t.Errorf("%s P=%d: application differs from serial by %g (scale %g)", name, p, d, scale)
			}
		}
	}
}
