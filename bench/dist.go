package main

// dist.go runs the distributed stepper (parrun.NavierStokes on the
// simulated ASCI-Red) for the dist_p64 workload, and as the short standard
// run from which every other workload's traced pass takes the comm, gs,
// coarse, parrun and partition figures.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/flowcases"
	"repro/internal/gs"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/parrun"
	"repro/internal/partition"
)

// distCase is the distributed channel: kx×ky elements, one per rank.
type distCase struct {
	kx, ky, n, p int
	in           channelInputs
}

func (c distCase) spec() (ns.Config, flowcases.InitFunc, error) {
	cfg, init, _, err := channelSpec(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: c.n, KX: c.kx, KY: c.ky, Dt: 0.003125, Order: 2,
	}, c.in)
	return cfg, init, err
}

// distRun is one parrun.NavierStokes call observed from outside.
type distRun struct {
	res    *parrun.NSResult
	reg    *instrument.Registry
	start  time.Time       // of the call
	setup  time.Duration   // call → first OnStep: partition, gs setup, XXT factor, first cold step
	stamps []time.Duration // OnStep offsets from the call, one per step
	wall   time.Duration
}

// runDist advances the case by steps steps. With a track it attaches a
// registry and records one span per step from the OnStep callback, which
// is the only boundary the API exposes (the first span therefore holds the
// whole set-up and the first cold step).
func runDist(c distCase, steps int, t *track) (*distRun, error) {
	cfg, init, err := c.spec()
	if err != nil {
		return nil, err
	}
	r := &distRun{}
	nscfg := parrun.NSConfig{P: c.p, Steps: steps, Init: init}
	if t != nil {
		r.reg = instrument.New()
		nscfg.Registry = r.reg
	}
	t0 := time.Now()
	t.begin("parrun/setup+step1")
	nscfg.OnStep = func(st ns.StepStats, _ float64) {
		r.stamps = append(r.stamps, time.Since(t0))
		t.end(st.Step)
		if st.Step < steps {
			t.begin("parrun/step")
		}
	}
	r.res, err = parrun.NavierStokes(cfg, nscfg)
	r.start, r.wall = t0, time.Since(t0)
	if err != nil {
		return nil, err
	}
	if len(r.stamps) != steps {
		return nil, fmt.Errorf("parrun reported %d steps, want %d", len(r.stamps), steps)
	}
	r.setup = r.stamps[0]
	return r, nil
}

// at is the time of an offset from the call.
func (r *distRun) at(offset time.Duration) time.Time { return r.start.Add(offset) }

// setupInterval is call → first OnStep.
func (r *distRun) setupInterval() interval { return interval{r.start, r.at(r.setup)} }

// hostStepMS returns the host wall of steps [from, len) from the OnStep
// timestamps.
func (r *distRun) hostStepMS(from int) []float64 {
	var out []float64
	for i := from; i < len(r.stamps); i++ {
		if i == 0 {
			continue
		}
		out = append(out, ms(r.stamps[i]-r.stamps[i-1]))
	}
	return out
}

// serialTwin steps the serial ns.Solver through the same case and returns
// it with the largest velocity difference to the distributed fields.
func serialTwin(c distCase, plan stepPlan, res *parrun.NSResult, t *track) (*ns.Solver, *stepWindow, float64, error) {
	cfg, init, err := c.spec()
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := ns.New(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	s.SetVelocity(init)
	w := &stepWindow{}
	if err := warmUp(s, plan, w); err != nil {
		return nil, nil, 0, err
	}
	if err := timedWindow(s, plan, w, t); err != nil {
		return nil, nil, 0, err
	}
	var maxDiff float64
	for comp := 0; comp < s.Dim(); comp++ {
		for i, v := range s.Velocity(comp) {
			if d := math.Abs(v - res.U[comp][i]); d > maxDiff || math.IsNaN(d) {
				maxDiff = d
			}
		}
	}
	return s, w, maxDiff, nil
}

// distLayers fills the comm, gs, coarse, parrun and partition metrics from
// a traced distributed run: the whole run for per-step totals (run totals ÷
// steps), steps [warm, steps) for the steady-state figures.
func distLayers(layers map[string]float64, c distCase, r *distRun, warm int, maxDiff float64, b rungBudget, t *track) error {
	res, reg := r.res, r.reg
	steps := float64(len(res.StepStats))
	p := float64(res.P)
	layers["comm.msgs_per_step"] = float64(res.TotalMsgs) / steps
	layers["comm.bytes_per_step"] = float64(res.TotalBytes) / steps
	layers["gs.exchanges_per_step"] = float64(reg.Timer("gs/exchange.vtime").Count()) / p / steps
	layers["gs.exchange_virtual_us_p50"] = reg.Histogram("gs/exchange.vtime.hist").Quantile(0.5) * 1e6
	layers["coarse.xxt_virtual_ms_per_step"] = reg.Timer("coarse/xxt.vtime").Total().Seconds() / p / steps * 1e3
	if xs := reg.Timer("coarse/xxt.solve"); xs.Count() > 0 {
		layers["coarse.xxt_host_us"] = us(xs.Total()) / float64(xs.Count())
	}
	layers["comm.allreduce_virtual_share"] = reg.Timer("comm/allreduce.vtime").Total().Seconds() / p / res.VirtualSeconds * 100
	vlat := reg.Histogram("comm/send.vlat")
	layers["comm.send_vlat_us_p50"] = vlat.Quantile(0.5) * 1e6
	layers["comm.send_vlat_us_p99"] = vlat.Quantile(0.99) * 1e6
	layers["parrun.virtual_step_ms"] = mean(res.StepVirtual[warm:]) * 1e3
	layers["parrun.host_step_ms_p50"] = median(r.hostStepMS(warm))
	for i, name := range []string{"convect", "viscous", "pressure", "filter"} {
		layers["parrun.virtual_"+name+"_ms_per_step"] = res.PhaseVirtual[i] / steps * 1e3
	}
	layers["parrun.host_us_per_msg"] = us(r.wall-r.setup) / float64(res.TotalMsgs)
	var nonconv int
	for _, st := range res.StepStats[warm:] {
		if !st.ViscousConverged {
			nonconv++
		}
	}
	layers["parrun.viscous_nonconverged_steps"] = float64(nonconv)
	layers["parrun.serial_maxdiff"] = maxDiff
	layers["partition.cut_edges"] = float64(res.CutEdges)

	// partition: recursive spectral bisection of the element graph.
	cfg, _, err := c.spec()
	if err != nil {
		return err
	}
	adj := cfg.Mesh.Adj
	t.span("ladder/partition.rsb", 0, func() {
		samples := make([]float64, 3)
		for i := range samples {
			t0 := time.Now()
			part := partition.RSB(adj, res.P)
			samples[i] = time.Since(t0).Seconds()
			sink += float64(part[len(part)-1])
		}
		layers["partition.rsb_s"] = median(samples)
	})

	// comm: scalar allreduces on a fresh network of the same machine, host
	// and virtual cost per call.
	const calls = 1000
	t.span("ladder/comm.allreduce", 0, func() {
		net := comm.NewNetwork(comm.ASCIRed(res.P))
		t0 := time.Now()
		ranks := net.Run(func(rk *comm.Rank) {
			v := float64(rk.ID)
			for i := 0; i < calls; i++ {
				v = rk.AllreduceScalar(v, comm.OpMax)
			}
		})
		layers["comm.allreduce_host_us"] = us(time.Since(t0)) / calls
		layers["comm.allreduce_virtual_us"] = comm.MaxTime(ranks) / calls * 1e6
	})

	// gs: the distributed gather–scatter on the same mesh and partition,
	// host time per collective Apply (set-up excluded by a barrier).
	t.span("ladder/gs.par_apply", 0, func() {
		m := cfg.Mesh
		part := partition.RSB(adj, res.P)
		gids := make([][]int64, res.P)
		for e, q := range part {
			gids[q] = append(gids[q], m.GID[e*m.Np:(e+1)*m.Np]...)
		}
		applies := int(b.batch/(200*time.Microsecond)) + 1
		starts := make([]time.Time, res.P)
		net := comm.NewNetwork(comm.ASCIRed(res.P))
		net.Run(func(rk *comm.Rank) {
			h := gs.ParInit(rk, gids[rk.ID])
			u := make([]float64, len(gids[rk.ID]))
			rk.Barrier()
			starts[rk.ID] = time.Now()
			for i := 0; i < applies; i++ {
				h.Apply(u, gs.Sum)
			}
		})
		first := starts[0]
		for _, s := range starts {
			if s.Before(first) {
				first = s
			}
		}
		layers["gs.par_apply_host_us"] = us(time.Since(first)) / float64(applies)
	})
	return nil
}
