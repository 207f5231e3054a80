package parrun

import (
	"bytes"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/mesh"
	"repro/internal/ns"
	"repro/internal/solver"
)

// nsCase is a small enclosed 2D case: all-Dirichlet walls (so the pressure
// deflation path runs), a body force, a filter, and projection — every phase
// of the distributed stepper exercised. The tolerances are tightened well
// below the agreement tolerance so reduction-order differences cannot shift
// iteration counts between P values.
func nsCase(t *testing.T) (ns.Config, func(x, y, z float64) (float64, float64, float64)) {
	t.Helper()
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 2, X0: 0, X1: 1, Y0: 0, Y1: 1})
	m, err := mesh.Discretize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ns.Config{
		Mesh: m, Re: 100, Dt: 0.01, Order: 2,
		FilterAlpha: 0.05, ProjectionL: 8,
		PTol: 1e-12, VTol: 1e-13, PMaxIter: 400,
		DirichletMask: func(x, y, z float64) bool { return true },
		DirichletVal: func(x, y, z, t float64) (float64, float64, float64) {
			return 0, 0, 0
		},
		Forcing: func(x, y, z, t float64) (float64, float64, float64) {
			return 1, 0, 0
		},
	}
	init := func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(math.Pi*x) * math.Sin(math.Pi*y),
			0.2 * math.Sin(2*math.Pi*x) * math.Sin(math.Pi*y), 0
	}
	return cfg, init
}

// runSerial advances the serial reference stepper.
func runSerial(t *testing.T, cfg ns.Config, init func(x, y, z float64) (float64, float64, float64), steps int) *ns.Solver {
	t.Helper()
	s, err := ns.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(init)
	for i := 0; i < steps; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatalf("serial step %d: %v", i+1, err)
		}
	}
	return s
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestNavierStokesMatchesSerial: the distributed stepper's fields must agree
// with the serial solver over 10 steps for power-of-two and odd rank counts.
// P = 1 exercises the rank path with no reduction reordering at all; P > 1
// differs only by allreduce summation order.
func TestNavierStokesMatchesSerial(t *testing.T) {
	cfg, init := nsCase(t)
	const steps = 10
	ser := runSerial(t, cfg, init, steps)
	for _, p := range []int{1, 2, 3, 5, 8} {
		res, err := NavierStokes(cfg, NSConfig{P: p, Steps: steps, Init: init})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if res.P != p || res.RequestedP != p {
			t.Fatalf("P=%d: effective/requested %d/%d", p, res.P, res.RequestedP)
		}
		if !res.Converged {
			t.Fatalf("P=%d: %d steps did not converge", p, res.NonconvergedSteps)
		}
		if len(res.StepStats) != steps {
			t.Fatalf("P=%d: %d step stats, want %d", p, len(res.StepStats), steps)
		}
		tol := 1e-8
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
		if res.VirtualSeconds <= 0 {
			t.Errorf("P=%d: no modeled virtual time", p)
		}
	}
}

// The same agreement on the hairpin box, the 3-D mesh that mixes undeformed
// elements with elements deformed in one direction: the rank bodies run the
// serial loops' GradTElem/DivElem on their own elements, so P = 1 and an odd
// P must reproduce the serial fields to 1e-8.
func TestNavierStokesMatchesSerialHairpin(t *testing.T) {
	cfg, init, err := flowcases.HairpinSpec(flowcases.HairpinConfig{
		Nx: 4, Ny: 3, Nz: 2, N: 4, Re: 850, Dt: 0.05, FilterA: 0.1,
		Precond: ns.PrecondChebJacobi,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.PTol, cfg.VTol, cfg.ProjectionL = 1e-11, 1e-12, 8
	var mixed [10]int
	for _, p := range cfg.Mesh.RXPairs {
		mixed[bits.OnesCount16(p)]++
	}
	if mixed[3] == 0 || mixed[5] == 0 {
		t.Fatalf("mesh does not mix element classes: %v elements by metric-pair count", mixed)
	}
	const steps = 3
	ser := runSerial(t, cfg, init, steps)
	for _, p := range []int{1, 3} {
		res, err := NavierStokes(cfg, NSConfig{P: p, Steps: steps, Init: init})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !res.Converged {
			t.Fatalf("P=%d: %d steps did not converge", p, res.NonconvergedSteps)
		}
		for c := 0; c < 3; c++ {
			if d := maxAbsDiff(res.U[c], ser.Velocity(c)); d > 1e-8 {
				t.Errorf("P=%d: velocity component %d differs from serial by %g", p, c, d)
			}
		}
		if d := maxAbsDiff(res.Pressure, ser.Pressure()); d > 1e-8 {
			t.Errorf("P=%d: pressure differs from serial by %g", p, d)
		}
	}
}

// convectionCase is a small Boussinesq convection cell (scalar transport with
// its own Dirichlet set, buoyancy in the momentum equation), tolerances
// tightened like nsCase's.
func convectionCase(t *testing.T) ns.Config {
	t.Helper()
	cfg, err := flowcases.ConvectionSpec(flowcases.ConvectionConfig{Nel: 3, N: 5, Ra: 5e3, Dt: 0.005, ProjectionL: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg.PTol, cfg.VTol, cfg.FilterAlpha = 1e-12, 1e-13, 0.05
	return cfg
}

// Every solver feature exists once, so it exists distributed: scalar
// transport (advected, diffused, filtered and fed back as buoyancy), which the
// second copy of the step used to reject, must reproduce the serial solver at
// P = 1 and an odd P.
func TestNavierStokesScalarMatchesSerial(t *testing.T) {
	cfg := convectionCase(t)
	const steps = 5
	ser, err := ns.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if _, err := ser.Step(); err != nil {
			t.Fatalf("serial step %d: %v", i+1, err)
		}
	}
	for _, p := range []int{1, 3} {
		res, err := NavierStokes(cfg, NSConfig{P: p, Steps: steps})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !res.Converged {
			t.Fatalf("P=%d: %d steps did not converge", p, res.NonconvergedSteps)
		}
		for comp := 0; comp < cfg.Mesh.Dim; comp++ {
			if d := maxAbsDiff(res.U[comp], ser.Velocity(comp)); d > 1e-8 {
				t.Errorf("P=%d: velocity component %d differs from serial by %g", p, comp, d)
			}
		}
		if d := maxAbsDiff(res.Pressure, ser.Pressure()); d > 1e-8 {
			t.Errorf("P=%d: pressure differs from serial by %g", p, d)
		}
		if res.Scalar == nil {
			t.Fatalf("P=%d: no scalar field", p)
		}
		if d := maxAbsDiff(res.Scalar, ser.Scalar()); d > 1e-8 {
			t.Errorf("P=%d: scalar differs from serial by %g", p, d)
		}
		if res.StepStats[steps-1].ScalarIters == 0 {
			t.Errorf("P=%d: no scalar Helmholtz iterations reported", p)
		}
	}
}

// TestConvectionExchangeCount pins the gather–scatter exchanges one rank makes
// over steps 3-5 of the P = 3 convection cell, read from gs's own timer (one
// entry per exchange). The scalar rides the velocity's subintegration, so each
// convective substep's mass average carries the velocity components and the
// scalar in one exchange; when the scalar was advected on its own pass it cost
// one exchange more per substep: 684 per rank over these steps and their six
// substeps.
func TestConvectionExchangeCount(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("iteration counts were pinned on amd64; other architectures may contract a*b+c into FMA")
	}
	const p, warm, steps = 3, 2, 3
	reg := instrument.New()
	s, err := Start(convectionCase(t), NSConfig{P: p, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	exchanges := reg.Timer("gs/exchange.vtime")
	if _, err := s.StepN(warm); err != nil {
		t.Fatal(err)
	}
	before := exchanges.Count()
	var substeps int
	for i := 0; i < steps; i++ {
		st, err := s.StepN(1)
		if err != nil {
			t.Fatal(err)
		}
		substeps += st.Substeps
	}
	const want = 678
	if got := exchanges.Count() - before; got != want*p {
		t.Errorf("%d gs exchanges over %d steps (%d substeps) on %d ranks (%.2f per rank and step), want %d per rank",
			got, steps, substeps, p, float64(got)/(p*steps), want)
	}
}

// One flop charge per operation: the serial flop meter and the modelled
// clock tell one story. At P = 1 under Chebyshev–Jacobi the rank runs the
// serial arithmetic bit for bit (no reduction reordering, no coarse solve
// whose factorization differs) and pays for no message, so its virtual
// stepping time must be the serial meter's flops at the machine's flop rate.
func TestSerialFlopMeterMatchesModelledClock(t *testing.T) {
	cfg, init := nsCase(t)
	cfg.PressurePrecond = ns.PrecondChebJacobi
	const steps = 3
	ser, err := ns.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ser.SetVelocity(init)
	ser.Disc().ResetFlops()
	for i := 0; i < steps; i++ {
		if _, err := ser.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := NavierStokes(cfg, NSConfig{P: 1, Steps: steps, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	var virtual float64
	for _, v := range res.StepVirtual {
		virtual += v
	}
	want := float64(ser.Disc().Flops()) * comm.ASCIRed(1).FlopSec
	if math.Abs(virtual-want) > 1e-9*want {
		t.Errorf("P=1 virtual stepping time %.12g s, serial meter × flop rate %.12g s", virtual, want)
	}
}

// TestNavierStokesStatsMatchSerial: per-step statistics at P = 1 must track
// the serial stepper — exactly for the integer phase structure (substeps,
// Helmholtz iterations, projection basis), and within a small band for the
// pressure iteration count and CFL, which see roundoff-level differences
// from the XXT coarse solve's rounding.
func TestNavierStokesStatsMatchSerial(t *testing.T) {
	cfg, init := nsCase(t)
	const steps = 5
	s, err := ns.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(init)
	var serial []ns.StepStats
	for i := 0; i < steps; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, st)
	}
	res, err := NavierStokes(cfg, NSConfig{P: 1, Steps: steps, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.StepStats {
		ref := serial[i]
		if st.HelmholtzIters != ref.HelmholtzIters || st.Substeps != ref.Substeps ||
			st.ProjectionBasis != ref.ProjectionBasis {
			t.Errorf("step %d: distributed stats %+v != serial %+v", i+1, st, ref)
		}
		if d := st.PressureIters - ref.PressureIters; d > 10 || d < -10 {
			t.Errorf("step %d: pressure iterations %d vs serial %d", i+1, st.PressureIters, ref.PressureIters)
		}
		if ref.CFL != 0 && math.Abs(st.CFL-ref.CFL) > 1e-9*ref.CFL {
			t.Errorf("step %d: CFL %g vs serial %g", i+1, st.CFL, ref.CFL)
		}
	}
}

// nsTraceRun runs the distributed stepper with a wall-clock-free tracer and
// returns the serialized trace.
func nsTraceRun(t *testing.T, p, steps int) (*instrument.Tracer, []byte) {
	t.Helper()
	cfg, init := nsCase(t)
	tr := instrument.NewTracer()
	tr.DisableWallClock()
	if _, err := NavierStokes(cfg, NSConfig{P: p, Steps: steps, Init: init, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// TestNavierStokesTraceShape: the distributed run's trace must validate and
// carry every stepper phase plus the communication substrate on the rank
// virtual tracks.
func TestNavierStokesTraceShape(t *testing.T) {
	const p = 4
	tr, data := nsTraceRun(t, p, 3)
	if err := instrument.ValidateChromeTrace(data, p); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"ns/convect":       false,
		"ns/viscous":       false,
		"ns/pressure":      false,
		"ns/filter":        false,
		"gs/exchange":      false,
		"allreduce":        false,
		"send":             false,
		"recv":             false,
		"schwarz/local":    false,
		"schwarz/coarse":   false,
		"coarse/xxt.solve": false,
	}
	ranksSeen := map[int]bool{}
	for _, ev := range tr.Events() {
		if ev.Pid == instrument.PidMachine {
			ranksSeen[ev.Tid] = true
			if _, ok := want[ev.Name]; ok {
				want[ev.Name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q span on any rank track", name)
		}
	}
	if len(ranksSeen) < p {
		t.Errorf("events on %d rank tracks, want %d", len(ranksSeen), p)
	}
}

// TestNavierStokesTraceDeterminism: two identical distributed runs must
// serialize to byte-identical traces with the wall clock disabled.
func TestNavierStokesTraceDeterminism(t *testing.T) {
	_, a := nsTraceRun(t, 4, 3)
	_, b := nsTraceRun(t, 4, 3)
	if !bytes.Equal(a, b) {
		t.Fatalf("traces differ between identical runs: %d vs %d bytes", len(a), len(b))
	}
}

// TestNavierStokesHistoryTelemetry: a distributed run must emit the same
// per-step StepRecord schema the serial stepper writes.
func TestNavierStokesHistoryTelemetry(t *testing.T) {
	cfg, init := nsCase(t)
	hist := instrument.NewTimeSeries()
	res, err := NavierStokes(cfg, NSConfig{P: 3, Steps: 4, Init: init, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 4 {
		t.Fatalf("history has %d records, want 4", hist.Len())
	}
	var buf bytes.Buffer
	if err := hist.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("history JSONL has %d lines, want 4", len(lines))
	}
	for _, key := range []string{"pressure_res_hist", "max_divergence", "pressure_converged"} {
		if !strings.Contains(lines[0], key) {
			t.Errorf("history record missing %q: %s", key, lines[0])
		}
	}
	if !res.Converged {
		t.Fatalf("unexpected nonconvergence")
	}
}

// TestNavierStokesNonconvergedPropagates: with an impossible iteration cap
// the run must report failure uniformly — result flag, counts, and the
// per-step telemetry — never success.
func TestNavierStokesNonconvergedPropagates(t *testing.T) {
	cfg, init := nsCase(t)
	cfg.PMaxIter = 1
	cfg.PTol = 1e-15
	hist := instrument.NewTimeSeries()
	res, err := NavierStokes(cfg, NSConfig{P: 2, Steps: 2, Init: init, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("result claims convergence with a 1-iteration pressure cap")
	}
	if res.NonconvergedSteps != 2 {
		t.Fatalf("NonconvergedSteps = %d, want 2", res.NonconvergedSteps)
	}
	for i, st := range res.StepStats {
		if st.PressureConverged {
			t.Errorf("step %d reports a converged pressure solve", i+1)
		}
	}
	var buf bytes.Buffer
	if err := hist.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"pressure_converged":false`) {
		t.Error("history telemetry does not record the nonconverged pressure solves")
	}
}

// TestNavierStokesPrecondVariants: each Chebyshev variant must reproduce the
// serial solver's fields distributed (the bounds come off the shared
// template, so rank count cannot change the polynomial), converge every
// pressure solve, and report the resolved variant in the result.
func TestNavierStokesPrecondVariants(t *testing.T) {
	for _, name := range []string{ns.PrecondChebJacobi, ns.PrecondChebSchwarz} {
		cfg, init := nsCase(t)
		cfg.PressurePrecond = name
		const steps = 6
		ser := runSerial(t, cfg, init, steps)
		for _, p := range []int{1, 3} {
			res, err := NavierStokes(cfg, NSConfig{P: p, Steps: steps, Init: init})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			if res.Precond != name || res.PrecondSel.Source != "forced" {
				t.Fatalf("%s P=%d: resolved %q (source %q)", name, p, res.Precond, res.PrecondSel.Source)
			}
			if !res.Converged {
				t.Fatalf("%s P=%d: %d steps did not converge", name, p, res.NonconvergedSteps)
			}
			tol := 1e-8
			for c := 0; c < cfg.Mesh.Dim; c++ {
				if d := maxAbsDiff(res.U[c], ser.Velocity(c)); d > tol {
					t.Errorf("%s P=%d: velocity component %d differs from serial by %g > %g", name, p, c, d, tol)
				}
			}
			if d := maxAbsDiff(res.Pressure, ser.Pressure()); d > tol {
				t.Errorf("%s P=%d: pressure differs from serial by %g > %g", name, p, d, tol)
			}
		}
	}
}

// TestNavierStokesPrecondAuto: "auto" distributed must resolve through the
// template's trial tournament, key the selection to the rank count, and run
// converged with the winner reported in the result.
func TestNavierStokesPrecondAuto(t *testing.T) {
	solver.ResetPrecondTable()
	defer solver.ResetPrecondTable()
	cfg, init := nsCase(t)
	cfg.PressurePrecond = ns.PrecondAuto
	res, err := NavierStokes(cfg, NSConfig{P: 3, Steps: 3, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ns.PrecondNames(), res.Precond) {
		t.Fatalf("auto resolved to %q", res.Precond)
	}
	if res.PrecondSel.Source != "trial" || len(res.PrecondSel.Trials) == 0 {
		t.Fatalf("selection = %+v, want a trial tournament", res.PrecondSel)
	}
	if !res.Converged {
		t.Fatalf("auto-selected %q: %d steps did not converge", res.Precond, res.NonconvergedSteps)
	}
	// The serial template ran the tournament: the selection is keyed by the
	// discretization alone, the key a shared-memory run of the problem reads.
	tab := solver.InstalledPrecondTable()
	key := solver.PrecondKey{K: cfg.Mesh.K, N: cfg.Mesh.N, Dim: cfg.Mesh.Dim, Tol: cfg.PTol}
	if name, ok := tab.Lookup(key); !ok || name != res.Precond {
		t.Fatalf("table lookup for the P-free key = %q, %v; want %q", name, ok, res.Precond)
	}
}

// A velocity that outruns the substep cap fails the distributed step on every
// rank together — the decision derives from the joined CFL maximum, so a run
// whose fast fluid sits on one rank's elements still ends with the step's
// error instead of a hang or a silently under-resolved subintegration.
func TestSubstepCapFailsEveryRank(t *testing.T) {
	cfg, _ := nsCase(t)
	fast := func(x, y, z float64) (float64, float64, float64) {
		if x < 0.25 {
			return 1e7, 0, 0
		}
		return 0, 0, 0
	}
	_, err := NavierStokes(cfg, NSConfig{P: 3, Steps: 2, Init: fast})
	if err == nil {
		t.Fatal("P=3 run above the substep cap reported no error")
	}
	for _, want := range []string{"CFL", "substeps", "cap of 2000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
