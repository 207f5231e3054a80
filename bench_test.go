package repro_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/coarse"
	"repro/internal/comm"
	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/ns"
	"repro/internal/parrun"
	"repro/internal/perfmodel"
	"repro/internal/schwarz"
	"repro/internal/sem"
	"repro/internal/solver"
)

// ---- Table 1: Orr-Sommerfeld channel stepping ----

// channelStepWarmup is the steady-state warm-up of the Table 1 stepping
// benchmarks: b.ResetTimer() zeroes the allocation counters, so stepping
// past the BDF ramp, scratch sizing, and one full projection-basis cycle
// (L=20 plus restart) first makes allocs/op report the true steady state —
// 0 — instead of smearing one-time construction over the first b.N steps.
// TestChannelStepAllocationFree and the MemStats tests pin the same bound.
const channelStepWarmup = 24

func benchChannelStep(b *testing.B, cfg flowcases.ChannelConfig) {
	s, _, err := flowcases.Channel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < channelStepWarmup; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	benchRewarm(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRewarm runs pending pool finalizers (their one-time runtime setup
// must not be charged to the measured window — see drainPoolFinalizers)
// and then takes two more steps, so allocs/op reports a true steady-state 0
// even at -benchtime=1x (the CI gate).
func benchRewarm(b *testing.B, s *ns.Solver) {
	b.Helper()
	drainPoolFinalizers()
	for i := 0; i < 2; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1ChannelStep(b *testing.B) {
	benchChannelStep(b, flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2,
	})
}

// BenchmarkTable1ChannelStepW4 runs the same case with a 4-worker element
// pool — the acceptance benchmark of the element-parallel hot paths. Run it
// with -cpu 1,4 to see both sides: at GOMAXPROCS>1 the persistent chunk
// workers carry the element loops; at GOMAXPROCS=1 the pool's serial
// fallback must stay within a few percent of workers=1. Results are bitwise
// identical to the workers=1 run either way (disjoint element blocks,
// deterministic work assignment; see TestWorkersChannelGolden).
func BenchmarkTable1ChannelStepW4(b *testing.B) {
	benchChannelStep(b, flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2, Workers: 4,
	})
}

// BenchmarkPrecondChannelStep* step the Table 1 channel under each pressure
// preconditioner variant. The pressure solve dominates the step, so the
// deltas here are (up to the fixed advection/viscous cost) the per-variant
// pressure-solve cost the runtime tuner trades off; the per-solve iteration
// counts behind them land in solver/pressure.iters.hist and the selection
// gate (TestPrecondSelectionGateChannel) pins the auto pick against the
// Schwarz reference.
func BenchmarkPrecondChannelStepSchwarz(b *testing.B) {
	benchChannelStep(b, flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2, Precond: ns.PrecondSchwarz,
	})
}

func BenchmarkPrecondChannelStepChebJacobi(b *testing.B) {
	benchChannelStep(b, flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2, Precond: ns.PrecondChebJacobi,
	})
}

func BenchmarkPrecondChannelStepChebSchwarz(b *testing.B) {
	benchChannelStep(b, flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2, Precond: ns.PrecondChebSchwarz,
	})
}

// BenchmarkTable1ChannelStepTuned steps with a Strict auto-tuned dispatch
// table installed for the case's matmul shapes. Strict tuning only considers
// bitwise-identical kernels, so the delta over BenchmarkTable1ChannelStep is
// pure dispatch gain (see TestTunedDispatchChannelGolden).
func BenchmarkTable1ChannelStepTuned(b *testing.B) {
	defer la.ResetDispatch()
	la.AutoTune(9, 2)
	benchChannelStep(b, flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2,
	})
}

// BenchmarkTable1ChannelStepInstrumented is the same stepping loop with a
// live metrics registry attached; comparing against BenchmarkTable1ChannelStep
// bounds the instrumentation overhead (target: enabled <2% — disabled
// instrumentation is a nil-receiver branch and costs nothing measurable).
func BenchmarkTable1ChannelStepInstrumented(b *testing.B) {
	s, _, err := flowcases.Channel(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.AttachMetrics(instrument.New())
	for i := 0; i < channelStepWarmup; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	benchRewarm(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ChannelStepTraced adds the full observability stack —
// metrics registry, tracer, and per-step telemetry — on top of the
// instrumented run. The delta over BenchmarkTable1ChannelStep bounds the
// everything-on cost; BenchmarkTable1ChannelStep itself is the baseline
// guarding the nil-receiver disabled path (tracing off must cost nothing
// beyond the PR-1 instrumentation bound).
func BenchmarkTable1ChannelStepTraced(b *testing.B) {
	s, _, err := flowcases.Channel(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.AttachMetrics(instrument.New())
	s.AttachTracer(instrument.NewTracer())
	s.AttachHistory(instrument.NewTimeSeries())
	for i := 0; i < channelStepWarmup; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	benchRewarm(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChannelStepDistributed steps the channel as a 4-rank SPMD
// program on the simulated machine (parrun.NavierStokes). Per-op cost is
// real work per time step — every rank executes its element subset of all
// stepper phases plus the message-passing simulation — with the one-time
// setup (operator template, RSB partition, XXT factorization, network
// spin-up) amortized over b.N steps. N=5 keeps the CI 1x smoke fast; the
// serial reference at the same resolution is the flowcases channel with
// N: 5 rather than Table 1's N: 9.
func BenchmarkChannelStepDistributed(b *testing.B) {
	cfg, init, _, err := flowcases.ChannelSpec(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 5, Dt: 0.003125, Order: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := parrun.NavierStokes(cfg, parrun.NSConfig{
		P: 4, Steps: b.N, Init: init,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.P != 4 {
		b.Fatalf("ran on %d ranks, want 4", res.P)
	}
}

// BenchmarkChannelStepDistributedP64 is the paper-scale variant: the same
// channel flow on a 16x4 element mesh spread over 64 simulated ranks (one
// element per rank). Per-op cost is dominated by the message-passing
// simulation itself — ~5k point-to-point messages and the log2(64)-round
// scalar allreduces of each pressure iteration — so this benchmark tracks
// the comm/gs hot path (pooled payloads, indexed mailboxes, overlapped
// exchange) rather than the floating-point work.
func BenchmarkChannelStepDistributedP64(b *testing.B) {
	cfg, init, _, err := flowcases.ChannelSpec(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 5, Dt: 0.003125, Order: 2, KX: 16, KY: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := parrun.NavierStokes(cfg, parrun.NSConfig{
		P: 64, Steps: b.N, Init: init,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.P != 64 {
		b.Fatalf("ran on %d ranks, want 64", res.P)
	}
}

// ---- Table 2: Schwarz-preconditioned pressure-like solve ----

func benchCylinderSolve(b *testing.B, opt schwarz.Options) {
	spec := mesh.CylinderOGrid(mesh.CylinderOGridSpec{NTheta: 16, NLayer: 6, R: 0.5, H: 6, WallRatio: 12})
	m, err := mesh.Discretize(spec, 7)
	if err != nil {
		b.Fatal(err)
	}
	d := sem.New(m, nil, 1)
	n := m.K * m.Np
	one := make([]float64, n)
	for i := range one {
		one[i] = 1
	}
	vol := d.Integrate(one)
	deflate := func(u []float64) {
		mn := d.Integrate(u) / vol
		for i := range u {
			u[i] -= mn
		}
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = m.B[i] * m.X[i]
	}
	d.Assemble(rhs)
	deflate(rhs)
	opt.Neumann = true
	p, err := schwarz.New(d, opt)
	if err != nil {
		b.Fatal(err)
	}
	apply := func(out, in []float64) { d.Laplacian(out, in); deflate(out) }
	pre := func(out, in []float64) { p.Apply(out, in); deflate(out) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		st := solver.CG(apply, d.Dot, x, rhs, solver.Options{
			Tol: 1e-5, Relative: true, MaxIter: 2000, Precond: pre,
		})
		if !st.Converged {
			b.Fatal("solve failed")
		}
	}
}

func BenchmarkTable2FDMSchwarz(b *testing.B) {
	benchCylinderSolve(b, schwarz.Options{Method: schwarz.FDM, UseCoarse: true})
}

func BenchmarkTable2FEMSchwarzNo1(b *testing.B) {
	benchCylinderSolve(b, schwarz.Options{Method: schwarz.FEM, Overlap: 1, UseCoarse: true})
}

func BenchmarkTable2NoCoarse(b *testing.B) {
	benchCylinderSolve(b, schwarz.Options{Method: schwarz.FDM, UseCoarse: false})
}

// ---- Table 3: matrix-matrix kernels ----

func benchMatMul(b *testing.B, k la.MatMulKernel, n1, n2, n3 int) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n1*n2)
	bb := make([]float64, n2*n3)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range bb {
		bb[i] = rng.NormFloat64()
	}
	c := make([]float64, n1*n3)
	b.SetBytes(int64(8 * (n1*n2 + n2*n3 + n1*n3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.MatMul(k, c, a, bb, n1, n2, n3)
	}
}

func benchABt(b *testing.B, k la.ABtKernel, n1, n2, n3 int) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n1*n2)
	bb := make([]float64, n3*n2)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range bb {
		bb[i] = rng.NormFloat64()
	}
	c := make([]float64, n1*n3)
	b.SetBytes(int64(8 * (n1*n2 + n3*n2 + n1*n3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.MatMulABt(k, c, a, bb, n1, n2, n3)
	}
}

// benchAutoMul times the dispatched entry point la.Mul itself: with tuned =
// true it installs a Strict-tuned table for the shape first, so the pair of
// benchmarks measures heuristic dispatch vs tuned dispatch end to end
// (lookup cost included).
func benchAutoMul(b *testing.B, tuned bool, n1, n2, n3 int) {
	defer la.ResetDispatch()
	la.ResetDispatch()
	if tuned {
		dt, _ := (&la.Tuner{Strict: true}).Tune([][3]int{{n1, n2, n3}}, nil)
		la.Install(dt)
	}
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n1*n2)
	bb := make([]float64, n2*n3)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range bb {
		bb[i] = rng.NormFloat64()
	}
	c := make([]float64, n1*n3)
	b.SetBytes(int64(8 * (n1*n2 + n2*n3 + n1*n3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.Mul(c, a, bb, n1, n2, n3)
	}
}

func BenchmarkTable3Naive16(b *testing.B)   { benchMatMul(b, la.KernelNaive, 16, 16, 16) }
func BenchmarkTable3IKJ16(b *testing.B)     { benchMatMul(b, la.KernelIKJ, 16, 16, 16) }
func BenchmarkTable3F2_16(b *testing.B)     { benchMatMul(b, la.KernelF2, 16, 16, 16) }
func BenchmarkTable3F3_16(b *testing.B)     { benchMatMul(b, la.KernelF3, 16, 16, 16) }
func BenchmarkTable3Blocked16(b *testing.B) { benchMatMul(b, la.KernelBlocked, 16, 16, 16) }
func BenchmarkTable3F2Small(b *testing.B)   { benchMatMul(b, la.KernelF2, 14, 2, 14) }
func BenchmarkTable3BlockedWide(b *testing.B) {
	benchMatMul(b, la.KernelBlocked, 16, 16, 256)
}

// ABt variants on the order-9 2D square shape (the ApplyR2D configuration).
func BenchmarkTable3ABtSimple10(b *testing.B)   { benchABt(b, la.ABtSimple, 10, 10, 10) }
func BenchmarkTable3ABtUnrolled10(b *testing.B) { benchABt(b, la.ABtUnrolled, 10, 10, 10) }
func BenchmarkTable3ABtBlocked10(b *testing.B)  { benchABt(b, la.ABtBlocked, 10, 10, 10) }

// Dispatched la.Mul end to end, heuristic vs Strict-tuned (Table 3 "auto").
func BenchmarkTable3AutoMulDefault10(b *testing.B) { benchAutoMul(b, false, 10, 10, 10) }
func BenchmarkTable3AutoMulTuned10(b *testing.B)   { benchAutoMul(b, true, 10, 10, 10) }

// ---- Table 4: performance-model evaluation ----

func BenchmarkTable4Predict(b *testing.B) {
	press, helm, sub := perfmodel.PaperIterationHistory(26, 45, 8, 10)
	run := perfmodel.HairpinRun(press, helm, sub)
	m := perfmodel.ASCIRedPerf()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.Predict(m, 2048, true)
	}
}

// ---- Fig 3: filtered shear-layer stepping ----

func BenchmarkFig3ShearLayerStep(b *testing.B) {
	s, err := flowcases.ShearLayer(flowcases.ShearLayerConfig{
		Nel: 8, N: 8, Rho: 30, Re: 1e5, Dt: 0.002, Alpha: 0.3, Workers: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 4: projected pressure solves in the convection cell ----

func BenchmarkFig4ConvectionStepProjected(b *testing.B) {
	s, err := flowcases.Convection(flowcases.ConvectionConfig{
		Nel: 4, N: 6, Ra: 1e4, Dt: 0.002, ProjectionL: 26, Workers: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4ConvectionStepUnprojected(b *testing.B) {
	s, err := flowcases.Convection(flowcases.ConvectionConfig{
		Nel: 4, N: 6, Ra: 1e4, Dt: 0.002, ProjectionL: 0, Workers: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 6: distributed XXT coarse solve ----

func BenchmarkFig6XXTSolveP16(b *testing.B) {
	nx := 63
	a := coarse.Poisson5pt(nx, nx)
	n := a.Rows
	p := 16
	xxt, err := coarse.NewXXT(a, nx, nx, p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	bp := make([]float64, n)
	for i := range bp {
		bp[i] = rng.NormFloat64()
	}
	m := comm.ASCIRed(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm.NewNetwork(m).Run(func(r *comm.Rank) {
			xxt.SolveOn(r, bp[xxt.BlockLo[r.ID]:xxt.BlockHi[r.ID]])
		})
	}
}

func BenchmarkFig6XXTSerial(b *testing.B) {
	nx := 63
	a := coarse.Poisson5pt(nx, nx)
	xxt, err := coarse.NewXXT(a, nx, nx, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xxt.SolveSerial(rhs)
	}
}

// ---- Fig 8: 3D hairpin-box stepping ----

func BenchmarkFig8HairpinStep(b *testing.B) {
	s, err := flowcases.Hairpin(flowcases.HairpinConfig{
		Nx: 4, Ny: 3, Nz: 3, N: 5, Re: 850, Dt: 0.05, Workers: 2, FilterA: 0.1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations: design choices called out in DESIGN.md ----

// Worker-count ablation of the operator kernel (the dual-processor mode of
// Sec. 6).
func benchStiffnessWorkers(b *testing.B, workers int) {
	spec := mesh.Box3D(mesh.Box3DSpec{Nx: 4, Ny: 4, Nz: 4, X1: 1, Y1: 1, Z1: 1})
	m, err := mesh.Discretize(spec, 9)
	if err != nil {
		b.Fatal(err)
	}
	d := sem.New(m, nil, workers)
	n := m.K * m.Np
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(float64(i))
	}
	out := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.StiffnessLocal(out, u)
	}
}

func BenchmarkAblationStiffness1Worker(b *testing.B)  { benchStiffnessWorkers(b, 1) }
func BenchmarkAblationStiffness2Workers(b *testing.B) { benchStiffnessWorkers(b, 2) }
func BenchmarkAblationStiffness4Workers(b *testing.B) { benchStiffnessWorkers(b, 4) }

// FDM local solve vs dense-factored FEM local solve (the Table 2 cost
// asymmetry: same O(N^{d+1}) application for FDM, O(N^{2d}) for dense FEM).
func BenchmarkAblationFDMPrecondApply(b *testing.B) {
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 4, X1: 1, Y1: 1})
	m, err := mesh.Discretize(spec, 11)
	if err != nil {
		b.Fatal(err)
	}
	d := sem.New(m, m.BoundaryMask(nil), 1)
	p, err := schwarz.New(d, schwarz.Options{Method: schwarz.FDM, UseCoarse: true})
	if err != nil {
		b.Fatal(err)
	}
	n := m.K * m.Np
	r := make([]float64, n)
	for i := range r {
		r[i] = math.Cos(float64(i))
	}
	out := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(out, r)
	}
}

func BenchmarkAblationFEMPrecondApply(b *testing.B) {
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 4, X1: 1, Y1: 1})
	m, err := mesh.Discretize(spec, 11)
	if err != nil {
		b.Fatal(err)
	}
	d := sem.New(m, m.BoundaryMask(nil), 1)
	p, err := schwarz.New(d, schwarz.Options{Method: schwarz.FEM, Overlap: 1, UseCoarse: true})
	if err != nil {
		b.Fatal(err)
	}
	n := m.K * m.Np
	r := make([]float64, n)
	for i := range r {
		r[i] = math.Cos(float64(i))
	}
	out := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(out, r)
	}
}

// Gather-scatter assembly throughput (the principal communication kernel).
func BenchmarkAblationGatherScatter(b *testing.B) {
	spec := mesh.Box3D(mesh.Box3DSpec{Nx: 4, Ny: 4, Nz: 4, X1: 1, Y1: 1, Z1: 1})
	m, err := mesh.Discretize(spec, 7)
	if err != nil {
		b.Fatal(err)
	}
	d := sem.New(m, nil, 1)
	u := make([]float64, m.K*m.Np)
	for i := range u {
		u[i] = float64(i % 17)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Assemble(u)
	}
}
