// Package ns integrates the unsteady incompressible Navier–Stokes
// equations with the paper's spectral element formulation (Secs. 2, 4, 5):
//
//   - P_N – P_{N-2} velocity/pressure spaces (velocity on Gauss–Lobatto
//     nodes, pressure on the staggered Gauss grid, no pressure continuity),
//   - semi-implicit operator splitting: BDF2/BDF3 treatment of the Stokes
//     operator with explicit subintegration of the convection term along
//     characteristics (OIFS), permitting convective CFL numbers of 1–5,
//   - per-component Helmholtz solves by Jacobi-preconditioned CG,
//   - the consistent pressure Poisson operator E = D B̃⁻¹ Dᵀ solved by CG
//     with projection onto previous solutions (Fischer 1998) and an
//     additive-Schwarz/FDM + coarse-grid preconditioner,
//   - once-per-step Fischer–Mullen filter stabilization, and
//   - optional Boussinesq scalar transport for buoyancy-driven flows.
package ns

import (
	"fmt"

	"repro/internal/gs"
	"repro/internal/instrument"
	"repro/internal/mesh"
	"repro/internal/poly"
	"repro/internal/schwarz"
	"repro/internal/sem"
	"repro/internal/solver"
)

// ScalarConfig enables an advected–diffused scalar (temperature) coupled
// back to the momentum equation through a Boussinesq buoyancy term.
type ScalarConfig struct {
	Diffusivity   float64
	Buoyancy      [3]float64                       // force = Buoyancy * T
	DirichletMask func(x, y, z float64) bool       // nil = no scalar Dirichlet
	DirichletVal  func(x, y, z, t float64) float64 // boundary value
	Initial       func(x, y, z float64) float64    // initial condition
	Forcing       func(x, y, z, t float64) float64 // volumetric source
}

// Config describes a Navier–Stokes problem.
type Config struct {
	Mesh  *mesh.Mesh
	Re    float64
	Dt    float64
	Order int // BDF order of the splitting: 2 (default) or 3

	FilterAlpha  float64 // Fischer–Mullen filter strength (0 = off)
	FilterCutoff int     // first damped mode (0 = N: damp the top mode only)
	Workers      int     // element-loop workers (the dual-processor mode)

	// Velocity Dirichlet boundary: region selector and value. nil mask
	// means no Dirichlet boundary (fully periodic domains).
	DirichletMask func(x, y, z float64) bool
	DirichletVal  func(x, y, z, t float64) (u, v, w float64)

	// Body force per unit mass (optional).
	Forcing func(x, y, z, t float64) (fx, fy, fz float64)

	Scalar *ScalarConfig // optional Boussinesq scalar

	ProjectionL int     // pressure projection basis size L (0 disables)
	PTol        float64 // pressure CG tolerance (default 1e-7, absolute on ‖r‖)
	VTol        float64 // velocity CG tolerance (default 1e-9)
	SubCFL      float64 // target CFL per convective substep (default 0.5)
	SkewWeight  float64 // skew-symmetric convection blend (0 = plain form, default)
	PMaxIter    int     // pressure CG iteration cap (default 500)

	// PressurePrecond selects the E-preconditioner: "schwarz" (default),
	// "chebjacobi", "chebschwarz", "none", or "auto" — which consults the
	// installed solver.PrecondTable and falls back to a trial-solve
	// tournament over the concrete variants (see precond.go).
	PressurePrecond string

	// TuneRanks is the rank count recorded in the preconditioner-selection
	// key when PressurePrecond is "auto": parrun sets it to the distributed
	// P so selections are keyed (and cached) per rank count; 0 means the
	// serial stepper, keyed as P=1.
	TuneRanks int

	// UnbatchedViscous keeps the per-component Helmholtz CG loop instead of
	// the batched multi-RHS solve. The batched path is bitwise identical
	// (see solver.CGMulti / sem.HelmholtzMulti); this gate exists as the
	// reference side of that golden comparison and as an escape hatch.
	UnbatchedViscous bool
}

// StepStats reports one time step.
type StepStats struct {
	Step              int
	Time              float64
	PressureIters     int
	PressureRes0      float64 // residual before CG (after projection)
	PressureResFinal  float64
	PressureConverged bool // pressure CG hit its tolerance (not the iteration cap)
	ViscousConverged  bool // all Helmholtz component solves converged
	HelmholtzIters    [3]int
	ScalarIters       int
	Substeps          int
	CFL               float64
	ProjectionBasis   int
}

// StepRecord is the per-step telemetry row appended to an attached
// TimeSeries and serialized as JSONL (one record per line).
type StepRecord struct {
	Step              int       `json:"step"`
	Time              float64   `json:"time"`
	CFL               float64   `json:"cfl"`
	Substeps          int       `json:"substeps"`
	PressureIters     int       `json:"pressure_iters"`
	PressureConverged bool      `json:"pressure_converged"`
	PressureRes0      float64   `json:"pressure_res0"`
	PressureResFinal  float64   `json:"pressure_res_final"`
	PressureResHist   []float64 `json:"pressure_res_hist"`
	HelmholtzIters    [3]int    `json:"helmholtz_iters"`
	ViscousConverged  bool      `json:"viscous_converged"`
	ScalarIters       int       `json:"scalar_iters,omitempty"`
	ProjectionBasis   int       `json:"projection_basis"`
	MaxDivergence     float64   `json:"max_divergence"`
	FilterEnergy      float64   `json:"filter_energy_removed"`

	// VirtualSeconds is the modeled per-step elapsed time on the simulated
	// machine (max across ranks). Populated only by distributed runs
	// (parrun.NavierStokes); serial steps leave it zero. It is the column
	// the fault-injection tables compare fault-free vs degraded.
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`
}

// Solver holds the time-stepping state.
type Solver struct {
	Cfg  Config
	M    *mesh.Mesh
	D    *sem.Disc // velocity-grid operators (masked)
	DN   *sem.Disc // unmasked operators (pressure preconditioning)
	dim  int
	n    int // velocity dofs per component (K*Np)
	step int
	time float64

	maskV []float64 // velocity Dirichlet mask

	// Pressure (Gauss) grid.
	npp      int       // pressure nodes per element
	np1, nm1 int       // N+1, N-1
	interpVP []float64 // (N-1)x(N+1) GLL -> Gauss interpolation
	interpPV []float64 // (N+1)x(N-1) Gauss -> GLL prolongation J_pv
	wJp      []float64 // pressure quadrature weight x |J| per pressure node
	bAssem   []float64 // assembled velocity mass diagonal
	invBm    []float64 // maskV / bAssem: the pointwise middle of E

	// Fields.
	U  [3][]float64   // current velocity components (element-local)
	Uh [][3][]float64 // velocity history u^{n-1}, u^{n-2}, u^{n-3}
	P  []float64      // pressure (K*npp)
	T  []float64      // scalar
	Th [][]float64    // scalar history

	filter *sem.Filter

	// Solvers.
	pPre      *schwarz.Precond
	projector *solver.Projector
	enclosed  bool // no open boundary: pressure has the constant null space
	vol       float64

	// Pressure preconditioner selection (precond.go).
	precondName   string                  // resolved concrete variant
	precondSel    solver.PrecondSelection // how it was chosen
	pDiagE        []float64               // exact diag(E) (chebjacobi)
	chebJacobi    *solver.Chebyshev
	chebSchwarz   *solver.Chebyshev
	chebJacobiOp  solver.Operator // deflate-wrapped Apply
	chebSchwarzOp solver.Operator

	DS *sem.Disc // scalar-grid operators (scalar mask), nil without a scalar

	// Scratch.
	scr      [][]float64
	scr012   [][]float64 // header over scr[0:3] (gradient stacks)
	scr345   [][]float64 // header over scr[3:6] (pressure-gradient stacks)
	vptCache []float64
	pvtCache []float64
	bufPool  [][]float64
	gSlices  [][]float64 // reusable [][]float64 header for convection gradients
	rkFields [][]float64 // reusable header for the RK4 field set

	// Steady-state arenas: every per-step make() from the seed stepper lives
	// here instead, so Step allocates nothing after warm-up.
	iwork     [][]float64 // per-worker mesh-to-mesh interpolation scratch
	ustar     [3][]float64
	bArena    []float64 // Helmholtz RHS (velocity grid)
	huArena   []float64 // lifted-operator image
	duArena   []float64 // CG solution increment
	rpArena   []float64 // pressure RHS (Gauss grid)
	dpArena   []float64 // pressure increment
	divArena  []float64 // divergence diagnostics
	rinArena  []float64 // deflated residual copy in pressurePrecond
	histBuf   [][3][]float64
	tHistBuf  [][]float64
	utilArena [][3][]float64 // subintegrated velocity fields ũ^{n-q}
	tTilArena [][]float64    // subintegrated scalar fields
	cgScratch *solver.Scratch

	// Batched multi-RHS viscous solve: per-component RHS/operator-image/
	// increment arenas, reusable headers over ustar, the batched Helmholtz
	// closure, and the CGMulti scratch.
	bMulti      [][]float64
	huMulti     [][]float64
	duMulti     [][]float64
	ustarHdr    [][]float64
	helmMultiOp solver.MultiOperator
	cgMulti     *solver.MultiScratch

	// Cached Helmholtz diagonals (keyed by the h1/h2 pair, which only
	// changes during the BDF ramp-up) and prebuilt operator closures so the
	// per-step solves allocate no closures.
	helmDiag         []float64
	helmH1, helmH2   float64
	helmDiagS        []float64
	helmH1S, helmH2S float64
	curH1, curH2     float64
	curH1S, curH2S   float64
	helmOp           solver.Operator
	helmOpS          solver.Operator
	jacobi           solver.Operator
	jacobiS          solver.Operator
	pPrecondOp       solver.Operator

	// Prebuilt ForElements bodies for the element-parallel interpolation and
	// convection loops, with the operands they act on during one call.
	restrictLoop func(e, w int)
	prolongLoop  func(e, w int)
	gradTLoop    func(e, w int)
	divLoop      func(e, w int)
	convLoop     func(e, w int)
	curP, curV   []float64
	curOuts      [][]float64
	curU         [3][]float64
	elemBlocks   [][][]float64 // per-worker headers over one element's dim blocks
	curConvOut   []float64
	curConvV     []float64
	curConvDiv   []float64
	curConvC     [3][]float64
	curConvG     [][]float64

	// Flops of one GradientT and one Divergence over the mesh (EApplyFlops).
	gradTFlops, divFlops int64

	instr   stepInstr              // per-phase metric handles (zero value = disabled)
	tracer  *instrument.Tracer     // nil = off; wall spans for step phases + CG
	history *instrument.TimeSeries // nil = off; per-step StepRecord rows
}

// stepInstr holds the metric handles threaded through Step. All handles
// no-op while nil, so the zero value is the free disabled default.
type stepInstr struct {
	convect, viscous, pressure, filter, scalar *instrument.Timer
	eapply                                     *instrument.Timer // every E application (CG and Chebyshev)
	viscousCG, pressureCG, scalarCG            *instrument.Timer
	viscousIters, pressureIters, scalarIters   *instrument.Counter
	steps, substeps                            *instrument.Counter
	cfl                                        *instrument.Gauge
	pressConv                                  *instrument.Gauge   // last pressure solve converged (1/0)
	nonconv                                    *instrument.Counter // steps whose pressure solve hit the cap

	// Distributions: per-step phase wall times and per-solve CG iteration
	// counts (the timers/counters above only carry totals).
	convectH, viscousH, pressureH, filterH *instrument.Histogram
	viscousIterH, pressureIterH            *instrument.Histogram
}

// AttachMetrics wires the stepper's phases (convection subintegration,
// viscous solves, pressure solve, filter, scalar transport), the CG
// machinery, the projection accelerator, and the Schwarz preconditioner
// into reg. Pass nil to detach. Call before stepping; not concurrent-safe
// with Step.
func (s *Solver) AttachMetrics(reg *instrument.Registry) {
	s.instr = stepInstr{
		convect:       reg.Timer("ns/convect"),
		viscous:       reg.Timer("ns/viscous"),
		pressure:      reg.Timer("ns/pressure"),
		filter:        reg.Timer("ns/filter"),
		scalar:        reg.Timer("ns/scalar"),
		eapply:        reg.Timer("ns/pressure.eapply"),
		viscousCG:     reg.Timer("solver/viscous.cg"),
		pressureCG:    reg.Timer("solver/pressure.cg"),
		scalarCG:      reg.Timer("solver/scalar.cg"),
		viscousIters:  reg.Counter("solver/viscous.iters"),
		pressureIters: reg.Counter("solver/pressure.iters"),
		scalarIters:   reg.Counter("solver/scalar.iters"),
		steps:         reg.Counter("ns/steps"),
		substeps:      reg.Counter("ns/substeps"),
		cfl:           reg.Gauge("ns/cfl"),
		pressConv:     reg.Gauge("solver/pressure.converged"),
		nonconv:       reg.Counter("ns/nonconverged.steps"),
		convectH:      reg.Histogram("ns/convect.sec"),
		viscousH:      reg.Histogram("ns/viscous.sec"),
		pressureH:     reg.Histogram("ns/pressure.sec"),
		filterH:       reg.Histogram("ns/filter.sec"),
		viscousIterH:  reg.Histogram("solver/viscous.iters.hist"),
		pressureIterH: reg.Histogram("solver/pressure.iters.hist"),
	}
	if s.projector != nil {
		s.projector.ProjectTime = reg.Timer("solver/projection")
		s.projector.BasisSize = reg.Gauge("solver/projection.basis")
		s.projector.Savings = reg.Gauge("solver/projection.savings")
	}
	if s.pPre != nil {
		s.pPre.Attach(reg)
	}
}

// AttachTracer wires wall-clock span emission (step phases, CG solves, the
// Schwarz preconditioner sections) into tr; nil detaches. Call before
// stepping; not concurrent-safe with Step.
func (s *Solver) AttachTracer(tr *instrument.Tracer) {
	s.tracer = tr
	if s.pPre != nil {
		s.pPre.AttachTracer(tr)
	}
	if tr != nil {
		tr.SetProcessName(instrument.PidWall, "solver process (wall clock)")
		tr.SetThreadName(instrument.PidWall, 0, "main")
	}
}

// AttachHistory makes every Step append a StepRecord (including the
// per-iteration pressure residual history) to h; nil detaches.
func (s *Solver) AttachHistory(h *instrument.TimeSeries) { s.history = h }

// New builds a solver from the configuration.
func New(cfg Config) (*Solver, error) {
	m := cfg.Mesh
	if m == nil {
		return nil, fmt.Errorf("ns: nil mesh")
	}
	if m.N < 3 {
		return nil, fmt.Errorf("ns: polynomial order must be >= 3 for P_N-P_{N-2}, got %d", m.N)
	}
	if cfg.Order == 0 {
		cfg.Order = 2
	}
	if cfg.Order != 1 && cfg.Order != 2 && cfg.Order != 3 {
		return nil, fmt.Errorf("ns: BDF order must be 1, 2 or 3")
	}
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("ns: Dt must be positive")
	}
	if cfg.Re <= 0 {
		return nil, fmt.Errorf("ns: Re must be positive")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.PTol == 0 {
		cfg.PTol = 1e-7
	}
	if cfg.VTol == 0 {
		cfg.VTol = 1e-9
	}
	if cfg.SubCFL == 0 {
		cfg.SubCFL = 0.5
	}
	if cfg.PMaxIter == 0 {
		cfg.PMaxIter = 500
	}
	precondForced := cfg.PressurePrecond != ""
	if cfg.PressurePrecond == "" {
		cfg.PressurePrecond = PrecondSchwarz
	}
	s := &Solver{Cfg: cfg, M: m, dim: m.Dim, n: m.K * m.Np}
	var mask []float64
	if cfg.DirichletMask != nil {
		mask = m.BoundaryMask(cfg.DirichletMask)
	}
	s.maskV = mask
	s.D = sem.New(m, mask, cfg.Workers)
	s.DN = sem.New(m, nil, cfg.Workers)

	// Enclosed if every boundary node is Dirichlet (or there is no boundary).
	s.enclosed = true
	for i, onb := range m.OnBoundary {
		if onb && (mask == nil || mask[i] != 0) {
			s.enclosed = false
			break
		}
	}

	s.np1 = m.N + 1
	s.nm1 = m.N - 1
	s.npp = s.nm1 * s.nm1
	if m.Dim == 3 {
		s.npp *= s.nm1
	}
	zp, wp := poly.Gauss(s.nm1)
	s.interpVP = poly.InterpMatrix(zp, m.Z)
	s.interpPV = poly.InterpMatrix(m.Z, zp)
	// Pressure quadrature weights x interpolated |J|.
	s.wJp = make([]float64, m.K*s.npp)
	jacp := s.interpToPressureField(m.Jac)
	for e := 0; e < m.K; e++ {
		for l := 0; l < s.npp; l++ {
			var w float64
			if m.Dim == 2 {
				w = wp[l%s.nm1] * wp[l/s.nm1]
			} else {
				w = wp[l%s.nm1] * wp[(l/s.nm1)%s.nm1] * wp[l/(s.nm1*s.nm1)]
			}
			s.wJp[e*s.npp+l] = w * jacp[e*s.npp+l]
		}
	}
	// Assembled velocity mass.
	s.bAssem = make([]float64, s.n)
	copy(s.bAssem, m.B)
	s.D.GS.Apply(s.bAssem, gs.Sum)
	s.invBm = make([]float64, s.n)
	for i, b := range s.bAssem {
		s.invBm[i] = 1 / b
		if mask != nil {
			s.invBm[i] = mask[i] / b
		}
	}

	for c := 0; c < 3; c++ {
		s.U[c] = make([]float64, s.n)
	}
	s.P = make([]float64, m.K*s.npp)
	if cfg.Scalar != nil {
		s.T = make([]float64, s.n)
		if cfg.Scalar.Initial != nil {
			for i := range s.T {
				s.T[i] = cfg.Scalar.Initial(m.X[i], m.Y[i], m.Zc[i])
			}
		}
		var smask []float64
		if cfg.Scalar.DirichletMask != nil {
			smask = m.BoundaryMask(cfg.Scalar.DirichletMask)
		}
		s.DS = sem.New(m, smask, cfg.Workers)
	}
	if cfg.FilterAlpha > 0 {
		if cfg.FilterCutoff > 0 && cfg.FilterCutoff < m.N {
			f, err := sem.NewFilterRamp(m, cfg.FilterAlpha, cfg.FilterCutoff)
			if err != nil {
				return nil, fmt.Errorf("ns: filter: %w", err)
			}
			s.filter = f
		} else {
			s.filter = sem.NewFilter(m, cfg.FilterAlpha)
		}
	}
	if cfg.ProjectionL > 0 {
		s.projector = solver.NewProjector(cfg.ProjectionL, s.applyE, s.pressureDot)
	}
	one := make([]float64, s.n)
	for i := range one {
		one[i] = 1
	}
	s.vol = s.D.Integrate(one)
	ns := 8
	s.scr = make([][]float64, ns)
	for i := range s.scr {
		s.scr[i] = make([]float64, s.n)
	}
	s.scr012 = s.scr[0:3]
	s.scr345 = s.scr[3:6]
	s.gSlices = make([][]float64, 3)
	s.rkFields = make([][]float64, 3)
	s.iwork = make([][]float64, cfg.Workers)
	for w := range s.iwork {
		s.iwork[w] = make([]float64, s.interpWorkLen())
	}
	for c := 0; c < 3; c++ {
		s.ustar[c] = make([]float64, s.n)
	}
	s.bArena = make([]float64, s.n)
	s.huArena = make([]float64, s.n)
	s.duArena = make([]float64, s.n)
	npTot := m.K * s.npp
	s.rpArena = make([]float64, npTot)
	s.dpArena = make([]float64, npTot)
	s.divArena = make([]float64, npTot)
	s.rinArena = make([]float64, npTot)
	s.histBuf = make([][3][]float64, 0, 4)
	s.utilArena = make([][3][]float64, cfg.Order)
	for q := range s.utilArena {
		for c := 0; c < s.dim; c++ {
			s.utilArena[q][c] = make([]float64, s.n)
		}
	}
	if cfg.Scalar != nil {
		s.tHistBuf = make([][]float64, 0, 4)
		s.tTilArena = make([][]float64, cfg.Order)
		for q := range s.tTilArena {
			s.tTilArena[q] = make([]float64, s.n)
		}
	}
	s.cgScratch = &solver.Scratch{}
	s.bMulti = make([][]float64, s.dim)
	s.huMulti = make([][]float64, s.dim)
	s.duMulti = make([][]float64, s.dim)
	s.ustarHdr = make([][]float64, s.dim)
	for c := 0; c < s.dim; c++ {
		s.bMulti[c] = make([]float64, s.n)
		s.huMulti[c] = make([]float64, s.n)
		s.duMulti[c] = make([]float64, s.n)
	}
	s.cgMulti = &solver.MultiScratch{}
	s.helmMultiOp = func(outs, ins [][]float64) { s.D.HelmholtzMulti(outs, ins, s.curH1, s.curH2) }
	s.D.EnsureBatch(s.dim)
	s.helmOp = func(out, in []float64) { s.D.Helmholtz(out, in, s.curH1, s.curH2) }
	s.jacobi = func(out, in []float64) {
		diag := s.helmDiag
		for i := range in {
			out[i] = in[i] / diag[i]
		}
	}
	if cfg.Scalar != nil {
		s.helmOpS = func(out, in []float64) { s.DS.Helmholtz(out, in, s.curH1S, s.curH2S) }
		s.jacobiS = func(out, in []float64) {
			diag := s.helmDiagS
			for i := range in {
				out[i] = in[i] / diag[i]
			}
		}
	}
	np := m.Np
	npp := s.npp
	s.restrictLoop = func(e, w int) {
		s.interpElemVPRestrict(s.curP[e*npp:(e+1)*npp], s.curV[e*np:(e+1)*np], s.iwork[w])
	}
	s.prolongLoop = func(e, w int) {
		s.interpElemPVProlong(s.curV[e*np:(e+1)*np], s.curP[e*npp:(e+1)*npp], s.iwork[w])
	}
	s.elemBlocks = make([][][]float64, cfg.Workers)
	for w := range s.elemBlocks {
		s.elemBlocks[w] = make([][]float64, s.dim)
	}
	s.gradTLoop = func(e, w int) {
		blk := s.elemBlocks[w]
		for c := range blk {
			blk[c] = s.curOuts[c][e*np : (e+1)*np]
		}
		s.GradTElem(blk, s.curP[e*npp:(e+1)*npp], e, s.iwork[w],
			s.scr[6][e*np:(e+1)*np], s.scr[7][e*np:(e+1)*np])
	}
	s.divLoop = func(e, w int) {
		blk := s.elemBlocks[w]
		for c := range blk {
			blk[c] = s.curU[c][e*np : (e+1)*np]
		}
		s.DivElem(s.curP[e*npp:(e+1)*npp], blk, e, s.iwork[w])
	}
	for e := 0; e < m.K; e++ {
		gt, dv := s.EApplyFlops(e)
		s.gradTFlops += gt
		s.divFlops += dv
	}
	s.convLoop = func(e, w int) { s.convectElement(e) }
	// Force the lazily-built transposed interpolation matrices now: the
	// element loops that use them run on the worker pool, where a lazy
	// first-call fill would race.
	s.vptMatrix()
	s.pvtMatrix()
	// Last: the preconditioner resolution (possibly trial solves) needs the
	// fully assembled operator machinery above.
	if err := s.setupPressurePrecond(precondForced); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// helmholtzDiagV returns the (assembled) velocity Helmholtz diagonal for
// (h1, h2), recomputing only when the pair changes — i.e. during the BDF
// ramp-up of the first steps.
func (s *Solver) helmholtzDiagV(h1, h2 float64) []float64 {
	if s.helmDiag == nil || h1 != s.helmH1 || h2 != s.helmH2 {
		s.helmDiag = s.D.HelmholtzDiag(h1, h2)
		s.helmH1, s.helmH2 = h1, h2
	}
	return s.helmDiag
}

// helmholtzDiagS is the scalar-grid analogue of helmholtzDiagV.
func (s *Solver) helmholtzDiagS(h1, h2 float64) []float64 {
	if s.helmDiagS == nil || h1 != s.helmH1S || h2 != s.helmH2S {
		s.helmDiagS = s.DS.HelmholtzDiag(h1, h2)
		s.helmH1S, s.helmH2S = h1, h2
	}
	return s.helmDiagS
}

// Close releases the solver's element-loop worker pools (velocity,
// pressure-preconditioning, and scalar grids). It is idempotent, must not
// run concurrently with Step, and a closed solver keeps stepping correctly
// — just serially. Long-lived processes that build many solvers (the
// session service) must call Close when one is retired; the sem finalizer
// is only a GC-timed backstop.
func (s *Solver) Close() {
	s.D.Close()
	s.DN.Close()
	if s.DS != nil {
		s.DS.Close()
	}
}

// Time returns the current simulation time.
func (s *Solver) Time() float64 { return s.time }

// StepCount returns the number of completed steps.
func (s *Solver) StepCount() int { return s.step }

// SetVelocity initializes the velocity field from a function (also applies
// Dirichlet values at t=0).
func (s *Solver) SetVelocity(f func(x, y, z float64) (u, v, w float64)) {
	m := s.M
	for i := 0; i < s.n; i++ {
		u, v, w := f(m.X[i], m.Y[i], m.Zc[i])
		s.U[0][i], s.U[1][i], s.U[2][i] = u, v, w
	}
	s.applyDirichlet(s.U, 0)
}

// Velocity returns the current velocity component c (element-local layout).
func (s *Solver) Velocity(c int) []float64 { return s.U[c] }

// Pressure returns the current pressure (element-local Gauss layout).
func (s *Solver) Pressure() []float64 { return s.P }

// Scalar returns the advected scalar field (nil if not configured).
func (s *Solver) Scalar() []float64 { return s.T }

// Disc exposes the velocity-grid discretization (for norms, integrals).
func (s *Solver) Disc() *sem.Disc { return s.D }

// applyDirichlet overwrites Dirichlet-masked entries with boundary values.
func (s *Solver) applyDirichlet(u [3][]float64, t float64) {
	if s.maskV == nil || s.Cfg.DirichletVal == nil {
		return
	}
	m := s.M
	for i, mk := range s.maskV {
		if mk == 0 {
			bu, bv, bw := s.Cfg.DirichletVal(m.X[i], m.Y[i], m.Zc[i], t)
			u[0][i], u[1][i], u[2][i] = bu, bv, bw
		}
	}
}

// interpToPressureField interpolates a velocity-grid field to the pressure
// Gauss grid, element by element.
func (s *Solver) interpToPressureField(u []float64) []float64 {
	m := s.M
	out := make([]float64, m.K*s.npp)
	work := make([]float64, s.interpWorkLen())
	for e := 0; e < m.K; e++ {
		s.interpElemVP(out[e*s.npp:(e+1)*s.npp], u[e*m.Np:(e+1)*m.Np], work)
	}
	return out
}
