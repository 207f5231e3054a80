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
	"math/bits"
	"sync"

	"repro/internal/coarse"
	"repro/internal/gs"
	"repro/internal/instrument"
	"repro/internal/mesh"
	"repro/internal/poly"
	"repro/internal/schwarz"
	"repro/internal/sem"
	"repro/internal/solver"
	"repro/internal/tensor"
)

// ScalarConfig enables an advected–diffused scalar (temperature) coupled
// back to the momentum equation through a Boussinesq buoyancy term.
type ScalarConfig struct {
	Diffusivity   float64
	Buoyancy      [3]float64                       // force = Buoyancy * T
	DirichletMask func(x, y, z float64) bool       // nil = no scalar Dirichlet
	DirichletVal  func(x, y, z, t float64) float64 // boundary value
	Initial       func(x, y, z float64) float64    // initial condition
}

// Config describes a Navier–Stokes problem.
type Config struct {
	Mesh  *mesh.Mesh
	Re    float64
	Dt    float64
	Order int // BDF order of the splitting: 2 (default) or 3

	FilterAlpha  float64 // Fischer–Mullen filter strength (0 = off)
	FilterCutoff int     // first damped mode (0 = N: damp the top mode only)

	// Workers is ignored: every element loop runs on the calling goroutine.
	// It is kept only because the frozen bench/ harness sets it.
	Workers int

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
	PMaxIter    int     // pressure CG iteration cap (default 500)

	// PressurePrecond selects the E-preconditioner: "schwarz" (default),
	// "chebjacobi", "chebschwarz", "none", or "auto" — which consults the
	// installed solver.PrecondTable and falls back to a trial-solve
	// tournament of schwarz against chebschwarz (see precond.go).
	PressurePrecond string
}

// StepStats reports one time step. It stays comparable: a distributed run
// checks every rank's statistics against rank 0's with !=. The tags are the
// keys of the history JSONL.
type StepStats struct {
	Step              int     `json:"step"`
	Time              float64 `json:"time"`
	CFL               float64 `json:"cfl"`
	Substeps          int     `json:"substeps"`
	PressureIters     int     `json:"pressure_iters"`
	PressureConverged bool    `json:"pressure_converged"` // pressure CG hit its tolerance (not the iteration cap)
	PressureRes0      float64 `json:"pressure_res0"`      // residual before CG (after projection)
	PressureResFinal  float64 `json:"pressure_res_final"`
	HelmholtzIters    [3]int  `json:"helmholtz_iters"`
	ViscousConverged  bool    `json:"viscous_converged"` // all Helmholtz component solves converged
	ScalarIters       int     `json:"scalar_iters,omitempty"`
	ProjectionBasis   int     `json:"projection_basis"`
}

// StepRecord is the per-step telemetry row appended to an attached
// TimeSeries and serialized as JSONL (one record per line): the step's
// statistics and what only the history carries.
type StepRecord struct {
	StepStats
	PressureResHist []float64 `json:"pressure_res_hist"`
	MaxDivergence   float64   `json:"max_divergence"`
	FilterEnergy    float64   `json:"filter_energy_removed"`

	// VirtualSeconds is the modeled per-step elapsed time on the simulated
	// machine (max across ranks). Populated only by distributed runs
	// (parrun.NavierStokes); serial steps leave it zero. It is the column
	// the fault-injection tables compare fault-free vs degraded.
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`
}

// template is the global read-only operator set of one problem, built once
// by New: the mesh and its discretizations, the masks, the staggered-grid
// interpolation matrices, the assembled mass, the filter, and the resolved
// pressure preconditioner with its FDM factors, Chebyshev bounds and diag(E).
// All arrays are in the global element-local layout. The shared-memory
// solver and every solver forked from it (one per rank of a distributed run)
// point at the same template and never write it after set-up.
type template struct {
	Cfg Config
	M   *mesh.Mesh
	D   *sem.Disc // velocity-grid operators (masked)
	DN  *sem.Disc // D without its mask (pressure preconditioning): one gather–scatter topology
	dim int

	maskV []float64 // velocity Dirichlet mask (nil = no Dirichlet boundary)
	maskS []float64 // scalar Dirichlet mask (nil = none, or no scalar)

	// Pressure (Gauss) grid.
	npp      int       // pressure nodes per element
	np1, nm1 int       // N+1, N-1
	interpVP []float64 // (N-1)x(N+1) GLL -> Gauss interpolation
	interpPV []float64 // (N+1)x(N-1) Gauss -> GLL prolongation J_pv
	pvt      []float64 // J_pvᵀ
	bAssem   []float64 // assembled velocity mass diagonal
	invBm    []float64 // maskV / bAssem: the pointwise middle of E

	filter     *sem.Filter
	enclosed   bool    // no open boundary: pressure has the constant null space
	minSpacing float64 // M.MinSpacing(), the CFL length scale (a walk over the whole mesh)

	// Pressure preconditioner selection (precond.go).
	pSchwarz   *schwarz.Pressure // Schwarz variants only
	ladderOnce sync.Once         // PressurePre
	ladderPre  *schwarz.Precond
	precondSel solver.PrecondSelection // the resolved concrete variant and how it was chosen
	pDiagE     []float64               // exact diag(E) (chebjacobi)
	cheb       map[string]chebParams   // tuned Chebyshev parameters per built variant

	// Flops of one element's stiffness and filter application.
	stiffF, filtF flops
}

// Solver is one solver's time-stepping state over the elements it owns: the
// shared-memory stepper built by New owns every element; a solver made by
// Fork owns one rank's share. Fields and arenas are stored in owned blocks
// (element li of Machine.Elems occupies [li·Np, (li+1)·Np) on the velocity
// grid and [li·Npp, (li+1)·Npp) on the pressure grid).
type Solver struct {
	*template
	mach  Machine
	elems []int      // == mach.Elems()
	runs  []mesh.Run // elems in runs: the element kernels' loop
	n     int        // owned velocity dofs per component (len(elems)·Np)
	step  int
	time  float64

	// Owned blocks of the template's per-node data (aliases of the global
	// arrays when the solver owns every element in order).
	x, y, z []float64 // node coordinates
	b       []float64 // quadrature mass
	rmult   []float64 // reciprocal nodal multiplicity
	mask    []float64 // velocity Dirichlet mask (nil = none)
	bAssemL []float64
	invBmL  []float64
	diagE   []float64 // diag(E) blocks (nil unless chebjacobi was built)

	// Fields. The stepped fields of a time level are the dim velocity
	// components, then the scalar when one is configured: fields is the
	// current level (its velocity entries are U's), hist the previous levels,
	// newest first — the BDF/OIFS history every field rides in.
	U      [3][]float64 // current velocity components
	P      []float64    // pressure
	fields [][]float64
	hist   [][][]float64

	projector  *solver.Projector
	pPrecondOp solver.Operator // resolved variant bound to this solver's arenas

	// Steady-state arenas: Step allocates nothing after warm-up.
	work      elemWork // element-kernel scratch
	bufPool   [][]float64
	ustar     [3][]float64
	next      [][]float64     // the new level: ustar's velocity, then the scalar (solved in place)
	gp        [3][]float64    // Dᵀp stacks
	bArena    [][]float64     // Helmholtz RHS, one per component of a batch (velocity grid)
	duArena   [][]float64     // the lifts' operator images, then the CG increments, likewise
	one       [1][]float64    // assembleOne's list of one field
	cgStats   [3]solver.Stats // and the batch's statistics
	rvArena   []float64       // sandwich: extruded subdomain residuals
	zvArena   []float64       // sandwich: subdomain solutions
	rpArena   []float64       // pressure RHS (Gauss grid)
	onesP     []float64       // all ones on the pressure grid: deflatePressure's shift
	dpArena   []float64       // pressure increment
	divArena  []float64       // divergence diagnostics
	rinArena  []float64       // deflated residual copy of the preconditioner
	r0, x0    []float64       // coarse vertex residual and solution
	vsums     []float64       // per owned element, its vertex sums (CoarseRestrictElems' scratch)
	levelBuf  [][][]float64   // the current level, then hist
	tilde     [][][]float64   // subintegrated levels ũ^{n-q}, one per BDF order
	cgScratch *solver.Scratch

	// The Helmholtz operators of the step, one per BDF order 1…Order (index
	// order-1), built with the solver: the velocity's, and the scalar's (nil
	// without one). helm is the one a solve applies, through the prebuilt
	// closures, so the per-step solves allocate none.
	velHelm, scalarHelm []helmholtzOp
	helm                *helmholtzOp
	helmOp              solver.BatchOperator
	applyEs             solver.BatchOperator // applyE, as CGBatch takes it
	jacobi              solver.Operator

	// Flops of one GradientT, one Divergence, one round of Schwarz subdomain
	// solves (with their exchange), one toContravariant over the owned elements.
	gradTFlops, divFlops, fdmFlops flops
	contraFlops                    int64 // vector

	instr   stepInstr              // metric handles (zero value = disabled)
	tracer  *instrument.Tracer     // nil = off; wall spans for step phases + CG
	history *instrument.TimeSeries // nil = off; per-step StepRecord rows
}

// elemWork is the scratch of the element kernels, sized by the longest run.
type elemWork struct {
	interp []float64    // staggered-grid kernels (InterpWorkLen per element)
	sem    []float64    // sem element kernels (ElemScratchLen per element)
	tv, we []float64    // gradTElem
	g      [3][]float64 // one run's reference-coordinate derivatives
	blocks [][]float64  // headers over one run's dim blocks
	fdm    []float64    // Schwarz local solve
}

// stepInstr holds the metric handles threaded through Step. All handles
// no-op while nil, so the zero value is the free disabled default.
type stepInstr struct {
	sec                                      [NumSections]*instrument.Timer
	secHist                                  [NumSections]*instrument.Histogram
	eapply                                   *instrument.Timer // every E application (CG and Chebyshev)
	viscousCG, pressureCG, scalarCG          *instrument.Timer
	viscousIters, pressureIters, scalarIters *instrument.Counter
	steps, substeps                          *instrument.Counter
	cfl                                      *instrument.Gauge
	pressConv                                *instrument.Gauge   // last pressure solve converged (1/0)
	nonconv                                  *instrument.Counter // steps whose pressure solve hit the cap
	viscousIterH, pressureIterH              *instrument.Histogram
}

// AttachMetrics wires the stepper's sections (convection subintegration,
// viscous solves, pressure solve with its Schwarz local and coarse parts,
// scalar transport, filter), the CG machinery and the projection accelerator
// into reg. Pass nil to detach. Call before stepping; not concurrent-safe
// with Step.
func (s *Solver) AttachMetrics(reg *instrument.Registry) {
	s.instr = stepInstr{
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
	}
	for sec := SecConvect; sec < NumSections; sec++ {
		if sec >= SecSchwarzLocal && s.pSchwarz == nil {
			break
		}
		s.instr.sec[sec] = reg.Timer(sec.Name())
	}
	s.instr.secHist[SecConvect] = reg.Histogram("ns/convect.sec")
	s.instr.secHist[SecViscous] = reg.Histogram("ns/viscous.sec")
	s.instr.secHist[SecPressure] = reg.Histogram("ns/pressure.sec")
	s.instr.secHist[SecFilter] = reg.Histogram("ns/filter.sec")
	s.attachIterHists(reg)
	if s.projector != nil {
		s.projector.ProjectTime = reg.Timer("solver/projection")
		s.projector.BasisSize = reg.Gauge("solver/projection.basis")
		s.projector.Savings = reg.Gauge("solver/projection.savings")
	}
}

// attachIterHists wires the per-solve CG iteration distributions, the one
// instrument a forked solver shares with the shared-memory one.
func (s *Solver) attachIterHists(reg *instrument.Registry) {
	s.instr.viscousIterH = reg.Histogram("solver/viscous.iters.hist")
	s.instr.pressureIterH = reg.Histogram("solver/pressure.iters.hist")
}

// AttachTracer wires wall-clock span emission (step sections, CG solves)
// into tr; nil detaches. Call before stepping; not concurrent-safe with Step.
func (s *Solver) AttachTracer(tr *instrument.Tracer) {
	s.tracer = tr
	if tr != nil {
		tr.SetProcessName(instrument.PidWall, "solver process (wall clock)")
		tr.SetThreadName(instrument.PidWall, 0, "main")
	}
}

// AttachHistory makes every Step append a StepRecord (including the
// per-iteration pressure residual history) to h; nil detaches.
func (s *Solver) AttachHistory(h *instrument.TimeSeries) { s.history = h }

// New builds the shared-memory solver of the configuration: the operator
// template plus the state of a solver that owns every element.
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
	if !ValidPrecond(cfg.PressurePrecond) {
		return nil, fmt.Errorf("ns: unknown pressure preconditioner %q (want schwarz, chebjacobi, chebschwarz, none or auto)", cfg.PressurePrecond)
	}
	t := &template{Cfg: cfg, M: m, dim: m.Dim, cheb: map[string]chebParams{}}
	if cfg.DirichletMask != nil {
		t.maskV = m.BoundaryMask(cfg.DirichletMask)
	}
	t.D = sem.New(m, t.maskV)
	t.DN = t.D.Unmasked()
	s := &Solver{template: t}
	if err := s.build(precondForced); err != nil {
		return nil, err
	}
	return s, nil
}

// build fills the template (the Discs are in place), gives s the state of a
// solver owning every element, and resolves the pressure preconditioner.
func (s *Solver) build(precondForced bool) error {
	t, m, cfg := s.template, s.M, s.Cfg
	// Enclosed if every boundary node is Dirichlet (or there is no boundary).
	t.enclosed = true
	for i, onb := range m.OnBoundary {
		if onb && (t.maskV == nil || t.maskV[i] != 0) {
			t.enclosed = false
			break
		}
	}
	t.minSpacing = m.MinSpacing()
	t.np1 = m.N + 1
	t.nm1 = m.N - 1
	t.npp = t.nm1 * t.nm1
	if m.Dim == 3 {
		t.npp *= t.nm1
	}
	zp, _ := poly.Gauss(t.nm1)
	t.interpVP = poly.InterpMatrix(zp, m.Z)
	t.interpPV = poly.InterpMatrix(m.Z, zp)
	t.pvt = tensor.Transpose(t.interpPV, t.np1, t.nm1)
	// Assembled velocity mass.
	t.bAssem = append([]float64(nil), m.B...)
	t.D.GS.Apply(t.bAssem, gs.Sum)
	t.invBm = make([]float64, len(t.bAssem))
	for i, b := range t.bAssem {
		t.invBm[i] = 1 / b
		if t.maskV != nil {
			t.invBm[i] = t.maskV[i] / b
		}
	}
	if sc := cfg.Scalar; sc != nil && sc.DirichletMask != nil {
		t.maskS = m.BoundaryMask(sc.DirichletMask)
	}
	if cfg.FilterAlpha > 0 {
		if cfg.FilterCutoff > 0 && cfg.FilterCutoff < m.N {
			f, err := sem.NewFilterRamp(m, cfg.FilterAlpha, cfg.FilterCutoff)
			if err != nil {
				return fmt.Errorf("ns: filter: %w", err)
			}
			t.filter = f
		} else {
			t.filter = sem.NewFilter(m, cfg.FilterAlpha)
		}
	}
	t.stiffF.mm, t.stiffF.vec = sem.StiffnessFlops(m)
	t.filtF = flops{mm: tensor.FlopsApply(m.Dim, t.np1, t.np1, t.np1, t.np1, t.np1, t.np1)}
	if err := s.buildPrecondOperators(precondForced); err != nil {
		return err
	}
	sh := &shared{s: s, elems: make([]int, m.K)}
	for e := range sh.elems {
		sh.elems[e] = e
	}
	if err := s.initState(sh); err != nil {
		return err
	}
	if sc := cfg.Scalar; sc != nil && sc.Initial != nil {
		t := s.Scalar()
		for i := range t {
			t[i] = sc.Initial(m.X[i], m.Y[i], m.Zc[i])
		}
	}
	s.resolvePrecond()
	return nil
}

// Fork returns a solver of the same problem that owns mach's elements and
// runs on mach: the per-rank state of a distributed run. It shares s's
// read-only template (s must be a solver built by New) and starts from s's
// current fields and time with an empty BDF history; Restore loads anything
// further. Its Helmholtz diagonals are built here, with the rest of its state,
// so a resumed rank has them before its clock is restored. reg, when non-nil,
// receives the fork's CG iteration
// distributions, the only metrics a fork records itself (sections are the
// Machine's to time).
func (s *Solver) Fork(mach Machine, reg *instrument.Registry) (*Solver, error) {
	f := &Solver{template: s.template}
	if err := f.initState(mach); err != nil {
		return nil, err
	}
	np, npp := s.M.Np, s.npp
	for li, e := range f.elems {
		for c, u := range s.fields {
			copy(f.fields[c][li*np:(li+1)*np], u[e*np:(e+1)*np])
		}
		copy(f.P[li*npp:(li+1)*npp], s.P[e*npp:(e+1)*npp])
	}
	f.step, f.time = s.step, s.time
	f.attachIterHists(reg)
	f.pPrecondOp = f.precondOp(f.precondSel.Name)
	return f, nil
}

// initState sizes everything a solver keeps per owned element — local views
// of the template's per-node data, fields, arenas, element-kernel scratch,
// flop charges and the Helmholtz operators — for mach's elements. The
// only communication is one Assemble for the nodal multiplicity and one per
// Helmholtz diagonal.
func (s *Solver) initState(mach Machine) error {
	m, cfg := s.M, s.Cfg
	np, npp := m.Np, s.npp
	s.mach, s.elems = mach, mach.Elems()
	s.n = len(s.elems) * np
	nP := len(s.elems) * npp

	s.rmult = make([]float64, s.n)
	for i := range s.rmult {
		s.rmult[i] = 1
	}
	s.assembleOne(s.rmult)
	for i, mult := range s.rmult {
		s.rmult[i] = 1 / mult
	}
	// owned returns the owned blocks (blk values per element) of a global
	// element-local array: the array itself when the solver owns every
	// element in order, else a gathered copy. nil stays nil.
	ownsAll := len(s.elems) == m.K
	for li, e := range s.elems {
		ownsAll = ownsAll && li == e
	}
	owned := func(g []float64, blk int) []float64 {
		if g == nil || ownsAll {
			return g
		}
		out := make([]float64, len(s.elems)*blk)
		for li, e := range s.elems {
			copy(out[li*blk:(li+1)*blk], g[e*blk:(e+1)*blk])
		}
		return out
	}
	s.x, s.y, s.z = owned(m.X, np), owned(m.Y, np), owned(m.Zc, np)
	s.b = owned(m.B, np)
	s.bAssemL = owned(s.bAssem, np)
	s.invBmL = owned(s.invBm, np)
	s.mask = owned(s.maskV, np)
	s.diagE = owned(s.pDiagE, npp)
	for _, e := range s.elems {
		gt, dv := s.eApplyFlops(e)
		s.gradTFlops = s.gradTFlops.plus(gt)
		s.divFlops = s.divFlops.plus(dv)
		s.contraFlops += int64((2*bits.OnesCount16(m.RXPairs[e]) - s.dim) * np) // a multiply per pair, an add beyond a row's first
		if s.pSchwarz != nil {
			mm, vec := s.pSchwarz.LocalFlops(e)
			s.fdmFlops = s.fdmFlops.plus(flops{mm, vec})
		}
	}

	vec := func() []float64 { return make([]float64, s.n) }
	for c := 0; c < 3; c++ {
		s.U[c] = vec()
		s.ustar[c] = vec()
	}
	for c := 0; c < s.dim; c++ {
		s.gp[c] = vec()
		s.bArena, s.duArena = append(s.bArena, vec()), append(s.duArena, vec())
	}
	s.fields = append([][]float64(nil), s.U[:s.dim]...)
	s.next = append([][]float64(nil), s.ustar[:s.dim]...)
	if cfg.Scalar != nil {
		t := vec()
		s.fields, s.next = append(s.fields, t), append(s.next, t)
	}
	s.P = make([]float64, nP)
	s.rpArena = make([]float64, nP)
	s.dpArena = make([]float64, nP)
	s.divArena = make([]float64, nP)
	s.rinArena = make([]float64, nP)
	s.onesP = make([]float64, nP)
	for i := range s.onesP {
		s.onesP[i] = 1
	}
	s.levelBuf = make([][][]float64, 0, cfg.Order)
	s.tilde = make([][][]float64, cfg.Order)
	for q := range s.tilde {
		for range s.fields {
			s.tilde[q] = append(s.tilde[q], vec())
		}
	}
	s.cgScratch = &solver.Scratch{}
	if cfg.ProjectionL > 0 {
		s.projector = solver.NewProjector(cfg.ProjectionL, s.applyE, s.pressureDotShare, mach.SumN)
	}

	fdmLen := 0
	if s.pSchwarz != nil {
		fdmLen = s.pSchwarz.LocalWorkLen()
		s.rvArena, s.zvArena = vec(), vec()
		s.r0 = make([]float64, m.NVert)
		s.x0 = make([]float64, m.NVert)
		s.vsums = make([]float64, len(s.elems)<<m.Dim)
	}
	s.setRuns(m.Runs(s.elems))
	s.work.blocks = make([][]float64, s.dim)
	s.work.fdm = make([]float64, fdmLen)

	stiff := make([]float64, s.n) // every Helmholtz diagonal scales it
	for li, e := range s.elems {
		s.D.StiffnessDiagElement(stiff[li*np:(li+1)*np], e)
	}
	s.velHelm = s.helmholtzOps(1/cfg.Re, s.mask, stiff)
	if sc := cfg.Scalar; sc != nil {
		s.scalarHelm = s.helmholtzOps(sc.Diffusivity, owned(s.maskS, np), stiff)
	}
	s.helmOp = func(outs, ins [][]float64) { s.helmholtz(outs, ins, s.helm) }
	s.applyEs = solver.Operator(s.applyE).Batch()
	s.jacobi = func(out, in []float64) { s.pointJacobi(out, in, s.helm.diag) }
	return nil
}

// setRuns makes runs the element kernels' loop and sizes their scratch by
// the longest.
func (s *Solver) setRuns(runs []mesh.Run) {
	k, run, np := &s.work, mesh.LongestRun(runs), s.M.Np
	s.runs = runs
	k.interp = make([]float64, run*s.InterpWorkLen())
	k.sem = make([]float64, run*s.D.ElemScratchLen())
	k.tv, k.we = make([]float64, run*np), make([]float64, run*np)
	for c := 0; c < s.dim; c++ {
		k.g[c] = make([]float64, run*np)
	}
}

// Close does nothing: a solver holds no goroutine and nothing else to
// release. It is kept only because the frozen bench/ harness calls it.
func (s *Solver) Close() {}

// Time returns the current simulation time.
func (s *Solver) Time() float64 { return s.time }

// StepCount returns the number of completed steps.
func (s *Solver) StepCount() int { return s.step }

// SetVelocity initializes the velocity field from a function (also applies
// Dirichlet values at t=0).
func (s *Solver) SetVelocity(f func(x, y, z float64) (u, v, w float64)) {
	for i := 0; i < s.n; i++ {
		s.U[0][i], s.U[1][i], s.U[2][i] = f(s.x[i], s.y[i], s.z[i])
	}
	s.setDirichlet(s.U[:], 0)
}

// Velocity returns the current velocity component c (owned blocks).
func (s *Solver) Velocity(c int) []float64 { return s.U[c] }

// Pressure returns the current pressure (owned Gauss-grid blocks).
func (s *Solver) Pressure() []float64 { return s.P }

// Scalar returns the advected scalar field (nil if not configured).
func (s *Solver) Scalar() []float64 {
	if len(s.fields) == s.dim {
		return nil
	}
	return s.fields[s.dim]
}

// Disc exposes the velocity-grid discretization (for norms, integrals).
func (s *Solver) Disc() *sem.Disc { return s.D }

// Npp returns the pressure (Gauss-grid) nodes per element.
func (s *Solver) Npp() int { return s.npp }

// Dim returns the spatial dimension.
func (s *Solver) Dim() int { return s.dim }

// VelocityMask returns the velocity Dirichlet mask in the global
// element-local layout (nil when the problem has no Dirichlet boundary).
// Read-only.
func (s *Solver) VelocityMask() []float64 { return s.maskV }

// BAssem returns the assembled velocity mass diagonal in the global
// element-local layout. Read-only.
func (s *Solver) BAssem() []float64 { return s.bAssem }

// PressurePre returns the velocity-grid Schwarz preconditioner that the
// pressure solve composed as J_pvᵀ M_A⁻¹ J_pv before PR 19 (nil when no
// Schwarz variant was built). The step no longer uses it: it exists only for
// the frozen bench/ ladder, and is built on the first call.
func (s *Solver) PressurePre() *schwarz.Precond {
	if s.pSchwarz == nil {
		return nil
	}
	s.ladderOnce.Do(func() {
		// A set-up failure leaves nil, which the ladder reads as "no
		// Schwarz rungs".
		s.ladderPre, _ = schwarz.New(s.DN, schwarz.Options{Method: schwarz.FDM, UseCoarse: true, Neumann: true})
	})
	return s.ladderPre
}

// CoarseFactor returns the factor of the pinned vertex-mesh operator A₀ of
// the Schwarz coarse term, which a distributed run splits over its ranks
// (nil when no Schwarz variant was built).
func (s *Solver) CoarseFactor() *coarse.XXT {
	if s.pSchwarz == nil {
		return nil
	}
	return s.pSchwarz.CoarseFactor()
}
