package ns

// precond.go: runtime-selected pressure preconditioning. The Schwarz(FDM)+
// XXT sandwich (pressurePrecond in operators.go) stays the bitwise
// reference; this file adds the Chebyshev-accelerated point-Jacobi and
// Schwarz-smoothing variants of Phillips et al. and the "auto" mode that
// picks per (K, N, dim, P, tol) from short trial solves, recording the
// winner in solver's process-wide table (and, through the CLI, the keyed
// persistent cache).

import (
	"fmt"
	"math"

	"repro/internal/gs"
	"repro/internal/schwarz"
	"repro/internal/solver"
)

// Pressure preconditioner variant names accepted by Config.PressurePrecond.
const (
	PrecondSchwarz     = "schwarz"     // FDM additive Schwarz + coarse XXT (reference)
	PrecondNone        = "none"        // unpreconditioned CG
	PrecondChebJacobi  = "chebjacobi"  // Chebyshev-accelerated point-Jacobi on diag(E)
	PrecondChebSchwarz = "chebschwarz" // Chebyshev-accelerated coarse-free Schwarz sweep
	PrecondAuto        = "auto"        // table lookup, else trial-solve tournament
)

// Chebyshev polynomial degrees per variant: Jacobi is a weak sweep and
// needs a longer polynomial; the Schwarz sweep is strong enough that two
// terms recover most of what the coarse solve provided.
const (
	chebDegreeJacobi  = 5
	chebDegreeSchwarz = 2
)

// ValidPrecond reports whether name is an accepted PressurePrecond value.
func ValidPrecond(name string) bool {
	switch name {
	case PrecondSchwarz, PrecondNone, PrecondChebJacobi, PrecondChebSchwarz, PrecondAuto:
		return true
	}
	return false
}

// PrecondNames lists the concrete variants (no "auto") in tournament order:
// the reference first, so selection ties keep it.
func PrecondNames() []string {
	return []string{PrecondSchwarz, PrecondChebJacobi, PrecondChebSchwarz}
}

// setupPressurePrecond resolves Cfg.PressurePrecond into s.pPrecondOp and
// the selection report. Runs at the end of New, after every arena and
// element-loop body the operators need is in place. forced records whether
// the caller named a variant explicitly (vs the "" → schwarz default).
func (s *Solver) setupPressurePrecond(forced bool) error {
	name := s.Cfg.PressurePrecond
	if !ValidPrecond(name) {
		return fmt.Errorf("ns: unknown pressure preconditioner %q (want schwarz, chebjacobi, chebschwarz, none or auto)", name)
	}
	if name == PrecondSchwarz || name == PrecondChebSchwarz || name == PrecondAuto {
		// The sandwich preconditioner acts on the unmasked Laplacian, whose
		// coarse operator is singular (pure Neumann) regardless of the
		// velocity boundary conditions: always pin its null space.
		pre, err := schwarz.New(s.DN, schwarz.Options{
			Method: schwarz.FDM, UseCoarse: true, Neumann: true,
		})
		if err != nil {
			return fmt.Errorf("ns: pressure preconditioner: %w", err)
		}
		s.pPre = pre
	}
	if name == PrecondChebJacobi || name == PrecondAuto {
		s.buildChebJacobi()
	}
	if name == PrecondChebSchwarz || name == PrecondAuto {
		s.buildChebSchwarz()
	}
	source := "forced"
	if !forced {
		source = "default"
	}
	if name == PrecondAuto {
		return s.autoSelectPrecond()
	}
	s.precondName = name
	s.precondSel = solver.PrecondSelection{Name: name, Source: source}
	s.pPrecondOp = s.precondOp(name)
	return nil
}

// precondOp returns the Operator for a resolved concrete variant (nil for
// "none"). The variant must have been built by setupPressurePrecond.
func (s *Solver) precondOp(name string) solver.Operator {
	switch name {
	case PrecondSchwarz:
		return s.pressurePrecond
	case PrecondChebJacobi:
		return s.chebJacobiOp
	case PrecondChebSchwarz:
		return s.chebSchwarzOp
	}
	return nil
}

// buildChebJacobi assembles the Chebyshev-accelerated point-Jacobi variant:
// base sweep out = in / diag(E), bounds from a short power iteration on the
// preconditioned operator, verified (and inflated if underestimated) by
// Calibrate.
func (s *Solver) buildChebJacobi() {
	s.pDiagE = s.pressureDiagE()
	diag := s.pDiagE
	jac := func(out, in []float64) {
		for i := range in {
			out[i] = in[i] / diag[i]
		}
	}
	s.chebJacobi = &solver.Chebyshev{
		Label: PrecondChebJacobi, A: s.applyE, Base: jac, Degree: chebDegreeJacobi,
	}
	s.tuneCheb(s.chebJacobi)
	s.chebJacobiOp = s.deflateWrapped(s.chebJacobi)
}

// buildChebSchwarz assembles the Chebyshev-accelerated Schwarz variant: the
// base sweep is the sandwich without the coarse XXT term (the polynomial
// supplies the global coupling), so each application costs the local FDM
// solves only.
func (s *Solver) buildChebSchwarz() {
	s.chebSchwarz = &solver.Chebyshev{
		Label: PrecondChebSchwarz, A: s.applyE, Base: s.pressurePrecondLocal,
		Degree: chebDegreeSchwarz,
	}
	s.tuneCheb(s.chebSchwarz)
	s.chebSchwarzOp = s.deflateWrapped(s.chebSchwarz)
}

// tuneCheb estimates and verifies a variant's eigenvalue bounds.
func (s *Solver) tuneCheb(c *solver.Chebyshev) {
	var deflate func([]float64)
	if s.enclosed {
		deflate = s.deflatePressure
	}
	n := s.M.K * s.npp
	c.EstimateBounds(s.pressureDot, n, 20, deflate)
	c.Calibrate(s.pressureDot, n, deflate)
}

// deflateWrapped adapts a Chebyshev preconditioner to the enclosed-domain
// pressure solve: input and output are projected off the constant null
// space, exactly as the reference sandwich does. On open domains it is the
// bare Apply.
func (s *Solver) deflateWrapped(c *solver.Chebyshev) solver.Operator {
	return func(out, r []float64) {
		rin := r
		if s.enclosed {
			rin = s.rinArena
			copy(rin, r)
			s.deflatePressure(rin)
		}
		c.Apply(out, rin)
		if s.enclosed {
			s.deflatePressure(out)
		}
	}
}

// pressurePrecondLocal is the sandwich without the coarse XXT term and
// without deflation — the raw smoothing sweep the Chebyshev polynomial
// wraps (deflation is handled once by the wrapper).
func (s *Solver) pressurePrecondLocal(out, r []float64) {
	rv := s.scr[6]
	s.curV, s.curP = rv, r
	s.DN.ForElements(s.prolongLoop)
	s.DN.GS.Apply(rv, gs.Sum)
	zv := s.scr[7]
	s.pPre.ApplyLocal(zv, rv)
	s.curV, s.curP = zv, out
	s.DN.ForElements(s.restrictLoop)
	s.curV, s.curP = nil, nil
}

// pressureDiagE computes the exact diagonal of the consistent pressure
// operator E = D B̃⁻¹ QQᵀ Dᵀ. Because Dᵀe_i is supported on a single
// element and distinct local nodes of one element map to distinct global
// nodes, the assembly QQᵀ acts as the identity on it and
//
//	E_ii = Σ_c Σ_l (Dᵀe_i)²_{c,l} · mask_l / bAssem_l
//
// element by element. (Degenerate periodic one-element meshes self-share
// nodes and get an underestimate — harmless for a preconditioner; the
// Chebyshev Calibrate pass absorbs it into the bound.) Non-positive or
// non-finite entries (fully masked corners) are clamped to 1.
func (s *Solver) pressureDiagE() []float64 {
	m := s.M
	np := m.Np
	d := make([]float64, m.K*s.npp)
	work := make([]float64, s.interpWorkLen())
	tv := make([]float64, np)
	we := make([]float64, np)
	pe := make([]float64, s.npp)
	outs := make([][]float64, s.dim)
	for c := range outs {
		outs[c] = make([]float64, np)
	}
	for e := 0; e < m.K; e++ {
		w := s.invBm[e*np : (e+1)*np]
		for i := 0; i < s.npp; i++ {
			pe[i] = 1
			s.GradTElem(outs, pe, e, work, tv, we)
			pe[i] = 0
			var v float64
			for _, oc := range outs {
				for l, g := range oc {
					v += g * g * w[l]
				}
			}
			if !(v > 0) || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			d[e*s.npp+i] = v
		}
	}
	return d
}

// autoSelectPrecond resolves "auto": consult the installed selection table
// for this configuration's key, and fall back to a trial-solve tournament
// — one short CG per variant against a synthetic in-range right-hand side
// — recording the winner back into the table for later sessions.
func (s *Solver) autoSelectPrecond() error {
	key := s.precondKey()
	if t := solver.InstalledPrecondTable(); t != nil {
		if name, ok := t.Lookup(key); ok && ValidPrecond(name) && name != PrecondAuto && name != PrecondNone {
			s.precondName = name
			s.precondSel = solver.PrecondSelection{Name: name, Source: "table"}
			s.pPrecondOp = s.precondOp(name)
			return nil
		}
	}
	n := s.M.K * s.npp
	probe := make([]float64, n)
	rhs := make([]float64, n)
	x := make([]float64, n)
	solver.LCGFill(probe, 3)
	if s.enclosed {
		s.deflatePressure(probe)
	}
	s.applyE(rhs, probe) // rhs ∈ range(E): every variant faces a consistent solve
	nr := math.Sqrt(s.pressureDot(rhs, rhs))
	if nr > 0 {
		inv := 1 / nr
		for i := range rhs {
			rhs[i] *= inv
		}
	}
	cands := make([]solver.PrecondCandidate, 0, 3)
	for _, name := range PrecondNames() {
		cands = append(cands, solver.PrecondCandidate{Name: name, Precond: s.precondOp(name)})
	}
	opt := solver.Options{Tol: s.Cfg.PTol, MaxIter: s.Cfg.PMaxIter, Scratch: s.cgScratch}
	name, trials := solver.SelectPrecond(s.applyE, s.pressureDot, x, rhs, opt, cands)
	if name == "" {
		name = PrecondSchwarz
	}
	s.precondName = name
	s.precondSel = solver.PrecondSelection{Name: name, Source: "trial", Trials: trials}
	s.pPrecondOp = s.precondOp(name)
	solver.RecordPrecond(key, name)
	return nil
}

// precondKey is this solver's selection-table key. The serial stepper keys
// as P=1; parrun sets Cfg.TuneRanks so distributed selections are keyed —
// and cached — separately per rank count.
func (s *Solver) precondKey() solver.PrecondKey {
	p := s.Cfg.TuneRanks
	if p < 1 {
		p = 1
	}
	return solver.PrecondKey{K: s.M.K, N: s.M.N, Dim: s.dim, P: p, Tol: s.Cfg.PTol}
}

// PrecondName returns the resolved pressure preconditioner variant
// ("schwarz", "chebjacobi", "chebschwarz" or "none").
func (s *Solver) PrecondName() string { return s.precondName }

// PrecondSelection reports how the variant was chosen ("forced", "default",
// "table" or "trial", with per-candidate trial stats in the latter case).
func (s *Solver) PrecondSelection() solver.PrecondSelection { return s.precondSel }

// ChebBounds returns the tuned Chebyshev parameters (λmin, λmax, degree)
// for a variant, or ok=false when that variant was not built. parrun reads
// these off the serial template so every rank runs identical coefficients.
func (s *Solver) ChebBounds(name string) (lmin, lmax float64, degree int, ok bool) {
	var c *solver.Chebyshev
	switch name {
	case PrecondChebJacobi:
		c = s.chebJacobi
	case PrecondChebSchwarz:
		c = s.chebSchwarz
	}
	if c == nil {
		return 0, 0, 0, false
	}
	return c.LMin, c.LMax, c.Degree, true
}

// PressureDiagE returns the exact diag(E) used by the Jacobi sweep (nil
// when the chebjacobi variant was not built). Read-only, global
// element-local pressure layout.
func (s *Solver) PressureDiagE() []float64 { return s.pDiagE }
