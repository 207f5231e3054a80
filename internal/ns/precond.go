package ns

// precond.go: runtime-selected pressure preconditioning. The overlapping
// Schwarz(FDM)+coarse preconditioner on the pressure grid (operators.go,
// schwarz.Pressure) is the reference; this file adds the Chebyshev-accelerated
// point-Jacobi and Schwarz-smoothing variants of Phillips et al. and the
// "auto" mode that trials schwarz, then chebschwarz, per (K, N, dim, tol) and
// picks the short trial solve charging the least work, recording the winner
// in solver's process-wide table, so a process trials a configuration once;
// chebjacobi runs only when forced or recorded (autoEntrants). What is tuned
// or chosen here — the variant, the Chebyshev bounds, diag(E) — lands in the
// template, so every solver forked from it applies the same preconditioner.

import (
	"fmt"
	"math"
	"slices"

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

// chebParams are the tuned parameters of one Chebyshev variant. Jacobi is a
// weak sweep and needs a longer polynomial (degree 5); the Schwarz sweep is
// strong enough that two terms recover most of what the coarse solve
// provided.
type chebParams struct {
	lmin, lmax float64
	degree     int
}

// ValidPrecond reports whether name is an accepted PressurePrecond value
// ("" aside, which New reads as schwarz).
func ValidPrecond(name string) bool {
	switch name {
	case PrecondSchwarz, PrecondNone, PrecondChebJacobi, PrecondChebSchwarz, PrecondAuto:
		return true
	}
	return false
}

// PrecondNames lists every concrete variant (no "auto"), the reference
// first.
func PrecondNames() []string {
	return []string{PrecondSchwarz, PrecondChebJacobi, PrecondChebSchwarz}
}

// autoEntrants are the variants an "auto" tournament trials, in order: the
// reference first, so selection ties keep it. chebjacobi is left out: its
// cold trial and its warm steps charged more work than both entrants on the
// channel and the hairpin box (TestColdTrialRankMatchesWarmWork holds that).
var autoEntrants = []string{PrecondSchwarz, PrecondChebSchwarz}

// buildPrecondOperators settles which variants this solver builds and
// builds what they need before any solver state exists: the Schwarz
// preconditioner with its FDM factors and coarse factor, and diag(E). A named
// variant (forced records whether the caller named it, vs the "" → schwarz
// default) is built alone, and so is the installed table's record for an
// "auto" key; an "auto" key without one builds the entrants of the
// tournament resolvePrecond runs.
func (s *Solver) buildPrecondOperators(forced bool) error {
	s.precondSel = solver.PrecondSelection{Name: s.Cfg.PressurePrecond, Source: "forced"}
	if !forced {
		s.precondSel.Source = "default"
	}
	if s.precondSel.Name == PrecondAuto {
		if name, ok := solver.InstalledPrecondTable().Lookup(s.precondKey()); ok {
			s.precondSel = solver.PrecondSelection{Name: name, Source: "table"}
		}
	}
	if s.builds(PrecondSchwarz) || s.builds(PrecondChebSchwarz) {
		pre, err := schwarz.NewPressure(s.DN)
		if err != nil {
			return fmt.Errorf("ns: pressure preconditioner: %w", err)
		}
		s.pSchwarz = pre
	}
	if s.builds(PrecondChebJacobi) {
		s.pDiagE = s.pressureDiagE()
	}
	return nil
}

// builds reports whether variant name is built: it is the selection, or the
// selection is still "auto" and name enters the tournament.
func (t *template) builds(name string) bool {
	return t.precondSel.Name == name ||
		t.precondSel.Name == PrecondAuto && slices.Contains(autoEntrants, name)
}

// resolvePrecond tunes the Chebyshev bounds of the built variants, runs the
// tournament if "auto" is still open, and binds the resolved variant to s. It
// needs s's state: the bounds come from power iterations on E, the
// tournament from trial solves.
func (s *Solver) resolvePrecond() {
	if s.builds(PrecondChebJacobi) {
		s.tuneCheb(PrecondChebJacobi, 5)
	}
	if s.builds(PrecondChebSchwarz) {
		s.tuneCheb(PrecondChebSchwarz, 2)
	}
	if s.precondSel.Name == PrecondAuto {
		s.precondSel = s.autoSelectPrecond()
	}
	s.pPrecondOp = s.precondOp(s.precondSel.Name)
}

// precondOp returns a resolved concrete variant bound to this solver's
// arenas (nil for "none"), with the enclosed-domain null-space handling
// around it: input and output are projected off the constant mode.
func (s *Solver) precondOp(name string) solver.Operator {
	var sweep solver.Operator
	switch name {
	case PrecondSchwarz:
		sweep = func(out, r []float64) { s.sandwich(out, r, true) }
	case PrecondChebJacobi, PrecondChebSchwarz:
		sweep = s.newCheb(name).Apply
	default:
		return nil
	}
	if !s.enclosed {
		return sweep
	}
	// Chebyshev.Apply copies its input into its own arena before the base
	// sweep runs, so sharing rinArena with nothing else is enough.
	return func(out, r []float64) {
		rin := s.rinArena
		copy(rin, r)
		s.deflatePressure(rin)
		sweep(out, rin)
		s.deflatePressure(out)
	}
}

// newCheb returns a Chebyshev preconditioner over this solver's E with the
// template's parameters for the variant: the base sweep is point-Jacobi on
// diag(E), or the sandwich without the coarse term (the polynomial supplies
// the global coupling, so each application costs the local FDM solves only).
func (s *Solver) newCheb(name string) *solver.Chebyshev {
	p := s.cheb[name]
	c := &solver.Chebyshev{A: s.applyE, Degree: p.degree, LMin: p.lmin, LMax: p.lmax}
	if name == PrecondChebJacobi {
		c.Base = func(out, in []float64) { s.pointJacobi(out, in, s.diagE) }
	} else {
		c.Base = func(out, in []float64) { s.sandwich(out, in, false) }
	}
	return c
}

// tuneCheb estimates a variant's eigenvalue bounds by a short power
// iteration on the preconditioned operator, verifies them (inflating an
// underestimate) with Calibrate, and records them in the template.
func (s *Solver) tuneCheb(name string, degree int) {
	s.cheb[name] = chebParams{degree: degree}
	c := s.newCheb(name)
	var deflate func([]float64)
	if s.enclosed {
		deflate = s.deflatePressure
	}
	n := len(s.P)
	c.EstimateBounds(s.pressureDot, n, 20, deflate)
	c.Calibrate(s.pressureDot, n, deflate)
	s.cheb[name] = chebParams{lmin: c.LMin, lmax: c.LMax, degree: degree}
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
func (t *template) pressureDiagE() []float64 {
	m := t.M
	np := m.Np
	d := make([]float64, m.K*t.npp)
	work := make([]float64, t.InterpWorkLen())
	tv := make([]float64, np)
	we := make([]float64, np)
	pe := make([]float64, t.npp)
	outs := make([][]float64, t.dim)
	for c := range outs {
		outs[c] = make([]float64, np)
	}
	for e := 0; e < m.K; e++ {
		w := t.invBm[e*np : (e+1)*np]
		for i := 0; i < t.npp; i++ {
			pe[i] = 1
			t.gradTElem(outs, pe, e, 1, work, tv, we)
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
			d[e*t.npp+i] = v
		}
	}
	return d
}

// autoSelectPrecond runs the tournament of an "auto" key the installed
// table has no record for — one short CG per entrant against a synthetic
// in-range right-hand side, each charging the flop meter — and records the
// winner in the table for later sessions.
func (s *Solver) autoSelectPrecond() solver.PrecondSelection {
	n := len(s.P)
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
	cands := make([]solver.PrecondCandidate, 0, len(autoEntrants))
	for _, name := range autoEntrants {
		cands = append(cands, solver.PrecondCandidate{Name: name, Precond: s.precondOp(name)})
	}
	opt := solver.Options{Tol: s.Cfg.PTol, MaxIter: s.Cfg.PMaxIter, Scratch: s.cgScratch}
	name, trials := solver.SelectPrecond(s.applyE, s.pressureDot, x, rhs, opt, cands, s.D.Flops)
	if name == "" {
		name = PrecondSchwarz
	}
	solver.RecordPrecond(s.precondKey(), name)
	return solver.PrecondSelection{Name: name, Source: "trial", Trials: trials}
}

// precondKey is this solver's selection-table key. A distributed run
// resolves "auto" on its serial template, so one key serves every rank count.
func (s *Solver) precondKey() solver.PrecondKey {
	return solver.PrecondKey{K: s.M.K, N: s.M.N, Dim: s.dim, Tol: s.Cfg.PTol}
}

// ApplyPrecond applies the resolved pressure preconditioner to the owned
// residual blocks r (the identity for "none"). It is a collective: every
// solver of a run calls it together.
func (s *Solver) ApplyPrecond(out, r []float64) {
	if s.pPrecondOp == nil {
		copy(out, r)
		return
	}
	s.pPrecondOp(out, r)
}

// PrecondName returns the resolved pressure preconditioner variant
// ("schwarz", "chebjacobi", "chebschwarz" or "none").
func (s *Solver) PrecondName() string { return s.precondSel.Name }

// PrecondSelection reports how the variant was chosen ("forced", "default",
// "table" or "trial", with per-candidate trial stats in the latter case).
func (s *Solver) PrecondSelection() solver.PrecondSelection { return s.precondSel }

// ChebBounds returns the tuned Chebyshev parameters (λmin, λmax, degree)
// for a variant, or ok=false when that variant was not built.
func (s *Solver) ChebBounds(name string) (lmin, lmax float64, degree int, ok bool) {
	p, ok := s.cheb[name]
	return p.lmin, p.lmax, p.degree, ok
}

// PressureDiagE returns the exact diag(E) used by the Jacobi sweep (nil
// when the chebjacobi variant was not built). Read-only, global
// element-local pressure layout.
func (s *Solver) PressureDiagE() []float64 { return s.pDiagE }
