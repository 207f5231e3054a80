package ns

import (
	"time"

	"repro/internal/gs"
	"repro/internal/instrument"
)

// Machine is the seam between the time step and what executes it. The step
// is written once over the elements a solver owns, each element loop a plain
// loop on the calling goroutine; everything that differs between shared
// memory and a rank of a message-passing machine sits behind these calls:
//
//   - Elems lists the global ids of the owned elements, in the order of the
//     solver's local element blocks.
//   - Assemble applies QQᵀ (the direct stiffness sum over all solvers of the
//     run) to each of a list of velocity-grid fields stored in owned blocks,
//     in one exchange: the step hands it every field it assembles at one
//     point (the velocity components, a batch's operator images), so on a
//     rank the list costs the messages of one field. Each field assembles
//     bitwise as it would alone. No mask, no flops. The list is a slice, not
//     variadic: a variadic call through an interface allocates.
//   - Sum and Max join one value per solver into the value every solver sees;
//     SumN joins a short vector in one reduction, each slot bitwise as Sum would.
//   - Charge accounts local floating-point work by class: matrix–matrix
//     (the tensor-product kernels) and vector (everything pointwise, and
//     the coarse vertex solve).
//   - CoarseSolve turns the vertex residual this solver restricted from its
//     own elements into the Schwarz coarse solution on all vertices
//     (x0 = A₀⁻¹ Σ_solvers r0); it may overwrite r0.
//   - Begin and End bracket a Section for whoever keeps time: wall-clock
//     timers and spans in shared memory, the virtual clock on a rank. st is
//     the step's statistics so far (zero inside the preconditioner).
//
// Every solver of one run must issue the same sequence of Assemble, Sum, SumN,
// Max and CoarseSolve calls; the step guarantees it by deriving each decision
// from joined values only.
type Machine interface {
	Elems() []int
	Assemble(fields [][]float64)
	Sum(v float64) float64
	SumN(v []float64)
	Max(v float64) float64
	Charge(mm, vec int64)
	CoarseSolve(x0, r0 []float64)
	Begin(sec Section)
	End(sec Section, st StepStats)
}

// Section names a timed stretch of the step.
type Section int

// The sections of one step, in the order they first open. SchwarzLocal and
// SchwarzCoarse nest inside Pressure, once per preconditioner application.
const (
	SecStep Section = iota
	SecConvect
	SecViscous
	SecPressure
	SecScalar
	SecFilter
	SecSchwarzLocal
	SecSchwarzCoarse
	NumSections
)

var sectionNames = [NumSections]string{
	"ns/step", "ns/convect", "ns/viscous", "ns/pressure", "ns/scalar", "ns/filter",
	"schwarz/local", "schwarz/coarse",
}

// Name is the section's span and timer name.
func (s Section) Name() string { return sectionNames[s] }

// Cat is the section's trace category.
func (s Section) Cat() string {
	if s >= SecSchwarzLocal {
		return "precond"
	}
	return "ns"
}

// shared is the one-solver Machine of the shared-memory stepper: it owns
// every element, joins nothing, meters flops on the velocity Disc (their
// sum) and on itself (by class), and solves the coarse system with the
// Schwarz preconditioner's sparse factor.
type shared struct {
	s       *Solver
	elems   []int
	mm, vec int64 // charged flops by class
	open    [NumSections]struct {
		t  time.Time
		sp instrument.Span
	}
}

func (m *shared) Elems() []int { return m.elems }

func (m *shared) Assemble(fields [][]float64) { m.s.D.GS.ApplyFields(gs.Sum, fields...) }
func (m *shared) Sum(v float64) float64       { return v }
func (m *shared) SumN(v []float64)            {}
func (m *shared) Max(v float64) float64       { return v }

func (m *shared) Charge(mm, vec int64) {
	m.s.D.CountFlops(mm + vec)
	m.mm += mm
	m.vec += vec
}

func (m *shared) CoarseSolve(x0, r0 []float64) {
	m.Charge(0, m.s.pSchwarz.CoarseSolve(x0, r0))
}

// flops is an amount of local work by class, as Machine.Charge takes it.
type flops struct{ mm, vec int64 }

func (f flops) times(k int) flops { return flops{f.mm * int64(k), f.vec * int64(k)} }

func (f flops) plus(g flops) flops { return flops{f.mm + g.mm, f.vec + g.vec} }

// charge hands f to the machine.
func (s *Solver) charge(f flops) { s.mach.Charge(f.mm, f.vec) }

// ChargedFlops returns the matrix–matrix and the vector flops a
// shared-memory solver has charged since it was built; their sum is what it
// added to Disc().Flops(). A solver forked onto a rank charges its rank, and
// reads zero here.
func (s *Solver) ChargedFlops() (mm, vec int64) {
	if sh, ok := s.mach.(*shared); ok {
		return sh.mm, sh.vec
	}
	return 0, 0
}

func (m *shared) Begin(sec Section) {
	o := &m.open[sec]
	o.t = m.s.instr.sec[sec].Begin()
	o.sp = m.s.tracer.Begin(instrument.PidWall, 0, sec.Name(), sec.Cat())
}

func (m *shared) End(sec Section, st StepStats) {
	o := &m.open[sec]
	m.s.instr.sec[sec].End(o.t)
	m.s.instr.secHist[sec].ObserveSince(o.t)
	if m.s.tracer == nil {
		return
	}
	switch sec {
	case SecConvect:
		o.sp.EndWith(map[string]any{"substeps": st.Substeps})
	case SecPressure:
		o.sp.EndWith(map[string]any{"iterations": st.PressureIters, "converged": st.PressureConverged})
	default:
		o.sp.End()
	}
}
