package parrun

// ns.go runs the operator-splitting Navier–Stokes time advancement as a
// genuine SPMD program on the simulated machine. The step itself lives in
// internal/ns, written once over the ns.Machine seam; this file is the other
// side of that seam and the driver around it. Start builds the serial solver
// once as the read-only operator template, partitions the elements by
// recursive spectral bisection, splits the template's XXT coarse factor over
// the ranks, and sets one rank per part up; each rank forks the
// template into state sized by its own elements. StepN runs a batch of
// steps, every rank calling ns.Solver.Step on a rankMachine, whose methods
// are the distributed gather–scatter (gs.ParHandle), scalar allreduces, the
// virtual clock and the rank's XXT vertex solve (coarse.Dist.SolveNatural)
// — the per-step traffic of the paper's Figs. 6 and 8. The network carries
// the run's registry and tracer; the gather–scatter and the coarse solve
// take theirs from their rank. Between batches no rank is running: the
// ranks persist in the comm.Network and their solvers in the Stepper, so a
// snapshot is a plain read (Checkpoint). A P-rank run differs from the
// shared-memory stepper only by the reduction order of the inner products
// and by the coarse vertex solve. There is one factor of A₀ (coarse.XXT,
// built with the template) and two solves of it: the shared-memory machine
// runs L's triangular solves, the ranks the distributed product X Xᵀ b —
// same system, different rounding. Fields therefore agree with the serial
// solver to solver tolerance (1e-8 over tens of steps), not bitwise, even at
// P = 1.
//
// Cross-rank consistency: every CG/projection decision derives from
// allreduce results, which the simulated collectives make bitwise identical
// on all ranks, so the per-step statistics must agree exactly rank-to-rank.
// StepN verifies that after every batch and fails loudly on drift — the
// classic silent SPMD corruption — instead of reporting rank 0's view.

import (
	"fmt"

	"repro/internal/coarse"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/gs"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/partition"
	"repro/internal/solver"
)

// NSConfig controls a distributed Navier–Stokes run.
type NSConfig struct {
	P     int // simulated ASCI-Red ranks (at least 1, clamped to the element count)
	Steps int // total time steps of the run (default 1); a resumed
	// run executes steps Resume.Step()+1 .. Steps. Start steps nothing and only
	// checks a non-zero value against Resume.

	// Init is the initial velocity field (nil leaves it zero). Dirichlet
	// values are applied at t = 0 exactly as ns.Solver.SetVelocity does.
	Init func(x, y, z float64) (u, v, w float64)

	// Faults optionally degrades the simulated machine with a seeded
	// deterministic plan (stragglers, link jitter, message drops with
	// bounded-retry recovery, rank pauses); nil runs the flawless machine.
	Faults *fault.Plan

	// Resume continues a run from a snapshot: state, clocks, and fault-plan
	// sequence counters restore so the continuation is bitwise identical to
	// the uninterrupted run. The snapshot must come from the same problem
	// and rank count.
	Resume *Checkpoint

	Registry *instrument.Registry   // optional metrics; ranks read them back through comm.Rank.Registry
	Tracer   *instrument.Tracer     // optional trace (per-rank virtual tracks)
	History  *instrument.TimeSeries // optional per-step StepRecord telemetry

	// OnStep, when non-nil, is called by rank 0 after each completed step
	// with that step's statistics and rank 0's virtual clock. It runs inside
	// rank 0's body, on the goroutine that called StepN, while the other
	// ranks are parked — implementations must be fast (bench/'s per-step
	// host timing feeds on it).
	// It observes the run without perturbing it: no virtual-clock cost.
	OnStep func(st ns.StepStats, virtualSec float64)
}

// NSResult reports a distributed time advancement.
type NSResult struct {
	P          int // effective ranks (after clamping to the element count)
	RequestedP int // ranks the caller asked for
	Steps      int // total steps of the run (including any before a resume)
	FirstStep  int // completed steps inherited from a checkpoint (0 fresh)

	StepStats   []ns.StepStats // per executed step (identical on all ranks)
	StepVirtual []float64      // per executed step: modeled elapsed seconds (max across ranks)

	// PhaseVirtual breaks the modeled stepping time down by phase: the
	// per-rank average virtual seconds spent in convection subintegration,
	// the viscous Helmholtz solves, the pressure solve (the Schwarz/XXT/
	// allreduce-heavy phase, plus the scalar Helmholtz solve when there is a
	// scalar), and the filter + end-of-step bookkeeping, totalled over the
	// executed steps. Step 1's convection is timed from the end of the
	// slowest rank's set-up, so no phase carries a wait for the set-up. The
	// strong-scaling study reads the work-dominated → latency-dominated
	// crossover from these four numbers.
	PhaseVirtual [4]float64

	// Precond is the resolved pressure preconditioner variant the run used;
	// PrecondSel reports how it was chosen (forced, default, table hit, or a
	// trial tournament with per-candidate stats), from the serial template.
	Precond    string
	PrecondSel solver.PrecondSelection

	// Converged is true only when every pressure and viscous solve of every
	// step hit its tolerance; NonconvergedSteps counts the offenders.
	Converged         bool
	NonconvergedSteps int

	VirtualSeconds float64 // max rank clock (modeled completion time)
	TotalBytes     int64
	TotalMsgs      int64
	MMFlops        int64 // matrix–matrix flops charged, summed over ranks
	VecFlops       int64 // vector flops charged, summed over ranks
	CutEdges       int
	CrossCols      int

	// Fault-recovery accounting (all zero on a flawless machine).
	Drops         int64   // delivery attempts the network lost
	Retries       int64   // retransmissions that recovered them
	Pauses        int64   // pause windows ranks waited out
	FaultStallSec float64 // total virtual time lost to faults, summed over ranks

	Time     float64      // simulation time after the last step
	U        [3][]float64 // final velocity, reassembled to element-local layout
	Pressure []float64    // final pressure, reassembled (K*Npp)
	Scalar   []float64    // final scalar, reassembled (nil without scalar transport)
}

// rankStep is one rank's record of one step, cross-checked by the driver.
type rankStep struct {
	stats ns.StepStats
	vEnd  float64    // rank virtual clock at the end of the step
	phase [4]float64 // virtual seconds in convect/viscous/pressure/filter
}

// rankState is what one rank keeps between batches, and its records of the
// batch it last ran.
type rankState struct {
	mach *rankMachine
	f    *ns.Solver

	// Distribution rollups shared by all ranks through the registry: each
	// rank Observes its own per-step phase times into the same histograms,
	// so the merged per-phase distribution over all P ranks exists without
	// any per-rank trace track.
	phaseHist [4]*instrument.Histogram
	stepHist  *instrument.Histogram

	steps []rankStep             // the last batch, one per step
	hist  *instrument.TimeSeries // the last batch's telemetry rows (nil unless NSConfig.History)
	err   error
}

// Stepper is a distributed run between its set-up and its result, advanced
// in batches. Its methods must not be called concurrently.
type Stepper struct {
	cfg   NSConfig
	tmpl  *ns.Solver
	net   *comm.Network
	ranks []*comm.Rank // the network's ranks: clocks and traffic counters
	rs    []rankState

	res   NSResult // everything but the fields, accumulated batch by batch
	prevV float64  // cross-rank max clock at the last step boundary
}

// Start sets a run of nscfg's problem up on cfg.P simulated ranks — template,
// partition, coarse factorization, network, one Fork (and Restore, under
// cfg.Resume) per rank — and steps nothing.
func Start(nscfg ns.Config, cfg NSConfig) (*Stepper, error) {
	m := nscfg.Mesh
	if m == nil {
		return nil, fmt.Errorf("parrun: nil mesh")
	}
	requested := max(cfg.P, 1)
	p := min(requested, m.K) // every rank owns at least one element

	// One serial solver, built once, shared by all ranks as the read-only
	// operator template. It resolves any "auto" preconditioner selection
	// (under the same key as a shared-memory run of the problem), and its
	// resolved variant, Chebyshev bounds, and diag(E) are what every rank
	// forks — SPMD-uniform coefficients by construction.
	tmpl, err := ns.New(nscfg)
	if err != nil {
		return nil, fmt.Errorf("parrun: %w", err)
	}
	if cfg.Init != nil {
		tmpl.SetVelocity(cfg.Init)
	}

	// The distributed coarse XXT is only paid for when the resolved variant
	// actually runs the coarse term (the Schwarz sandwich): the Chebyshev
	// variants replace it with polynomial global coupling. It splits the
	// template's factor over the ranks; nothing is factored again.
	var xxt *coarse.Dist
	if tmpl.PrecondName() == ns.PrecondSchwarz {
		xxt = tmpl.CoarseFactor().Distribute(p)
	}

	part := partition.RSB(m.Adj, p)
	elems := make([][]int, p)
	for e, q := range part {
		elems[q] = append(elems[q], e)
	}

	s := &Stepper{cfg: cfg, tmpl: tmpl, rs: make([]rankState, p),
		res: NSResult{
			P: p, RequestedP: requested,
			Precond: tmpl.PrecondName(), PrecondSel: tmpl.PrecondSelection(),
			Converged: true, CutEdges: partition.CutEdges(m.Adj, part),
		}}
	if xxt != nil {
		s.res.CrossCols = xxt.CrossCount()
	}
	if ck := cfg.Resume; ck != nil {
		if err := ck.validateFor(p, cfg.Steps); err != nil {
			return nil, fmt.Errorf("parrun: %w", err)
		}
		s.res.FirstStep = ck.Step()
	}

	s.net = comm.NewNetwork(comm.ASCIRed(p))
	s.net.Attach(cfg.Registry)
	s.net.AttachTracer(cfg.Tracer)
	s.net.SetFaults(cfg.Faults)

	s.ranks = s.net.Run(func(r *comm.Rank) {
		s.rs[r.ID] = setUpRank(r, tmpl, elems[r.ID], xxt, cfg)
	})
	if err := s.batchErr(); err != nil {
		return nil, err
	}
	s.prevV = comm.MaxTime(s.ranks)
	return s, nil
}

// batchErr returns the first rank's error of the last batch, or an error if
// the batch left a message unreceived: a checkpoint between two batches reads
// ranks at rest and carries no message, so a resume would lose it.
func (s *Stepper) batchErr() error {
	for q := range s.rs {
		if err := s.rs[q].err; err != nil {
			return fmt.Errorf("parrun: rank %d: %w", q, err)
		}
	}
	if n := s.net.Undelivered(); n != 0 {
		return fmt.Errorf("parrun: the batch left %d messages undelivered", n)
	}
	return nil
}

// StepCount returns the number of completed steps.
func (s *Stepper) StepCount() int { return s.rs[0].f.StepCount() }

// Time returns the current simulation time.
func (s *Stepper) Time() float64 { return s.rs[0].f.Time() }

// Template returns the read-only serial solver every rank forked.
func (s *Stepper) Template() *ns.Solver { return s.tmpl }

// StepN advances every rank n steps in one batch — one comm.Network.Run, in
// which the ranks run ahead of and wait for each other as in an uninterrupted
// run — then cross-checks and accumulates the batch's records. It returns the
// last step's statistics. After an error the run is over.
func (s *Stepper) StepN(n int) (ns.StepStats, error) {
	target := s.StepCount() + n
	s.net.Run(func(r *comm.Rank) { s.rs[r.ID].run(r, target, s.cfg, s.prevV) })
	if err := s.batchErr(); err != nil {
		return ns.StepStats{}, err
	}
	// SPMD consistency: every rank must have seen identical per-step solver
	// statistics (all decisions derive from bitwise-uniform allreduces).
	p, batch := len(s.rs), s.rs[0].steps
	for q := 1; q < p; q++ {
		if len(s.rs[q].steps) != len(batch) {
			return ns.StepStats{}, fmt.Errorf("parrun: rank %d ran %d steps, rank 0 ran %d (SPMD drift)",
				q, len(s.rs[q].steps), len(batch))
		}
		for k := range batch {
			if a, b := batch[k].stats, s.rs[q].steps[k].stats; a != b {
				return ns.StepStats{}, fmt.Errorf("parrun: step %d statistics disagree between rank 0 and rank %d "+
					"(p-iters %d/%d, res %g/%g): replicated-scalar drift", a.Step,
					q, a.PressureIters, b.PressureIters, a.PressureResFinal, b.PressureResFinal)
			}
		}
	}

	// Every rank recorded the same telemetry rows (their inputs are joined
	// values); rank 0's go out, stamped with the modeled step time.
	var records []any
	if s.cfg.History != nil {
		records = s.rs[0].hist.Records()
	}
	res := &s.res
	var last ns.StepStats
	for k, rs := range batch {
		// Per-step modeled elapsed time: the cross-rank max clock at each step
		// boundary, differenced. This is the column the fault tables compare
		// between a flawless and a degraded machine.
		endV := 0.0
		for q := range s.rs {
			endV = max(endV, s.rs[q].steps[k].vEnd)
			for i, v := range s.rs[q].steps[k].phase {
				res.PhaseVirtual[i] += v / float64(p)
			}
		}
		stepV := endV - s.prevV
		s.prevV = endV
		res.StepVirtual = append(res.StepVirtual, stepV)
		res.StepStats = append(res.StepStats, rs.stats)
		if !rs.stats.PressureConverged || !rs.stats.ViscousConverged {
			res.Converged = false
			res.NonconvergedSteps++
		}
		if s.cfg.History != nil {
			rec := records[k].(ns.StepRecord)
			rec.VirtualSeconds = stepV
			s.cfg.History.Append(rec)
		}
		last = rs.stats
	}
	return last, nil
}

// VirtualSeconds is the modeled completion time so far: the max rank clock.
func (s *Stepper) VirtualSeconds() float64 { return comm.MaxTime(s.ranks) }

// Checkpoint snapshots every rank's solver state and clock: a read of state
// at rest, with no message and no virtual-clock cost.
func (s *Stepper) Checkpoint() *Checkpoint {
	states := make([]RankCheckpoint, len(s.rs))
	for q := range s.rs {
		states[q] = RankCheckpoint{Rank: q, Clock: s.ranks[q].Clock(), State: s.rs[q].f.Checkpoint()}
	}
	return &Checkpoint{Version: CheckpointVersion, P: len(s.rs), Ranks: states}
}

// Result reports the run so far, with the fields gathered back to the serial
// element-local layout.
func (s *Stepper) Result() *NSResult {
	res := s.res
	res.Steps = s.StepCount()
	res.Time = s.tmpl.Time() + float64(res.Steps)*s.tmpl.Cfg.Dt
	res.VirtualSeconds = s.VirtualSeconds()
	res.TotalBytes = comm.TotalBytes(s.ranks)
	for _, rk := range s.ranks {
		res.TotalMsgs += rk.MsgsSent
		res.MMFlops += rk.MMFlops
		res.VecFlops += rk.VecFlops
		res.Drops += rk.Drops
		res.Retries += rk.Retries
		res.Pauses += rk.Pauses
		res.FaultStallSec += rk.StallSec
	}
	m := s.tmpl.M
	np, npp := m.Np, s.tmpl.Npp()
	for c := 0; c < m.Dim; c++ {
		res.U[c] = make([]float64, m.K*np)
	}
	res.Pressure = make([]float64, m.K*npp)
	if s.tmpl.Scalar() != nil {
		res.Scalar = make([]float64, m.K*np)
	}
	for q := range s.rs {
		f := s.rs[q].f
		for li, e := range s.rs[q].mach.mine {
			for c := 0; c < m.Dim; c++ {
				copy(res.U[c][e*np:(e+1)*np], f.Velocity(c)[li*np:(li+1)*np])
			}
			copy(res.Pressure[e*npp:(e+1)*npp], f.Pressure()[li*npp:(li+1)*npp])
			if res.Scalar != nil {
				copy(res.Scalar[e*np:(e+1)*np], f.Scalar()[li*np:(li+1)*np])
			}
		}
	}
	return &res
}

// NavierStokes advances nscfg's problem to cfg.Steps time steps on cfg.P
// simulated ranks: Start, one StepN to the target, Result. Snapshots are the
// driver's: Stepper.Checkpoint between two batches.
func NavierStokes(nscfg ns.Config, cfg NSConfig) (*NSResult, error) {
	if cfg.Steps < 1 {
		cfg.Steps = 1
	}
	s, err := Start(nscfg, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := s.StepN(cfg.Steps - s.StepCount()); err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// rankMachine is ns.Machine on one rank of the simulated machine: the owned
// elements of the partition, a plain loop over them, the distributed
// gather–scatter, scalar and short-vector allreduces, the virtual clock for
// flops and for sections (traced as spans on the rank's track), and the
// rank's side of the distributed XXT vertex solve.
type rankMachine struct {
	r    *comm.Rank
	mine []int
	h    *gs.ParHandle
	t0   [ns.NumSections]float64 // virtual time each section last opened

	// Coarse solve (nil xxt when the resolved variant has no coarse term):
	// the factor, shared and read-only by every rank, and this rank's work.
	xxt     *coarse.Dist
	xxtWork *coarse.SolveWork
}

func (m *rankMachine) Elems() []int { return m.mine }

func (m *rankMachine) Assemble(fields [][]float64) { m.h.ApplyFields(gs.Sum, fields...) }
func (m *rankMachine) Sum(v float64) float64       { return m.r.AllreduceScalar(v, comm.OpSum) }
func (m *rankMachine) SumN(v []float64)            { m.r.Allreduce(v, comm.OpSum) }
func (m *rankMachine) Max(v float64) float64       { return m.r.AllreduceScalar(v, comm.OpMax) }
func (m *rankMachine) Charge(mm, vec int64)        { m.r.Compute(mm, vec) }

func (m *rankMachine) CoarseSolve(x0, r0 []float64) { m.xxt.SolveNatural(m.r, x0, r0, m.xxtWork) }

func (m *rankMachine) Begin(sec ns.Section) { m.t0[sec] = m.r.Time }

func (m *rankMachine) End(sec ns.Section, st ns.StepStats) {
	id, tr := m.r.ID, m.r.Tracer()
	// The step itself gets no span on a rank track: its phases tile it.
	if sec == ns.SecStep || !tr.WantsV(id) {
		return
	}
	var args map[string]any
	switch sec {
	case ns.SecConvect:
		args = map[string]any{"step": st.Step, "substeps": st.Substeps}
	case ns.SecViscous:
		args = map[string]any{"step": st.Step, "iters": st.HelmholtzIters[0]}
	case ns.SecPressure:
		args = map[string]any{"step": st.Step, "iterations": st.PressureIters, "converged": st.PressureConverged}
	case ns.SecSchwarzLocal:
		args = map[string]any{"elems": len(m.mine)}
	case ns.SecSchwarzCoarse:
		args = map[string]any{"nvert": m.xxt.N}
	default:
		args = map[string]any{"step": st.Step}
	}
	tr.SpanV(id, sec.Name(), sec.Cat(), m.t0[sec], m.r.Time, args)
}

// setUpRank is the set-up half of one rank's SPMD body: build the rank's
// side of the seam, fork the template onto it, restore a snapshot if resuming.
func setUpRank(r *comm.Rank, tmpl *ns.Solver, mine []int, xxt *coarse.Dist, cfg NSConfig) rankState {
	m := tmpl.M
	np := m.Np
	gids := make([]int64, len(mine)*np)
	for li, e := range mine {
		copy(gids[li*np:(li+1)*np], m.GID[e*np:(e+1)*np])
	}
	mach := &rankMachine{r: r, mine: mine, h: gs.ParInit(r, gids), xxt: xxt}
	if xxt != nil {
		mach.xxtWork = xxt.NewSolveWork(r)
	}
	reg := r.Registry()
	rs := rankState{mach: mach, stepHist: reg.Histogram("ns/step.vsec")}
	for i, name := range [4]string{"convect", "viscous", "pressure", "filter"} {
		rs.phaseHist[i] = reg.Histogram("ns/" + name + ".vsec")
	}
	if rs.f, rs.err = tmpl.Fork(mach, reg); rs.err != nil {
		return rs
	}
	// Resume: overwrite the freshly forked state with the snapshot's, then
	// restore the virtual clock last so the continuation picks up exactly
	// where the checkpointed run's clock stood (the setup traffic above
	// happened at earlier virtual times in the original run too).
	if ck := cfg.Resume; ck != nil {
		st := ck.Ranks[r.ID]
		if err := rs.f.Restore(st.State); err != nil {
			rs.err = fmt.Errorf("checkpoint: %w", err)
			return rs
		}
		r.SetClock(st.Clock)
	}
	return rs
}

// run is the stepping half: advance this rank's solver to target completed
// steps, recording each step for the driver's cross-check. prevV is the
// cross-rank max clock before the batch: before step 1, the end of the
// slowest rank's set-up.
func (rs *rankState) run(r *comm.Rank, target int, cfg NSConfig, prevV float64) {
	f, mach := rs.f, rs.mach
	rs.steps = rs.steps[:0]
	if cfg.History != nil {
		rs.hist = instrument.NewTimeSeries()
		f.AttachHistory(rs.hist)
	}
	for f.StepCount() < target {
		st, err := f.Step()
		if err != nil {
			rs.err = err
			return
		}
		// Phase breakdown on the rank's virtual clock, from where the
		// sections opened; the pressure slot also carries a scalar Helmholtz
		// solve, the filter slot the end-of-step bookkeeping (history
		// rotation, NaN allreduce, optional divergence telemetry).
		// Step 1 starts when the slowest rank's set-up ends: a rank done
		// sooner waits for it in the step's first exchange, and that wait
		// is the set-up's, not convection's.
		t0, end := &mach.t0, r.Time
		start := t0[ns.SecConvect]
		if st.Step == 1 {
			start = prevV
		}
		rec := rankStep{stats: st, vEnd: end, phase: [4]float64{
			t0[ns.SecViscous] - start, t0[ns.SecPressure] - t0[ns.SecViscous],
			t0[ns.SecFilter] - t0[ns.SecPressure], end - t0[ns.SecFilter]}}
		for i, v := range rec.phase {
			rs.phaseHist[i].Observe(v)
		}
		rs.stepHist.Observe(end - start)
		rs.steps = append(rs.steps, rec)
		if cfg.OnStep != nil && r.ID == 0 {
			cfg.OnStep(st, end)
		}
	}
}
