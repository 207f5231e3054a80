package parrun

// ns.go runs the full operator-splitting Navier–Stokes time advancement as
// a genuine SPMD program on the simulated machine: each goroutine rank owns
// an RSB-partitioned subset of elements and keeps rank-local block storage
// for every field, the convective subintegration / viscous Helmholtz /
// pressure / filter phases run element-by-element on the owned blocks, and
// all coupling goes through the distributed gather–scatter, allreduce inner
// products, and the distributed XXT coarse solve — the per-step traffic of
// the paper's Figs. 6 and 8. The arithmetic per element is exactly the
// serial ns.Solver's (the rank kernels are the same code), so a P-rank run
// differs from the serial stepper only by the reduction order of the inner
// products and by the coarse vertex solve, which routes through the
// distributed XXT factorization instead of the serial sandwich's direct
// solve — same system, different rounding. Fields therefore agree with the
// serial solver to solver tolerance (1e-8 over tens of steps), not bitwise,
// even at P = 1.
//
// Cross-rank consistency: every CG/projection decision derives from
// allreduce results, which the simulated collectives make bitwise identical
// on all ranks, so the per-step statistics must agree exactly rank-to-rank.
// NavierStokes verifies that after the run and fails loudly on drift — the
// classic silent SPMD corruption — instead of reporting rank 0's view.

import (
	"fmt"
	"math"

	"repro/internal/coarse"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/gs"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/partition"
	"repro/internal/schwarz"
	"repro/internal/sem"
	"repro/internal/solver"
)

// NSConfig controls a distributed Navier–Stokes run.
type NSConfig struct {
	P       int          // simulated ranks (clamped to the element count)
	Machine comm.Machine // zero value: ASCIRed(P); Machine.P must match P when set
	Steps   int          // total time steps of the run (default 1); a resumed
	// run executes steps Resume.Step+1 .. Steps

	// Init is the initial velocity field (nil leaves it zero). Dirichlet
	// values are applied at t = 0 exactly as ns.Solver.SetVelocity does.
	Init func(x, y, z float64) (u, v, w float64)

	// Faults optionally degrades the simulated machine with a seeded
	// deterministic plan (stragglers, link jitter, message drops with
	// bounded-retry recovery, rank pauses); nil runs the flawless machine.
	Faults *fault.Plan

	// CheckpointDir + CheckpointEvery write a versioned snapshot of the
	// full stepper state (fields, BDF-OIFS history, projection basis, step
	// index, virtual clocks) every CheckpointEvery steps. Snapshot I/O is
	// invisible to the simulated machine: enabling it changes nothing about
	// the run. CheckpointEvery <= 0 disables writing.
	CheckpointDir   string
	CheckpointEvery int

	// Resume continues a run from a snapshot: state, clocks, and fault-plan
	// sequence counters restore so the continuation is bitwise identical to
	// the uninterrupted run. The snapshot must come from the same problem
	// and rank count.
	Resume *Checkpoint

	Registry *instrument.Registry   // optional metrics
	Tracer   *instrument.Tracer     // optional trace (per-rank virtual tracks)
	History  *instrument.TimeSeries // optional per-step StepRecord telemetry

	// OnStep, when non-nil, is called by rank 0 after each completed step
	// with that step's statistics and rank 0's virtual clock. It runs on the
	// rank-0 goroutine while the machine is live — implementations must be
	// fast and concurrency-safe (the live /progress endpoint feeds on it).
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
	// allreduce-heavy phase), and the filter + end-of-step bookkeeping,
	// totalled over the executed steps. The strong-scaling study reads the
	// work-dominated → latency-dominated crossover from these four numbers.
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
	CutEdges       int
	CrossCols      int

	// Fault-recovery accounting (all zero on a flawless machine).
	Drops         int64   // delivery attempts the network lost
	Retries       int64   // retransmissions that recovered them
	Pauses        int64   // pause windows ranks waited out
	FaultStallSec float64 // total virtual time lost to faults, summed over ranks

	CheckpointsWritten int

	Time     float64      // simulation time after the last step
	U        [3][]float64 // final velocity, reassembled to element-local layout
	Pressure []float64    // final pressure, reassembled (K*Npp)
}

// rankStep is one rank's record of one step, cross-checked by the driver.
type rankStep struct {
	stats   ns.StepStats
	resHist []float64
	maxDiv  float64
	filterE float64
	vEnd    float64    // rank virtual clock at the end of the step
	phase   [4]float64 // virtual seconds in convect/viscous/pressure/filter
}

type rankOut struct {
	steps  []rankStep
	u      [3][]float64
	p      []float64
	vStart float64 // rank virtual clock entering the first executed step
	err    error
}

// NavierStokes advances nscfg's problem by cfg.Steps time steps on cfg.P
// simulated ranks. The returned fields are the distributed run's, gathered
// back to the serial element-local layout.
func NavierStokes(nscfg ns.Config, cfg NSConfig) (*NSResult, error) {
	if nscfg.Scalar != nil {
		return nil, fmt.Errorf("parrun: scalar transport is not supported distributed")
	}
	if nscfg.SkewWeight != 0 {
		return nil, fmt.Errorf("parrun: skew-symmetric convection is not supported distributed")
	}
	if cfg.Steps < 1 {
		cfg.Steps = 1
	}
	m := nscfg.Mesh
	if m == nil {
		return nil, fmt.Errorf("parrun: nil mesh")
	}
	requested, mach, err := resolveRanks(cfg.P, cfg.Machine, m.K)
	if err != nil {
		return nil, err
	}
	p := mach.P

	// One serial solver, built once, shared by all ranks as a read-only
	// operator template: its per-element kernels take caller scratch or pool
	// scratch, never the solver's own arenas. TuneRanks keys any "auto"
	// preconditioner selection (and its cache entry) to this rank count, and
	// the template's resolved variant, Chebyshev bounds, and diag(E) are read
	// by every rank — SPMD-uniform coefficients by construction.
	nscfg.Workers = 1
	nscfg.TuneRanks = p
	tmpl, err := ns.New(nscfg)
	if err != nil {
		return nil, fmt.Errorf("parrun: %w", err)
	}
	if cfg.Init != nil {
		tmpl.SetVelocity(cfg.Init)
	}

	// The distributed coarse XXT is only paid for when the resolved variant
	// actually runs the coarse term (the Schwarz sandwich): the Chebyshev
	// variants replace it with polynomial global coupling.
	var xxt *coarse.XXT
	if tmpl.PressurePre() != nil && tmpl.PrecondName() == ns.PrecondSchwarz {
		xxt, err = coarse.NewXXT(tmpl.PressurePre().CoarseOperator(), 0, 0, p)
		if err != nil {
			return nil, fmt.Errorf("parrun: coarse setup: %w", err)
		}
		xxt.Attach(cfg.Registry)
		xxt.AttachTracer(cfg.Tracer)
	}

	part := partition.RSB(m.Adj, p)
	elems := make([][]int, p)
	for e, q := range part {
		elems[q] = append(elems[q], e)
	}

	firstStep := 0
	if ck := cfg.Resume; ck != nil {
		if err := ck.validateFor(p, m.K, m.N, m.Dim, m.Np, tmpl.Npp(), cfg.Steps); err != nil {
			return nil, fmt.Errorf("parrun: %w", err)
		}
		firstStep = ck.Step
	}
	var sink *ckptSink
	if cfg.CheckpointDir != "" && cfg.CheckpointEvery > 0 {
		sink = newCkptSink(cfg.CheckpointDir, p, Checkpoint{
			K: m.K, N: m.N, Dim: m.Dim, Np: m.Np, Npp: tmpl.Npp()})
	}

	net := comm.NewNetwork(mach)
	net.Attach(cfg.Registry)
	net.AttachTracer(cfg.Tracer)
	net.SetFaults(cfg.Faults)

	// The permuted-to-original vertex map is identical on every rank:
	// compute it once here instead of NVert-sized work and storage per rank.
	var invPerm []int
	if xxt != nil {
		invPerm = make([]int, len(xxt.Perm))
		for newi, old := range xxt.Perm {
			invPerm[old] = newi
		}
	}

	outs := make([]rankOut, p)
	ranks := net.Run(func(r *comm.Rank) {
		outs[r.ID] = nsRankBody(r, tmpl, elems[r.ID], xxt, invPerm, cfg, sink, firstStep)
	})
	if sink != nil && sink.err != nil {
		return nil, fmt.Errorf("parrun: checkpoint write: %w", sink.err)
	}
	for q := range outs {
		if outs[q].err != nil {
			return nil, fmt.Errorf("parrun: rank %d: %w", q, outs[q].err)
		}
	}
	// SPMD consistency: every rank must have seen identical per-step solver
	// statistics (all decisions derive from bitwise-uniform allreduces).
	for q := 1; q < p; q++ {
		if len(outs[q].steps) != len(outs[0].steps) {
			return nil, fmt.Errorf("parrun: rank %d ran %d steps, rank 0 ran %d (SPMD drift)",
				q, len(outs[q].steps), len(outs[0].steps))
		}
		for k := range outs[0].steps {
			a, b := outs[0].steps[k].stats, outs[q].steps[k].stats
			if a.PressureIters != b.PressureIters || a.PressureConverged != b.PressureConverged ||
				a.PressureResFinal != b.PressureResFinal || a.HelmholtzIters != b.HelmholtzIters ||
				a.ViscousConverged != b.ViscousConverged || a.Substeps != b.Substeps {
				return nil, fmt.Errorf("parrun: step %d statistics disagree between rank 0 and rank %d "+
					"(p-iters %d/%d, res %g/%g): replicated-scalar drift", k+1,
					q, a.PressureIters, b.PressureIters, a.PressureResFinal, b.PressureResFinal)
			}
		}
	}

	res := &NSResult{
		P:              p,
		RequestedP:     requested,
		Steps:          cfg.Steps,
		FirstStep:      firstStep,
		Precond:        tmpl.PrecondName(),
		PrecondSel:     tmpl.PrecondSelection(),
		Converged:      true,
		VirtualSeconds: comm.MaxTime(ranks),
		TotalBytes:     comm.TotalBytes(ranks),
		CutEdges:       partition.CutEdges(m.Adj, part),
		Time:           tmpl.Time() + float64(cfg.Steps)*nscfg.Dt,
	}
	if xxt != nil {
		res.CrossCols = xxt.CrossCount()
	}
	if sink != nil {
		res.CheckpointsWritten = sink.written
	}
	for _, rk := range ranks {
		res.TotalMsgs += rk.MsgsSent
		res.Drops += rk.Drops
		res.Retries += rk.Retries
		res.Pauses += rk.Pauses
		res.FaultStallSec += rk.StallSec
	}
	// Per-step modeled elapsed time: the cross-rank max clock at each step
	// boundary, differenced. This is the column the fault tables compare
	// between a flawless and a degraded machine.
	prevV := 0.0
	for q := range outs {
		if outs[q].vStart > prevV {
			prevV = outs[q].vStart
		}
	}
	for k := range outs[0].steps {
		endV := 0.0
		for q := range outs {
			if outs[q].steps[k].vEnd > endV {
				endV = outs[q].steps[k].vEnd
			}
			for i, v := range outs[q].steps[k].phase {
				res.PhaseVirtual[i] += v / float64(p)
			}
		}
		res.StepVirtual = append(res.StepVirtual, endV-prevV)
		prevV = endV
	}
	for si, rs := range outs[0].steps {
		res.StepStats = append(res.StepStats, rs.stats)
		if !rs.stats.PressureConverged || !rs.stats.ViscousConverged {
			res.Converged = false
			res.NonconvergedSteps++
		}
		if cfg.History != nil {
			cfg.History.Append(ns.StepRecord{
				VirtualSeconds:    res.StepVirtual[si],
				Step:              rs.stats.Step,
				Time:              rs.stats.Time,
				CFL:               rs.stats.CFL,
				Substeps:          rs.stats.Substeps,
				PressureIters:     rs.stats.PressureIters,
				PressureConverged: rs.stats.PressureConverged,
				PressureRes0:      rs.stats.PressureRes0,
				PressureResFinal:  rs.stats.PressureResFinal,
				PressureResHist:   rs.resHist,
				HelmholtzIters:    rs.stats.HelmholtzIters,
				ViscousConverged:  rs.stats.ViscousConverged,
				ProjectionBasis:   rs.stats.ProjectionBasis,
				MaxDivergence:     rs.maxDiv,
				FilterEnergy:      rs.filterE,
			})
		}
	}
	// Reassemble the final fields to the serial element-local layout.
	np, npp := m.Np, tmpl.Npp()
	for c := 0; c < m.Dim; c++ {
		res.U[c] = make([]float64, m.K*np)
	}
	res.Pressure = make([]float64, m.K*npp)
	for q := range elems {
		for li, e := range elems[q] {
			for c := 0; c < m.Dim; c++ {
				copy(res.U[c][e*np:(e+1)*np], outs[q].u[c][li*np:(li+1)*np])
			}
			copy(res.Pressure[e*npp:(e+1)*npp], outs[q].p[li*npp:(li+1)*npp])
		}
	}
	return res, nil
}

// nsRank is the per-rank state of the distributed stepper.
type nsRank struct {
	r    *comm.Rank
	tmpl *ns.Solver
	d    *sem.Disc // template's velocity-grid Disc (element kernels only)
	mine []int
	cfg  NSConfig

	np, npp     int
	nloc, nlocP int
	dim         int

	h    *gs.ParHandle
	mult []float64

	maskLoc   []float64 // velocity Dirichlet mask blocks (nil = none)
	bLoc      []float64 // quadrature mass blocks
	bAssemLoc []float64 // assembled mass blocks
	invBmLoc  []float64 // mask / assembled mass blocks: the pointwise middle of E

	// Fields (rank-local blocks).
	U     [3][]float64
	Uh    [][3][]float64
	Pl    []float64
	ustar [3][]float64
	utils [][3][]float64

	// Scratch.
	bufPool  [][]float64 // velocity-grid length-nloc freelist
	iwork    []float64   // interpolation scratch
	tvWork   []float64
	weWork   []float64
	gp       [3][]float64
	bArena   []float64
	huArena  []float64
	duArena  []float64
	rpArena  []float64
	dpArena  []float64
	divArena []float64
	rinArena []float64
	zvArena  []float64
	rvArena  []float64
	histBuf  [][3][]float64

	diagLoc        []float64
	diagH1, diagH2 float64
	cgScratch      *solver.Scratch
	projector      *solver.Projector

	// Resolved pressure preconditioner: the variant name comes off the serial
	// template (so all ranks agree), pPrecondOp is the rank-side application.
	precond    string
	pPrecondOp func(out, r []float64)
	cheb       *solver.Chebyshev // Chebyshev wrapper (chebjacobi/chebschwarz)
	diagE      []float64         // rank blocks of the template's diag(E) (chebjacobi)

	// Distributed Schwarz+XXT pieces (nil xxt when the coarse term is off).
	// invPerm is shared, read-only, computed once by the driver — 1024 rank
	// bodies each rebuilding an NVert-length permutation is exactly the
	// replicated-setup cost the large-P path cannot afford.
	pre     *schwarz.Precond
	xxt     *coarse.XXT
	lwork   *schwarz.LocalWork
	invPerm []int
	lo, hi  int

	// Coarse-solve arenas: pressurePrecond runs every CG iteration and its
	// NVert-length temporaries dominated the allocation profile at large P.
	r0Arena []float64
	upArena []float64
	x0Arena []float64
	blArena []float64
	xxtWork *coarse.SolveWork

	elemBlocks [][]float64 // gradT/divergence headers over one element's dim blocks
	advFlds    [][]float64 // advectInto field headers

	// phaseV accumulates the rank's virtual seconds per stepper phase
	// (convect, viscous, pressure, filter + step bookkeeping) across all
	// executed steps — the raw material of the strong-scaling breakdown.
	phaseV [4]float64

	// Distribution rollups shared by all ranks through the registry: each
	// rank Observes its own per-step phase times and CG iteration counts
	// into the same atomic histograms, so the merged per-phase distribution
	// over all P ranks exists without any per-rank trace track.
	phaseHist [4]*instrument.Histogram
	stepHist  *instrument.Histogram
	vIterHist *instrument.Histogram
	pIterHist *instrument.Histogram

	// Flop charges for the rank's virtual clock: per element (stiffness,
	// gradient, filter) and over the rank's elements (Dᵀ and D, whose cost
	// depends on the element class: ns.EApplyFlops).
	stiffF, gradF, filtF int64
	gradTF, divF         int64

	time float64
}

// nsRankBody is the SPMD body of one rank of the distributed stepper.
func nsRankBody(r *comm.Rank, tmpl *ns.Solver, mine []int, xxt *coarse.XXT, invPerm []int,
	cfg NSConfig, sink *ckptSink, firstStep int) rankOut {
	m := tmpl.M
	k := &nsRank{
		r: r, tmpl: tmpl, d: tmpl.Disc(), mine: mine, cfg: cfg,
		np: m.Np, npp: tmpl.Npp(), dim: tmpl.Dim(),
		nloc: len(mine) * m.Np, nlocP: len(mine) * tmpl.Npp(),
		xxt: xxt, pre: tmpl.PressurePre(),
		cgScratch: &solver.Scratch{},
		time:      tmpl.Time(),
	}
	np := k.np
	np1 := m.N + 1
	if k.dim == 2 {
		n3 := int64(np1) * int64(np1) * int64(np1)
		k.stiffF = 8*n3 + 7*int64(np)
		k.gradF = 4*n3 + 6*int64(np)
		k.filtF = 4 * n3
	} else {
		n4 := int64(np1) * int64(np1) * int64(np1) * int64(np1)
		k.stiffF = 12*n4 + 17*int64(np)
		k.gradF = 6*n4 + 15*int64(np)
		k.filtF = 6 * n4
	}

	gids := make([]int64, k.nloc)
	for li, e := range mine {
		copy(gids[li*np:(li+1)*np], m.GID[e*np:(e+1)*np])
	}
	k.h = gs.ParInit(r, gids)
	k.h.Attach(cfg.Registry)
	k.h.AttachTracer(cfg.Tracer)
	if reg := cfg.Registry; reg != nil {
		for i, name := range [4]string{"convect", "viscous", "pressure", "filter"} {
			k.phaseHist[i] = reg.Histogram("ns/" + name + ".vsec")
		}
		k.stepHist = reg.Histogram("ns/step.vsec")
		k.vIterHist = reg.Histogram("solver/viscous.iters.hist")
		k.pIterHist = reg.Histogram("solver/pressure.iters.hist")
	}
	k.mult = make([]float64, k.nloc)
	for i := range k.mult {
		k.mult[i] = 1
	}
	k.h.Apply(k.mult, gs.Sum)

	k.bLoc = k.gatherV(m.B)
	k.bAssemLoc = k.gatherV(tmpl.BAssem())
	k.invBmLoc = k.gatherV(tmpl.MaskOverBAssem())
	for _, e := range mine {
		gt, dv := tmpl.EApplyFlops(e)
		k.gradTF += gt
		k.divF += dv
	}
	if mv := tmpl.VelocityMask(); mv != nil {
		k.maskLoc = k.gatherV(mv)
	}
	for c := 0; c < 3; c++ {
		k.U[c] = k.gatherV(tmpl.Velocity(c))
		k.ustar[c] = make([]float64, k.nloc)
	}
	k.Pl = k.gatherP(tmpl.Pressure())
	order := tmpl.Cfg.Order
	k.utils = make([][3][]float64, order)
	for q := range k.utils {
		for c := 0; c < k.dim; c++ {
			k.utils[q][c] = make([]float64, k.nloc)
		}
	}
	k.iwork = make([]float64, tmpl.InterpWorkLen())
	k.tvWork = make([]float64, np)
	k.weWork = make([]float64, np)
	for c := 0; c < k.dim; c++ {
		k.gp[c] = make([]float64, k.nloc)
	}
	k.bArena = make([]float64, k.nloc)
	k.huArena = make([]float64, k.nloc)
	k.duArena = make([]float64, k.nloc)
	k.rpArena = make([]float64, k.nlocP)
	k.dpArena = make([]float64, k.nlocP)
	k.divArena = make([]float64, k.nlocP)
	k.rinArena = make([]float64, k.nlocP)
	k.zvArena = make([]float64, k.nloc)
	k.rvArena = make([]float64, k.nloc)
	k.histBuf = make([][3][]float64, 0, 4)

	if k.pre != nil {
		k.lwork = k.pre.NewLocalWork()
	}
	if xxt != nil {
		nv := m.NVert
		k.invPerm = invPerm
		k.lo, k.hi = xxt.BlockLo[r.ID], xxt.BlockHi[r.ID]
		k.r0Arena = make([]float64, nv)
		k.upArena = make([]float64, nv)
		k.x0Arena = make([]float64, nv)
		k.blArena = make([]float64, k.hi-k.lo)
		k.xxtWork = xxt.NewSolveWork(r.ID)
	}
	k.setupPrecond()
	k.elemBlocks = make([][]float64, k.dim)
	k.advFlds = make([][]float64, k.dim)
	if l := tmpl.Cfg.ProjectionL; l > 0 {
		k.projector = solver.NewProjector(l, k.applyE, k.pressureDot)
	}

	// Resume: overwrite the freshly built state with the snapshot's, then
	// restore the virtual clock last so the continuation picks up exactly
	// where the checkpointed run's clock stood (the setup traffic above
	// happened at earlier virtual times in the original run too).
	if ck := cfg.Resume; ck != nil {
		rs := ck.Ranks[r.ID]
		if len(rs.U[0]) != k.nloc || len(rs.P) != k.nlocP {
			return rankOut{err: fmt.Errorf(
				"checkpoint: rank %d holds blocks of %d/%d values, run needs %d/%d (partition drift)",
				r.ID, len(rs.U[0]), len(rs.P), k.nloc, k.nlocP)}
		}
		for c := 0; c < 3; c++ {
			copy(k.U[c], rs.U[c])
		}
		k.Uh = make([][3][]float64, len(rs.Uh))
		for q := range rs.Uh {
			for c := 0; c < 3; c++ {
				if rs.Uh[q][c] != nil {
					k.Uh[q][c] = append([]float64(nil), rs.Uh[q][c]...)
				}
			}
		}
		copy(k.Pl, rs.P)
		if k.projector != nil {
			k.projector.Restore(rs.ProjXs, rs.ProjAxs)
		}
		if rs.Diag != nil {
			k.diagLoc = append([]float64(nil), rs.Diag...)
			k.diagH1, k.diagH2 = rs.DiagH1, rs.DiagH2
		}
		k.time = ck.Time
		r.SetClock(rs.Clock)
	}

	vStart := r.Time
	var steps []rankStep
	for s := firstStep; s < cfg.Steps; s++ {
		rec, err := k.step(s + 1)
		if err != nil {
			return rankOut{steps: steps, vStart: vStart, err: err}
		}
		steps = append(steps, rec)
		if cfg.OnStep != nil && r.ID == 0 {
			cfg.OnStep(rec.stats, rec.vEnd)
		}
		if sink != nil && (s+1)%cfg.CheckpointEvery == 0 {
			sink.deposit(s+1, k.time, k.snapshot())
		}
	}
	return rankOut{steps: steps, u: k.U, p: k.Pl, vStart: vStart}
}

// snapshot deep-copies everything the next step depends on: fields, BDF-OIFS
// history, pressure, the projection basis, the cached Helmholtz diagonal
// (recomputing it on resume would cost gather–scatter traffic the
// uninterrupted run never pays), and the comm clock state.
func (k *nsRank) snapshot() RankCheckpoint {
	rs := RankCheckpoint{
		Rank:  k.r.ID,
		Clock: k.r.Clock(),
		P:     append([]float64(nil), k.Pl...),
	}
	for c := 0; c < 3; c++ {
		rs.U[c] = append([]float64(nil), k.U[c]...)
	}
	rs.Uh = make([][3][]float64, len(k.Uh))
	for q := range k.Uh {
		for c := 0; c < 3; c++ {
			if k.Uh[q][c] != nil {
				rs.Uh[q][c] = append([]float64(nil), k.Uh[q][c]...)
			}
		}
	}
	if k.projector != nil {
		rs.ProjXs, rs.ProjAxs = k.projector.State()
	}
	if k.diagLoc != nil {
		rs.Diag = append([]float64(nil), k.diagLoc...)
		rs.DiagH1, rs.DiagH2 = k.diagH1, k.diagH2
	}
	return rs
}

// gatherV copies a global velocity-grid field's owned blocks.
func (k *nsRank) gatherV(g []float64) []float64 {
	out := make([]float64, k.nloc)
	for li, e := range k.mine {
		copy(out[li*k.np:(li+1)*k.np], g[e*k.np:(e+1)*k.np])
	}
	return out
}

// gatherP copies a global pressure-grid field's owned blocks.
func (k *nsRank) gatherP(g []float64) []float64 {
	out := make([]float64, k.nlocP)
	for li, e := range k.mine {
		copy(out[li*k.npp:(li+1)*k.npp], g[e*k.npp:(e+1)*k.npp])
	}
	return out
}

func (k *nsRank) getBuf() []float64 {
	if n := len(k.bufPool); n > 0 {
		b := k.bufPool[n-1]
		k.bufPool = k.bufPool[:n-1]
		return b
	}
	return make([]float64, k.nloc)
}

func (k *nsRank) putBuf(b ...[]float64) { k.bufPool = append(k.bufPool, b...) }

func (k *nsRank) applyMask(u []float64) {
	if k.maskLoc == nil {
		return
	}
	for i, mk := range k.maskLoc {
		u[i] *= mk
	}
}

// assemble is the rank-local direct-stiffness summation + Dirichlet mask.
func (k *nsRank) assemble(u []float64) {
	k.h.Apply(u, gs.Sum)
	k.applyMask(u)
	k.r.Compute(int64(len(u)))
}

// dotV is the C0 inner product (each global node counted once) — local
// partial sums joined by an allreduce, so every rank sees the same value.
func (k *nsRank) dotV(u, v []float64) float64 {
	var s float64
	for i := range u {
		s += u[i] * v[i] / k.mult[i]
	}
	k.r.Compute(int64(3 * len(u)))
	return k.r.AllreduceScalar(s, comm.OpSum)
}

// pressureDot is the plain inner product on the discontinuous pressure
// space (no multiplicity: pressure nodes are never shared).
func (k *nsRank) pressureDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	k.r.Compute(int64(2 * len(a)))
	return k.r.AllreduceScalar(s, comm.OpSum)
}

// deflate removes the global plain mean from a pressure-space vector.
func (k *nsRank) deflate(p []float64) {
	var s float64
	for _, v := range p {
		s += v
	}
	s = k.r.AllreduceScalar(s, comm.OpSum)
	mean := s / float64(k.tmpl.M.K*k.npp)
	for i := range p {
		p[i] -= mean
	}
	k.r.Compute(int64(2 * len(p)))
}

// helmholtz applies the assembled velocity Helmholtz operator
// QQᵀ(h1·A + h2·B) with the serial operator's exact arithmetic.
func (k *nsRank) helmholtz(out, in []float64, h1, h2 float64) {
	np := k.np
	for li, e := range k.mine {
		k.d.StiffnessElement(out[li*np:(li+1)*np], in[li*np:(li+1)*np], e)
	}
	if h1 != 1 {
		for i := range out {
			out[i] *= h1
		}
	}
	for i := range out {
		out[i] += h2 * k.bLoc[i] * in[i]
	}
	k.r.Compute(k.stiffF*int64(len(k.mine)) + 3*int64(len(out)))
	k.assemble(out)
}

// helmDiag returns the assembled Jacobi diagonal for (h1, h2), cached
// across steps exactly like the serial helmholtzDiagV.
func (k *nsRank) helmDiag(h1, h2 float64) []float64 {
	if k.diagLoc != nil && h1 == k.diagH1 && h2 == k.diagH2 {
		return k.diagLoc
	}
	if k.diagLoc == nil {
		k.diagLoc = make([]float64, k.nloc)
	}
	np := k.np
	for li, e := range k.mine {
		k.d.HelmholtzDiagElement(k.diagLoc[li*np:(li+1)*np], e, h1, h2)
	}
	k.h.Apply(k.diagLoc, gs.Sum)
	if k.maskLoc != nil {
		for i, mk := range k.maskLoc {
			if mk == 0 {
				k.diagLoc[i] = 1
			}
		}
	}
	k.diagH1, k.diagH2 = h1, h2
	k.r.Compute(k.stiffF * int64(len(k.mine)))
	return k.diagLoc
}

// gradT computes the unassembled momentum pressure term Dᵀp into outs.
func (k *nsRank) gradT(outs [][]float64, p []float64) {
	np, npp := k.np, k.npp
	blocks := k.elemBlocks
	for li, e := range k.mine {
		for c := range blocks {
			blocks[c] = outs[c][li*np : (li+1)*np]
		}
		k.tmpl.GradTElem(blocks, p[li*npp:(li+1)*npp], e, k.iwork, k.tvWork, k.weWork)
	}
	k.r.Compute(k.gradTF)
}

// divergence computes the weak divergence D u into the pressure space.
func (k *nsRank) divergence(out []float64, u [3][]float64) {
	np, npp := k.np, k.npp
	blocks := k.elemBlocks
	for li, e := range k.mine {
		for c := range blocks {
			blocks[c] = u[c][li*np : (li+1)*np]
		}
		k.tmpl.DivElem(out[li*npp:(li+1)*npp], blocks, e, k.iwork)
	}
	k.r.Compute(k.divF)
}

// applyE applies the consistent pressure Poisson operator E = D B̃⁻¹QQᵀ Dᵀ.
func (k *nsRank) applyE(out, p []float64) {
	g := k.gp
	k.gradT(g[:k.dim], p)
	var u3 [3][]float64
	for c := 0; c < k.dim; c++ {
		gc := g[c]
		k.h.Apply(gc, gs.Sum)
		for i, w := range k.invBmLoc {
			gc[i] *= w
		}
		u3[c] = gc
	}
	k.r.Compute(int64(k.dim) * int64(k.nloc))
	k.divergence(out, u3)
	if k.tmpl.Enclosed() {
		k.deflate(out)
	}
}

// setupPrecond resolves the template's pressure preconditioner variant into
// this rank's application function. The Chebyshev variants reuse the
// template's tuned eigenvalue bounds and degree verbatim, so every rank (and
// the serial reference) runs identical polynomial coefficients.
func (k *nsRank) setupPrecond() {
	k.precond = k.tmpl.PrecondName()
	switch k.precond {
	case ns.PrecondSchwarz:
		k.pPrecondOp = k.pressurePrecond
	case ns.PrecondChebJacobi:
		k.diagE = k.gatherP(k.tmpl.PressureDiagE())
		diag := k.diagE
		lmin, lmax, deg, _ := k.tmpl.ChebBounds(k.precond)
		k.cheb = &solver.Chebyshev{
			Label: k.precond, A: k.applyE, Degree: deg, LMin: lmin, LMax: lmax,
			Base: func(out, in []float64) {
				for i := range in {
					out[i] = in[i] / diag[i]
				}
				k.r.Compute(int64(len(in)))
			},
		}
		k.pPrecondOp = k.chebPrecond
	case ns.PrecondChebSchwarz:
		lmin, lmax, deg, _ := k.tmpl.ChebBounds(k.precond)
		k.cheb = &solver.Chebyshev{
			Label: k.precond, A: k.applyE, Degree: deg, LMin: lmin, LMax: lmax,
			Base: func(out, in []float64) { k.precondSandwich(out, in, false) },
		}
		k.pPrecondOp = k.chebPrecond
	}
}

// pressurePrecond is the Schwarz-sandwich reference preconditioner: deflate,
// local FDM solves + coarse XXT vertex term, deflate.
func (k *nsRank) pressurePrecond(out, r []float64) {
	if k.pre == nil {
		copy(out, r)
		return
	}
	rin := r
	if k.tmpl.Enclosed() {
		rin = k.rinArena
		copy(rin, r)
		k.deflate(rin)
	}
	k.precondSandwich(out, rin, true)
	if k.tmpl.Enclosed() {
		k.deflate(out)
	}
}

// chebPrecond applies the rank's Chebyshev-accelerated variant with the same
// null-space handling as the reference: input and output projected off the
// constant mode on enclosed domains. (Chebyshev.Apply copies its input into
// its own arena before the base sweep runs, so reusing rinArena inside the
// sandwich base is safe.)
func (k *nsRank) chebPrecond(out, r []float64) {
	rin := r
	if k.tmpl.Enclosed() {
		rin = k.rinArena
		copy(rin, r)
		k.deflate(rin)
	}
	k.cheb.Apply(out, rin)
	if k.tmpl.Enclosed() {
		k.deflate(out)
	}
}

// precondSandwich is the prolong → Schwarz smooth → restrict core shared by
// the reference sandwich (coarse=true: local FDM solves plus the distributed
// XXT vertex term) and the Chebyshev-Schwarz base sweep (coarse=false: the
// polynomial supplies the global coupling instead). No deflation — callers
// own the null-space handling.
func (k *nsRank) precondSandwich(out, rin []float64, coarse bool) {
	rk := k.r
	tr := k.cfg.Tracer
	np, npp := k.np, k.npp
	rv := k.rvArena
	for li := range k.mine {
		k.tmpl.ProlongPVElem(rv[li*np:(li+1)*np], rin[li*npp:(li+1)*npp], k.iwork)
	}
	k.h.Apply(rv, gs.Sum)
	zv := k.zvArena
	t0 := rk.Time
	flops, err := k.pre.LocalSolveElems(zv, rv, k.mine, k.lwork)
	if err != nil {
		panic(err)
	}
	rk.Compute(flops)
	if tr.WantsV(rk.ID) {
		tr.SpanV(rk.ID, "schwarz/local", "precond", t0, rk.Time,
			map[string]any{"elems": len(k.mine)})
	}
	k.h.Apply(zv, gs.Sum)
	if coarse {
		// Coarse term from the assembled residual rv, as in the serial sandwich.
		t1 := rk.Time
		nv := k.tmpl.M.NVert
		r0 := k.r0Arena
		for i := range r0 {
			r0[i] = 0
		}
		cf := k.pre.CoarseRestrictElems(r0, rv, k.mine)
		rk.Compute(cf)
		rk.Allreduce(r0, comm.OpSum)
		bLocal := k.blArena
		for newi := k.lo; newi < k.hi; newi++ {
			bLocal[newi-k.lo] = r0[k.xxt.Perm[newi]]
		}
		uLocal := k.xxt.SolveOnW(rk, bLocal, k.xxtWork)
		up := k.upArena
		for i := range up {
			up[i] = 0
		}
		copy(up[k.lo:k.hi], uLocal)
		rk.Allreduce(up, comm.OpSum)
		x0 := k.x0Arena
		for old := 0; old < nv; old++ {
			x0[old] = up[k.invPerm[old]]
		}
		cf = k.pre.CoarseProlongElems(zv, x0, k.mine)
		rk.Compute(cf)
		if tr.WantsV(rk.ID) {
			tr.SpanV(rk.ID, "schwarz/coarse", "precond", t1, rk.Time,
				map[string]any{"nvert": nv})
		}
	}
	for li := range k.mine {
		k.tmpl.RestrictVPElem(out[li*npp:(li+1)*npp], zv[li*np:(li+1)*np], k.iwork)
	}
}

// setDirichlet writes component c's boundary values at time t.
func (k *nsRank) setDirichlet(u []float64, c int, t float64) {
	cfg := k.tmpl.Cfg
	if k.maskLoc == nil || cfg.DirichletVal == nil {
		return
	}
	m := k.tmpl.M
	np := k.np
	for li, e := range k.mine {
		for l := 0; l < np; l++ {
			lj := li*np + l
			if k.maskLoc[lj] == 0 {
				gi := e*np + l
				bu, bv, bw := cfg.DirichletVal(m.X[gi], m.Y[gi], m.Zc[gi], t)
				vals := [3]float64{bu, bv, bw}
				u[lj] = vals[c]
			}
		}
	}
}

// cflLimit mirrors the serial cflLimit with an allreduce-max of |u|.
func (k *nsRank) cflLimit() (dt, rate float64) {
	var umax float64
	for c := 0; c < k.dim; c++ {
		for _, v := range k.U[c] {
			if a := math.Abs(v); a > umax {
				umax = a
			}
		}
	}
	umax = k.r.AllreduceScalar(umax, comm.OpMax)
	if umax == 0 {
		return math.Inf(1), 0
	}
	rate = umax / k.tmpl.M.MinSpacing()
	return k.tmpl.Cfg.SubCFL / rate, rate
}

// advectingField evaluates the OIFS advecting velocity at relative time t.
func (k *nsRank) advectingField(t float64, hist [][3][]float64) [3][]float64 {
	coef := k.tmpl.AdvectCoeffs(t, len(hist))
	var c [3][]float64
	for d := 0; d < k.dim; d++ {
		c[d] = k.getBuf()
		cd := c[d]
		for i := range cd {
			cd[i] = 0
		}
		for q := range hist {
			cq := coef[q]
			if cq == 0 {
				continue
			}
			hq := hist[q][d]
			for i := range cd {
				cd[i] += cq * hq[i]
			}
		}
	}
	return c
}

func (k *nsRank) releaseField(c [3][]float64) {
	for d := 0; d < k.dim; d++ {
		k.putBuf(c[d])
	}
}

// convect computes out = -(c·∇)v on the owned blocks.
func (k *nsRank) convect(out, v []float64, c [3][]float64) {
	np := k.np
	g0, g1 := k.getBuf(), k.getBuf()
	var g2 []float64
	if k.dim == 3 {
		g2 = k.getBuf()
	}
	g := [3][]float64{g0, g1, g2}
	for li, e := range k.mine {
		var b2 []float64
		if k.dim == 3 {
			b2 = g2[li*np : (li+1)*np]
		}
		k.d.GradElement(g0[li*np:(li+1)*np], g1[li*np:(li+1)*np], b2, v[li*np:(li+1)*np], e)
	}
	for i := range out {
		var adv float64
		for d := 0; d < k.dim; d++ {
			adv += c[d][i] * g[d][i]
		}
		out[i] = -adv
	}
	k.r.Compute(k.gradF*int64(len(k.mine)) + int64((2*k.dim+3)*k.nloc))
	k.putBuf(g0, g1)
	if g2 != nil {
		k.putBuf(g2)
	}
}

// rk4AdvectFields advances the fields through one RK4 substep of the pure
// advection equation, with the serial update order.
func (k *nsRank) rk4AdvectFields(fields [][]float64, t0, h float64, hist [][3][]float64) {
	c1 := k.advectingField(t0, hist)
	c2 := k.advectingField(t0+h/2, hist)
	c4 := k.advectingField(t0+h, hist)
	k1 := k.getBuf()
	k2 := k.getBuf()
	k3 := k.getBuf()
	k4 := k.getBuf()
	tmp := k.getBuf()
	for _, f := range fields {
		k.convect(k1, f, c1)
		for i := range tmp {
			tmp[i] = f[i] + h/2*k1[i]
		}
		k.convect(k2, tmp, c2)
		for i := range tmp {
			tmp[i] = f[i] + h/2*k2[i]
		}
		k.convect(k3, tmp, c2)
		for i := range tmp {
			tmp[i] = f[i] + h*k3[i]
		}
		k.convect(k4, tmp, c4)
		for i := range f {
			f[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
	}
	k.r.Compute(int64(10 * k.nloc * len(fields)))
	k.putBuf(k1, k2, k3, k4, tmp)
	k.releaseField(c1)
	k.releaseField(c2)
	k.releaseField(c4)
}

// massAverage projects a field back onto the C0 space (distributed
// direct-stiffness averaging).
func (k *nsRank) massAverage(v []float64) {
	for i := range v {
		v[i] *= k.bLoc[i]
	}
	k.h.Apply(v, gs.Sum)
	for i := range v {
		v[i] /= k.bAssemLoc[i]
	}
	k.r.Compute(int64(3 * k.nloc))
}

// advectInto subintegrates the advection over an interval of length tau.
func (k *nsRank) advectInto(v [3][]float64, u0 [3][]float64, tau, cflDt float64, hist [][3][]float64) int {
	nsub := ns.SubstepCount(tau, cflDt)
	h := tau / float64(nsub)
	for c := 0; c < k.dim; c++ {
		copy(v[c], u0[c])
	}
	fields := k.advFlds
	for c := 0; c < k.dim; c++ {
		fields[c] = v[c]
	}
	for sub := 0; sub < nsub; sub++ {
		t0 := -tau + float64(sub)*h
		k.rk4AdvectFields(fields, t0, h, hist)
		for c := 0; c < k.dim; c++ {
			k.massAverage(v[c])
		}
	}
	return nsub
}

// step advances one time step, mirroring the serial ns.Solver.Step phase by
// phase on the rank's owned blocks.
func (k *nsRank) step(stepNo int) (rankStep, error) {
	cfg := k.tmpl.Cfg
	r := k.r
	tr := k.cfg.Tracer
	st := ns.StepStats{Step: stepNo}
	tNew := k.time + cfg.Dt

	order := cfg.Order
	if avail := len(k.Uh) + 1; order > avail {
		order = avail
	}
	beta, gamma := ns.BDF(order)

	// --- Convective subintegration (OIFS). ---
	tConv := r.Time
	cflDt, rate := k.cflLimit()
	st.CFL = rate * cfg.Dt
	hist := append(k.histBuf[:0], k.U)
	hist = append(hist, k.Uh...)
	utils := k.utils[:order]
	totalSub := 0
	for q := 1; q <= order; q++ {
		totalSub += k.advectInto(utils[q-1], hist[q-1], float64(q)*cfg.Dt, cflDt, hist)
	}
	st.Substeps = totalSub
	k.histBuf = hist[:0]
	if tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "ns/convect", "ns", tConv, r.Time,
			map[string]any{"step": stepNo, "substeps": totalSub})
	}

	// --- Viscous Helmholtz solves. ---
	tVisc := r.Time
	st.ViscousConverged = true
	h1 := 1.0 / cfg.Re
	h2 := beta / cfg.Dt
	diag := k.helmDiag(h1, h2)
	jacobi := func(out, in []float64) {
		for i := range in {
			out[i] = in[i] / diag[i]
		}
		r.Compute(int64(len(in)))
	}
	helmOp := func(out, in []float64) { k.helmholtz(out, in, h1, h2) }
	k.gradT(k.gp[:k.dim], k.Pl)

	for c := 0; c < k.dim; c++ {
		b := k.bArena
		for i := 0; i < k.nloc; i++ {
			var sum float64
			for q := 0; q < order; q++ {
				sum += gamma[q] * utils[q][c][i]
			}
			b[i] = k.bLoc[i] * sum / cfg.Dt
		}
		if cfg.Forcing != nil {
			m := k.tmpl.M
			for li, e := range k.mine {
				for l := 0; l < k.np; l++ {
					gi := e*k.np + l
					lj := li*k.np + l
					fx, fy, fz := cfg.Forcing(m.X[gi], m.Y[gi], m.Zc[gi], tNew)
					f := [3]float64{fx, fy, fz}
					b[lj] += k.bLoc[lj] * f[c]
				}
			}
		}
		for i := range b {
			b[i] += k.gp[c][i]
		}
		k.assemble(b)
		u := k.ustar[c]
		copy(u, k.U[c])
		k.setDirichlet(u, c, tNew)
		hu := k.huArena
		k.helmholtz(hu, u, h1, h2)
		for i := range b {
			b[i] -= hu[i]
		}
		k.applyMask(b)
		du := k.duArena
		for i := range du {
			du[i] = 0
		}
		// No solver.Options.Tracer: P concurrent CG loops would interleave
		// their spans on the single wall-clock track.
		stats := solver.CG(helmOp, k.dotV, du, b, solver.Options{
			Tol: cfg.VTol, Relative: true, MaxIter: 1000, Precond: jacobi,
			IterHist: k.vIterHist, Scratch: k.cgScratch})
		if !stats.Converged {
			st.ViscousConverged = false
		}
		if !stats.Converged && stats.FinalRes > 1e-6 {
			return rankStep{}, fmt.Errorf("helmholtz solve for component %d failed (res %g)", c, stats.FinalRes)
		}
		st.HelmholtzIters[c] = stats.Iterations
		for i := range u {
			u[i] += du[i]
		}
	}
	if tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "ns/viscous", "ns", tVisc, r.Time,
			map[string]any{"step": stepNo, "iters": st.HelmholtzIters[0]})
	}

	// --- Pressure correction: E δp = -(β/Δt) D u*. ---
	tPres := r.Time
	rp := k.rpArena
	k.divergence(rp, k.ustar)
	for i := range rp {
		rp[i] *= -h2
	}
	if k.tmpl.Enclosed() {
		k.deflate(rp)
	}
	dp := k.dpArena
	for i := range dp {
		dp[i] = 0
	}
	popt := solver.Options{Tol: cfg.PTol, MaxIter: cfg.PMaxIter,
		History: k.cfg.History != nil, IterHist: k.pIterHist, Scratch: k.cgScratch}
	if k.pPrecondOp != nil {
		popt.Precond = k.pPrecondOp
	}
	var pstats solver.Stats
	if k.projector != nil {
		pstats = k.projector.ProjectAndSolve(dp, rp, popt)
		st.ProjectionBasis = k.projector.Len()
	} else {
		pstats = solver.CG(k.applyE, k.pressureDot, dp, rp, popt)
	}
	st.PressureIters = pstats.Iterations
	st.PressureRes0 = pstats.InitialRes
	st.PressureResFinal = pstats.FinalRes
	st.PressureConverged = pstats.Converged

	// --- Velocity update: u = u* + (Δt/β) M B̃⁻¹ QQᵀ Dᵀ δp. ---
	k.gradT(k.gp[:k.dim], dp)
	for c := 0; c < k.dim; c++ {
		g := k.gp[c]
		k.assemble(g)
		scale := cfg.Dt / beta
		u := k.ustar[c]
		for i := range u {
			u[i] += scale * g[i] / k.bAssemLoc[i]
		}
	}
	k.r.Compute(int64(3 * k.dim * k.nloc))
	if tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "ns/pressure", "ns", tPres, r.Time,
			map[string]any{"step": stepNo, "iterations": pstats.Iterations, "converged": pstats.Converged})
	}

	// --- Filter, rotate history, commit. ---
	tFilt := r.Time
	filter := k.tmpl.FilterOp()
	var filterRemoved float64
	recordHist := k.cfg.History != nil
	if recordHist && filter != nil {
		for c := 0; c < k.dim; c++ {
			filterRemoved += k.dotV(k.ustar[c], k.ustar[c])
		}
	}
	if filter != nil {
		for c := 0; c < k.dim; c++ {
			u := k.ustar[c]
			for li := range k.mine {
				k.d.FilterElement(filter, u[li*k.np:(li+1)*k.np])
			}
			k.setDirichlet(u, c, tNew)
		}
		k.r.Compute(k.filtF * int64(len(k.mine)) * int64(k.dim))
	}
	if recordHist && filter != nil {
		for c := 0; c < k.dim; c++ {
			filterRemoved -= k.dotV(k.ustar[c], k.ustar[c])
		}
	}
	if tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "ns/filter", "ns", tFilt, r.Time,
			map[string]any{"step": stepNo})
	}

	keep := cfg.Order - 1
	if keep > 0 {
		var prev [3][]float64
		if len(k.Uh) >= keep {
			prev = k.Uh[len(k.Uh)-1]
			k.Uh = k.Uh[:len(k.Uh)-1]
		} else {
			for c := 0; c < 3; c++ {
				prev[c] = make([]float64, k.nloc)
			}
		}
		for c := 0; c < 3; c++ {
			copy(prev[c], k.U[c])
		}
		k.Uh = append(k.Uh, [3][]float64{})
		copy(k.Uh[1:], k.Uh)
		k.Uh[0] = prev
	}
	for c := 0; c < k.dim; c++ {
		copy(k.U[c], k.ustar[c])
	}
	for i := range dp {
		k.Pl[i] += dp[i]
	}
	if k.tmpl.Enclosed() {
		k.deflate(k.Pl)
	}
	k.time = tNew
	st.Time = k.time

	// Divergence (NaN) detection must be a uniform decision: every rank
	// checks its blocks and the flags join in an allreduce-max.
	var bad float64
	for c := 0; c < k.dim; c++ {
		for _, v := range k.U[c] {
			if math.IsNaN(v) {
				bad = 1
				break
			}
		}
	}
	if k.r.AllreduceScalar(bad, comm.OpMax) > 0 {
		return rankStep{}, fmt.Errorf("solution diverged (NaN) at step %d", stepNo)
	}

	rec := rankStep{stats: st}
	if recordHist {
		div := k.divArena
		k.divergence(div, k.U)
		var maxDiv float64
		for _, v := range div {
			if a := math.Abs(v); a > maxDiv {
				maxDiv = a
			}
		}
		rec.maxDiv = k.r.AllreduceScalar(maxDiv, comm.OpMax)
		rec.filterE = filterRemoved
		rec.resHist = append([]float64(nil), pstats.ResHist...)
	}
	rec.vEnd = r.Time
	// Phase breakdown on the rank's virtual clock; the filter slot also
	// carries the end-of-step bookkeeping (history rotation, NaN allreduce,
	// optional divergence telemetry).
	rec.phase = [4]float64{tVisc - tConv, tPres - tVisc, tFilt - tPres, r.Time - tFilt}
	for i, v := range rec.phase {
		k.phaseV[i] += v
		k.phaseHist[i].Observe(v)
	}
	k.stepHist.Observe(r.Time - tConv)
	return rec, nil
}
