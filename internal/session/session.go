// Package session promotes a stable simulation-session API out of the
// solver internals: Create a flow case, StepN it forward, Checkpoint /
// Resume it across process lifetimes, Cancel it mid-flight, and Close it.
// It is the substrate
// of the semflowd multi-tenant service (Manager + HTTPHandler multiplex
// many concurrent sessions over a bounded scheduler, with artifacts behind
// a pluggable Store), and of the one-shot semflow CLI, so there is exactly
// one code path from "flow case + config" to stepped fields.
//
// A run is described once, by Config: semflow's flags fill it, semflowd's
// submit body decodes into it, the case table (cases.go) fills what it
// leaves unset, and Resume (which Create calls) validates it for every
// session.
//
// A Session steps one of two machines behind the same methods: the
// shared-memory stepper (ns.Solver; Config.Ranks = 0) or the SPMD program on
// the simulated machine (parrun.Stepper; Ranks = P). Per-session
// observability is always on: a metrics Registry, a per-step StepRecord
// TimeSeries (the JSONL artifact), and a Progress snapshot — the instruments
// Handler serves live, at / under semflow -listen and per session under
// semflowd.
// Stepping is bitwise deterministic and isolated: two sessions running
// concurrently in one process produce exactly the fields each would have
// produced alone (nothing numeric is shared), which the lifecycle tests
// assert.
package session

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/parrun"
	"repro/internal/solver"
)

// ErrCancelled reports a StepN interrupted by Cancel. The session's state
// stays valid: it can be checkpointed, resumed, or closed.
var ErrCancelled = errors.New("session: cancelled")

// ErrClosed reports an operation on a closed session.
var ErrClosed = errors.New("session: closed")

// errNotStarted reports an operation that needs the stepping machine on a
// session whose machine is not built yet: a Manager job waiting for a slot
// to set up in.
var errNotStarted = errors.New("session: not started: its solver is not built yet")

// Config selects a flow case, its knobs and its machine — the JSON body of
// semflowd's submit endpoint, and the struct semflow's flags fill. An unset
// knob (zero; a nil Alpha) takes the case's default from the case table,
// each on its own (Resolve); negative values are refused, but for
// ProjectionL = -1, which turns pressure projection off.
type Config struct {
	Case  string `json:"case"`  // shearlayer, channel, convection, hairpin
	Steps int    `json:"steps"` // job length (Manager); Create itself does not step

	N           int      `json:"n,omitempty"`            // polynomial order
	Nel         int      `json:"nel,omitempty"`          // elements per direction (shearlayer, convection)
	KX          int      `json:"kx,omitempty"`           // channel: elements along the channel
	KY          int      `json:"ky,omitempty"`           // channel: elements across the channel
	Precond     string   `json:"precond,omitempty"`      // pressure preconditioner: schwarz (default), chebjacobi, chebschwarz, none, auto
	Alpha       *float64 `json:"alpha,omitempty"`        // filter strength, 0 (unfiltered) to 1; nil = case default
	ProjectionL int      `json:"projection_l,omitempty"` // pressure projection basis size (-1 = off)
	PIters      int      `json:"piters,omitempty"`       // pressure CG iteration cap (0 = case default)

	// Ranks > 0 runs the time loop as an SPMD program on that many simulated
	// ranks (clamped to the element count); Faults degrades that machine.
	Ranks  int         `json:"ranks,omitempty"`
	Faults *fault.Plan `json:"faults,omitempty"`

	// Trace attaches a tracer — wall-clock spans, or with Ranks one virtual-
	// clock track per rank (TraceSample > 0: only that many, evenly spaced);
	// the Manager stores the Chrome trace JSON as a per-session artifact.
	Trace       bool `json:"trace,omitempty"`
	TraceSample int  `json:"trace_sample,omitempty"`

	// BatchSteps is the scheduler quantum: how many steps a session runs
	// per acquired slot before yielding to other sessions (default 1).
	BatchSteps int `json:"batch_steps,omitempty"`

	// CheckpointEvery > 0 deposits a checkpoint.gob every that-many steps,
	// in addition to the final snapshot, so a killed run can be resumed from
	// the store: both drivers read it (a Manager job; semflow -checkpoint).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// OnStep, when set, observes every completed step (the CLI's per-step
	// report). Not part of the wire format.
	OnStep func(ns.StepStats) `json:"-"`
}

// validate is every session's one check of its config, whichever driver
// built it: it refuses an unknown pressure preconditioner, a filter strength
// outside [0, 1], a negative size or count (projection_l also takes -1,
// projection off), an invalid fault plan or one without ranks, and a
// snapshot (ck) of a distributed run for shared memory or at or past a
// non-zero Steps target. A Manager job's solver is built after its submit
// has returned, so what set-up would refuse of a config belongs here.
func (c Config) validate(ck *parrun.Checkpoint) error {
	if a := c.Alpha; a != nil && !(*a >= 0 && *a <= 1) {
		return fmt.Errorf("session: alpha = %g, want 0 to 1", *a)
	}
	if c.Precond != "" && !ns.ValidPrecond(c.Precond) {
		return fmt.Errorf("session: precond = %q, want schwarz, chebjacobi, chebschwarz, none or auto", c.Precond)
	}
	if c.ProjectionL < -1 {
		return fmt.Errorf("session: projection_l = %d, want -1 (off), 0 (case default) or more", c.ProjectionL)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"steps", c.Steps}, {"n", c.N}, {"nel", c.Nel}, {"kx", c.KX}, {"ky", c.KY},
		{"piters", c.PIters},
		{"ranks", c.Ranks}, {"trace_sample", c.TraceSample}, {"batch_steps", c.BatchSteps},
		{"checkpoint_every", c.CheckpointEvery},
	} {
		if f.v < 0 {
			return fmt.Errorf("session: %s = %d, want 0 or more", f.name, f.v)
		}
	}
	if c.Faults != nil {
		if c.Ranks < 1 {
			return fmt.Errorf("session: a fault plan degrades the simulated machine: set ranks > 0")
		}
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if ck != nil && ck.P != 0 && c.Ranks == 0 {
		return fmt.Errorf("session: snapshot of a %d-rank run, config has ranks = 0", ck.P)
	}
	if ck != nil && c.Steps > 0 && ck.Step() >= c.Steps {
		return fmt.Errorf("session: the snapshot is at step %d, at or past the target of %d steps", ck.Step(), c.Steps)
	}
	return nil
}

// machine is the seam between a session and what it steps. StepN advances
// up to n steps and hands each completed one to the session's stepped.
type machine interface {
	StepN(n int) (ns.StepStats, error)
	StepCount() int
	VirtualSeconds() float64 // max rank clock; 0 in shared memory
	snapshot() *parrun.Checkpoint
}

// sharedMemory steps the solver one step at a time, so Cancel takes effect
// at every step boundary.
type sharedMemory struct {
	*ns.Solver
	sess *Session
}

func (m sharedMemory) StepN(n int) (ns.StepStats, error) {
	var last ns.StepStats
	for i := 0; i < n; i++ {
		if m.sess.cancelled.Load() {
			return last, ErrCancelled
		}
		st, err := m.Step()
		if err != nil {
			return last, err
		}
		last = st
		m.sess.stepped(st, 0)
	}
	return last, nil
}

func (m sharedMemory) VirtualSeconds() float64      { return 0 }
func (m sharedMemory) snapshot() *parrun.Checkpoint { return parrun.Serial(m.Checkpoint()) }

// simulated steps the ranks a whole StepN in one parrun batch: rank 0 hands
// each completed step to stepped (parrun.NSConfig.OnStep) while the others
// are parked, and Cancel takes effect at the batch boundary.
type simulated struct {
	*parrun.Stepper
	sess *Session
}

func (m simulated) StepN(n int) (ns.StepStats, error) {
	if n < 1 {
		return ns.StepStats{}, nil
	}
	if m.sess.cancelled.Load() {
		return ns.StepStats{}, ErrCancelled
	}
	last, err := m.Stepper.StepN(n)
	if err == nil {
		m.sess.updateProgress(last, m.VirtualSeconds()) // the batch's end on every rank
	}
	return last, err
}

func (m simulated) snapshot() *parrun.Checkpoint { return m.Checkpoint() }

// Session is one live simulation: a stepping machine plus its per-session
// instruments. Methods are safe for concurrent use; stepping itself is
// serialized by the session's lock, so Checkpoint always observes a
// between-steps state. Close releases the machine and keeps the record.
type Session struct {
	cfg Config
	sel atomic.Pointer[solver.PrecondSelection] // fixed when the stepper is built

	mu     sync.Mutex // guards m, steps and closed
	m      machine    // nil until built, and once closed
	steps  int        // the completed steps while m is nil: the snapshot's, or those when Close released m
	closed bool

	// The shared-memory stepper, or the template the ranks forked; nil once
	// closed. Atomic, not under mu: OnStep reads it in the middle of StepN.
	solver atomic.Pointer[ns.Solver]

	cancelled atomic.Bool

	reg     *instrument.Registry
	history *instrument.TimeSeries
	prog    Progress
	tracer  *instrument.Tracer // nil unless cfg.Trace
}

// Progress is a mutex-guarded snapshot of a run's position, updated after
// every step and served as JSON at progress.
type Progress struct {
	mu   sync.Mutex
	snap ProgressSnapshot
}

// ProgressSnapshot is the progress payload: the last completed step's
// ns.StepStats, in the keys of the history JSONL, and the run's position.
type ProgressSnapshot struct {
	Case       string `json:"case,omitempty"`
	Ranks      int    `json:"ranks,omitempty"`
	TotalSteps int    `json:"total_steps,omitempty"`
	ns.StepStats
	VirtualSeconds float64 `json:"virtual_seconds"` // max rank virtual clock (rank 0's within a batch)
	Done           bool    `json:"done"`
	UpdatedUnixMs  int64   `json:"updated_unix_ms"`
}

// Update replaces the snapshot (stamping the update time).
func (p *Progress) Update(s ProgressSnapshot) {
	s.UpdatedUnixMs = time.Now().UnixMilli()
	p.mu.Lock()
	p.snap = s
	p.mu.Unlock()
}

// Snapshot returns the current snapshot.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap
}

// Create builds a session for the configured case.
func Create(cfg Config) (*Session, error) { return Resume(cfg, nil) }

// Resume builds a session of the same configuration and restores a snapshot
// into it; stepping continues bitwise identically to the session the
// snapshot was taken from (rank clocks and fault draws included). A nil
// snapshot is Create. It is the two halves a Manager job runs apart: the
// record (newSession), then the machine (build).
func Resume(cfg Config, ck *parrun.Checkpoint) (*Session, error) {
	s, err := newSession(cfg, ck)
	if err != nil {
		return nil, err
	}
	if err := s.build(ck); err != nil {
		return nil, err
	}
	return s, nil
}

// newSession is a session's cheap half, its record: the validated config,
// resolved against the case table, and the instruments, with progress at
// the snapshot's step (0 without one). It has no machine yet: StepN and
// Checkpoint answer errNotStarted until build has run.
func newSession(cfg Config, ck *parrun.Checkpoint) (*Session, error) {
	if err := cfg.validate(ck); err != nil {
		return nil, err
	}
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:     cfg,
		reg:     instrument.New(),
		history: instrument.NewTimeSeries(),
	}
	if cfg.Trace {
		s.tracer = instrument.NewTracer()
	}
	if ck != nil {
		s.steps = ck.Step()
		s.updateProgress(ns.StepStats{Step: ck.Step(), Time: ck.Time()}, 0)
	}
	return s, nil
}

// build is a session's costly half: the problem, the solver or the
// simulated ranks, the restored snapshot ck, the pressure preconditioner
// selection (an auto run's trials included) and the run's metadata. A
// session that has its machine already keeps it; one closed while it built
// discards the machine and returns ErrClosed.
func (s *Session) build(ck *parrun.Checkpoint) error {
	s.mu.Lock()
	built := s.m != nil
	s.mu.Unlock()
	if built {
		return nil
	}
	cfg := s.cfg
	nscfg, init, err := cfg.Problem()
	if err != nil {
		return err
	}
	var m machine
	var sv *ns.Solver
	if cfg.Ranks > 0 {
		s.tracer.SampleVRanks(strideSample(cfg.Ranks, cfg.TraceSample))
		st, err := parrun.Start(nscfg, parrun.NSConfig{
			P: cfg.Ranks, Init: init, Faults: cfg.Faults, Resume: ck,
			Registry: s.reg, Tracer: s.tracer, History: s.history,
			OnStep: s.stepped,
		})
		if err != nil {
			return err
		}
		m, sv = simulated{st, s}, st.Template()
	} else {
		solver, err := flowcases.NewSolver(nscfg, init)
		if err != nil {
			return err
		}
		solver.AttachMetrics(s.reg)
		solver.AttachHistory(s.history)
		solver.AttachTracer(s.tracer)
		if ck != nil {
			if err := solver.Restore(ck.Ranks[0].State); err != nil {
				return err
			}
		}
		m, sv = sharedMemory{solver, s}, solver
	}
	sel := sv.PrecondSelection()
	s.sel.Store(&sel)
	meta := instrument.RunMeta{
		Case: cfg.Case, Ranks: cfg.Ranks, Elements: sv.M.K, Order: sv.M.N,
		Steps: cfg.Steps, PIters: cfg.PIters, TraceSample: cfg.TraceSample,
		Precond: sel.Name, PrecondSource: sel.Source,
	}
	if cfg.Faults != nil {
		meta.FaultSeed = cfg.Faults.Seed
	}
	s.reg.SetMeta(meta)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.m = m
	s.solver.Store(sv)
	if ck != nil {
		s.updateProgress(ns.StepStats{Step: ck.Step(), Time: ck.Time()}, m.VirtualSeconds())
	}
	return nil
}

// strideSample picks r evenly spaced ranks out of p, deterministically; nil
// means all of them (r = 0 or r >= p).
func strideSample(p, r int) []int {
	if r <= 0 || r >= p {
		return nil
	}
	out := make([]int, r)
	for i := range out {
		out[i] = i * p / r
	}
	return out
}

// Config returns the session's configuration, resolved against the case table.
func (s *Session) Config() Config { return s.cfg }

// StepN advances the run up to n steps, stopping early on Cancel (with
// ErrCancelled) or a solver error. It returns the stats of the last
// completed step. Progress and Config.OnStep see every step; the simulated
// machine runs the n steps as one batch.
func (s *Session) StepN(n int) (ns.StepStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		return ns.StepStats{}, s.idle()
	}
	return s.m.StepN(n)
}

// idle is why a session without a machine cannot step or snapshot: it was
// closed, or it is not built yet. The caller holds s.mu.
func (s *Session) idle() error {
	if s.closed {
		return ErrClosed
	}
	return errNotStarted
}

// stepped records one completed step: progress at vsec, the machine's
// virtual clock at the step's end (rank 0's, mid-batch), and Config.OnStep.
func (s *Session) stepped(st ns.StepStats, vsec float64) {
	s.updateProgress(st, vsec)
	if s.cfg.OnStep != nil {
		s.cfg.OnStep(st)
	}
}

func (s *Session) updateProgress(st ns.StepStats, vsec float64) {
	s.prog.Update(ProgressSnapshot{
		Case: s.cfg.Case, Ranks: s.cfg.Ranks, TotalSteps: s.cfg.Steps,
		StepStats: st, VirtualSeconds: vsec,
	})
}

// Checkpoint captures a between-steps snapshot (it waits for any StepN in
// flight on another goroutine to finish its current batch).
func (s *Session) Checkpoint() (*parrun.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		return nil, s.idle()
	}
	return s.m.snapshot(), nil
}

// Deposit snapshots the session and puts the snapshot into store as id's
// checkpoint.gob, replacing the one there: the one snapshot write of both
// drivers (a semflowd job, semflow -checkpoint).
func (s *Session) Deposit(store Store, id string) error {
	ck, err := s.Checkpoint()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		return fmt.Errorf("session: checkpoint: %w", err)
	}
	return store.Put(id, ArtifactCheckpoint, buf.Bytes())
}

// LoadCheckpoint reads id's checkpoint.gob back from store for Resume; an
// id with no snapshot is an error wrapping ErrNotFound.
func LoadCheckpoint(store Store, id string) (*parrun.Checkpoint, error) {
	raw, err := store.Get(id, ArtifactCheckpoint)
	if err != nil {
		return nil, err
	}
	ck, err := parrun.ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("session: %s/%s: %w", id, ArtifactCheckpoint, err)
	}
	return ck, nil
}

// Cancel makes the next step boundary return ErrCancelled: the next step in
// shared memory; on the simulated machine, whose ranks run each StepN as one
// batch, the next StepN call (a Manager job calls it once per BatchSteps).
// Idempotent; safe from any goroutine.
func (s *Session) Cancel() { s.cancelled.Store(true) }

// Cancelled reports whether Cancel was called.
func (s *Session) Cancelled() bool { return s.cancelled.Load() }

// Step returns the number of completed steps.
func (s *Session) Step() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		return s.steps
	}
	return s.m.StepCount()
}

// Close ends the session and releases its stepping machine: the ns.Solver,
// or the parrun.Stepper with its rank solvers and network. It waits for a
// StepN in flight to finish its batch. Idempotent. A closed session rejects
// StepN, Checkpoint and Deposit with ErrClosed; what a finished run answers
// for stays: its Config, Step count, PrecondSelection and instruments
// (History, Registry, Progress, Tracer, Handler). Its fields are in the
// last snapshot deposited before Close.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.m != nil {
		s.steps = s.m.StepCount()
		s.m = nil
		s.solver.Store(nil)
	}
	return nil
}

// Solver exposes the underlying stepper for embedding drivers (semflow
// prints kinetic energy, meters flops). Callers must not Step it directly
// while a Manager owns the session. On the simulated machine it is the
// read-only template the ranks forked, its fields still the initial
// condition; Distributed has the run's. Nil once the session is closed.
func (s *Session) Solver() *ns.Solver { return s.solver.Load() }

// PrecondSelection reports the pressure preconditioner and how it was
// chosen (an auto run's trials included); empty until the stepper is built.
// It is fixed then, so reading it takes no lock and outlives Close.
func (s *Session) PrecondSelection() solver.PrecondSelection {
	if sel := s.sel.Load(); sel != nil {
		return *sel
	}
	return solver.PrecondSelection{}
}

// Distributed reports the simulated machine's run so far (modelled clock,
// traffic, reassembled fields); nil for a shared-memory session and once
// the session is closed.
func (s *Session) Distributed() *parrun.NSResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.m.(simulated); ok {
		return m.Result()
	}
	return nil
}

// History is the per-step StepRecord series (the JSONL artifact).
func (s *Session) History() *instrument.TimeSeries { return s.history }

// Registry is the per-session metrics registry (/metrics).
func (s *Session) Registry() *instrument.Registry { return s.reg }

// Progress is the per-session progress snapshot (/progress).
func (s *Session) Progress() *Progress { return &s.prog }

// Tracer is the session's tracer (nil unless Config.Trace).
func (s *Session) Tracer() *instrument.Tracer { return s.tracer }
