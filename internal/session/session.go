// Package session promotes a stable simulation-session API out of the
// solver internals: Create a flow case, StepN it forward, Checkpoint /
// Resume it across process lifetimes, Cancel it mid-flight, and Close it —
// releasing every element-loop worker pool it holds. It is the substrate
// of the semflowd multi-tenant service (Manager + HTTPHandler multiplex
// many concurrent sessions over a bounded scheduler, with artifacts behind
// a pluggable Store), and of the one-shot semflow CLI, so there is exactly
// one code path from "flow case + config" to stepped fields.
//
// A Session wraps the serial shared-memory stepper (ns.Solver). Per-session
// observability is always on: a metrics Registry, a per-step StepRecord
// TimeSeries (the JSONL artifact), and a Progress snapshot — the same
// instruments PR 7's live endpoint serves, mounted per session by semflowd.
// Stepping is bitwise deterministic and isolated: two sessions running
// concurrently in one process produce exactly the fields each would have
// produced alone (worker chunks are fixed at build; nothing numeric is
// shared), which the lifecycle tests assert.
package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
)

// ErrCancelled reports a StepN interrupted by Cancel. The session's state
// stays valid: it can be checkpointed, resumed, or closed.
var ErrCancelled = errors.New("session: cancelled")

// ErrClosed reports an operation on a closed session.
var ErrClosed = errors.New("session: closed")

// Config selects a flow case and its knobs — the JSON body of semflowd's
// submit endpoint, and the struct semflow's serial flags map onto. Zero
// values mean "case default" (channel: KX=5 KY=3; all cases: N=8, Nel=8).
type Config struct {
	Case  string `json:"case"`  // shearlayer, channel, convection, hairpin
	Steps int    `json:"steps"` // job length (Manager); Create itself does not step

	N           int     `json:"n,omitempty"`            // polynomial order
	Nel         int     `json:"nel,omitempty"`          // elements per direction (shearlayer, convection)
	KX          int     `json:"kx,omitempty"`           // channel: elements along the channel
	KY          int     `json:"ky,omitempty"`           // channel: elements across the channel
	Precond     string  `json:"precond,omitempty"`      // pressure preconditioner: schwarz (default), chebjacobi, chebschwarz, none, auto
	Alpha       float64 `json:"alpha,omitempty"`        // filter strength (0 = unfiltered)
	ProjectionL int     `json:"projection_l,omitempty"` // pressure projection basis (convection/hairpin; 0 = case default)
	Workers     int     `json:"workers,omitempty"`      // element-loop workers (default 1)

	// Trace attaches a wall-clock tracer; the Manager stores the Chrome
	// trace JSON as a per-session artifact when the job finishes.
	Trace bool `json:"trace,omitempty"`

	// BatchSteps is the scheduler quantum: how many steps a session runs
	// per acquired slot before yielding to other sessions (default 1).
	BatchSteps int `json:"batch_steps,omitempty"`

	// CheckpointEvery > 0 makes the Manager deposit a checkpoint.gob
	// artifact every that-many steps (in addition to the final snapshot),
	// so a killed server can resume its jobs from the store.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// OnStep, when set, observes every completed step (the CLI's per-step
	// report). Not part of the wire format.
	OnStep func(ns.StepStats) `json:"-"`
}

func (c *Config) applyDefaults() {
	if c.N == 0 {
		c.N = 8
	}
	if c.Nel == 0 {
		c.Nel = 8
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.BatchSteps < 1 {
		c.BatchSteps = 1
	}
}

// buildSolver constructs the case's solver — the single switch both
// semflow and semflowd go through.
func buildSolver(c Config) (*ns.Solver, error) {
	switch c.Case {
	case "shearlayer":
		return flowcases.ShearLayer(flowcases.ShearLayerConfig{
			Nel: c.Nel, N: c.N, Rho: 30, Re: 1e5, Dt: 0.002, Alpha: c.Alpha, Workers: c.Workers,
			Precond: c.Precond,
		})
	case "channel":
		s, _, err := flowcases.Channel(flowcases.ChannelConfig{
			Re: 7500, Alpha: 1, N: c.N, Dt: 0.003125, Order: 2, Filter: c.Alpha,
			Workers: c.Workers, KX: c.KX, KY: c.KY, Precond: c.Precond,
		})
		return s, err
	case "convection":
		l := c.ProjectionL
		if l == 0 {
			l = 20
		}
		return flowcases.Convection(flowcases.ConvectionConfig{
			Nel: c.Nel, N: c.N, Ra: 1e4, Dt: 0.002, ProjectionL: l, Workers: c.Workers,
			Precond: c.Precond,
		})
	case "hairpin":
		return flowcases.Hairpin(flowcases.HairpinConfig{
			Nx: 6, Ny: 4, Nz: 3, N: c.N, Re: 1600, Dt: 0.05,
			Workers: c.Workers, FilterA: c.Alpha, ProjL: c.ProjectionL,
			Precond: c.Precond,
		})
	default:
		return nil, fmt.Errorf("session: unknown case %q", c.Case)
	}
}

// Session is one live simulation: a solver plus its per-session
// instruments. Methods are safe for concurrent use; stepping itself is
// serialized by the session's lock, so Checkpoint always observes a
// between-steps state.
type Session struct {
	cfg Config

	mu     sync.Mutex // guards solver access and closed
	solver *ns.Solver
	closed bool

	cancelled atomic.Bool

	reg     *instrument.Registry
	history *instrument.TimeSeries
	prog    *instrument.Progress
	tracer  *instrument.Tracer // nil unless cfg.Trace
}

// Create builds a session for the configured case.
func Create(cfg Config) (*Session, error) {
	cfg.applyDefaults()
	if cfg.Steps < 0 {
		return nil, fmt.Errorf("session: negative steps")
	}
	solver, err := buildSolver(cfg)
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:     cfg,
		solver:  solver,
		reg:     instrument.New(),
		history: instrument.NewTimeSeries(),
		prog:    instrument.NewProgress(),
	}
	sel := solver.PrecondSelection()
	s.reg.SetMeta(instrument.RunMeta{
		Case: cfg.Case, Elements: solver.M.K, Order: solver.M.N,
		Steps: cfg.Steps, Workers: cfg.Workers,
		Precond: sel.Name, PrecondSource: sel.Source,
	})
	solver.AttachMetrics(s.reg)
	solver.AttachHistory(s.history)
	if cfg.Trace {
		s.tracer = instrument.NewTracer()
		solver.AttachTracer(s.tracer)
	}
	return s, nil
}

// Resume builds a session of the same configuration and restores a
// checkpoint into it; stepping continues bitwise identically to the
// session the snapshot was taken from.
func Resume(cfg Config, ck *ns.Checkpoint) (*Session, error) {
	s, err := Create(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.solver.Restore(ck); err != nil {
		s.Close()
		return nil, err
	}
	s.updateProgress(ns.StepStats{Step: ck.Step, Time: ck.Time}, false)
	return s, nil
}

// Config returns the session's configuration (defaults applied).
func (s *Session) Config() Config { return s.cfg }

// StepN advances the solver up to n steps, stopping early on Cancel (with
// ErrCancelled) or a solver error. It returns the stats of the last
// completed step.
func (s *Session) StepN(n int) (ns.StepStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var last ns.StepStats
	if s.closed {
		return last, ErrClosed
	}
	for i := 0; i < n; i++ {
		if s.cancelled.Load() {
			return last, ErrCancelled
		}
		st, err := s.solver.Step()
		if err != nil {
			return last, err
		}
		last = st
		s.updateProgress(st, false)
		if s.cfg.OnStep != nil {
			s.cfg.OnStep(st)
		}
	}
	return last, nil
}

func (s *Session) updateProgress(st ns.StepStats, done bool) {
	s.prog.Update(instrument.ProgressSnapshot{
		Case: s.cfg.Case, Step: st.Step, TotalSteps: s.cfg.Steps,
		Time: st.Time, CFL: st.CFL,
		PressureIters: st.PressureIters, PressureRes: st.PressureResFinal,
		Converged: st.PressureConverged, Done: done,
	})
}

// Checkpoint captures a between-steps snapshot (it waits for any StepN in
// flight on another goroutine to finish its current batch).
func (s *Session) Checkpoint() (*ns.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.solver.Checkpoint(), nil
}

// Cancel makes the next step boundary return ErrCancelled. Idempotent;
// safe from any goroutine.
func (s *Session) Cancel() { s.cancelled.Store(true) }

// Cancelled reports whether Cancel was called.
func (s *Session) Cancelled() bool { return s.cancelled.Load() }

// Step returns the number of completed steps.
func (s *Session) Step() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solver.StepCount()
}

// Time returns the current simulation time.
func (s *Session) Time() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solver.Time()
}

// Close releases the solver's worker pools. Idempotent. A closed session
// rejects StepN/Checkpoint with ErrClosed; its instruments (History,
// Registry, Progress, Tracer) stay readable.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.solver.Close()
	return nil
}

// Solver exposes the underlying stepper for embedding drivers (semflow
// prints kinetic energy, reports the preconditioner selection, meters
// flops). Callers must not Step it directly while a Manager owns the
// session.
func (s *Session) Solver() *ns.Solver { return s.solver }

// History is the per-step StepRecord series (the JSONL artifact).
func (s *Session) History() *instrument.TimeSeries { return s.history }

// Registry is the per-session metrics registry (/metrics).
func (s *Session) Registry() *instrument.Registry { return s.reg }

// Progress is the per-session progress snapshot (/progress).
func (s *Session) Progress() *instrument.Progress { return s.prog }

// Tracer is the wall-clock tracer (nil unless Config.Trace).
func (s *Session) Tracer() *instrument.Tracer { return s.tracer }
