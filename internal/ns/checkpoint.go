package ns

// checkpoint.go is the one state codec of the stepper — the session-
// migration primitive of the session service and, one per rank beside a
// comm.ClockState, the body of parrun's distributed snapshots. A Checkpoint
// deep-copies everything the next Step reads that is not a pure function of
// the configuration, over the elements the solver owns: the fields, the
// BDF/OIFS velocity (and scalar) history, the pressure, the pressure-
// projection basis, and the cached Helmholtz Jacobi diagonals. Restoring it
// into a freshly built (or forked) Solver of the same configuration and
// element ownership yields a bitwise-identical continuation: same per-step
// statistics, same fields.
//
// Serialization is encoding/gob (float64 round-trips exactly; JSON would
// not), with a Version field guarding the layout.

import (
	"encoding/gob"
	"fmt"
	"io"
)

// CheckpointVersion is the snapshot layout version; ReadCheckpoint rejects
// others.
const CheckpointVersion = 1

// Checkpoint is a versioned deep copy of a Solver's time-stepping state
// after Step completed steps.
type Checkpoint struct {
	Version int
	Step    int     // completed steps
	Time    float64 // simulation time after Step steps

	// Mesh/discretization shape guard: a snapshot only restores onto the
	// problem it was taken from.
	K, N, Dim, Np, Npp int
	Order              int // BDF order (bounds the history length)

	U  [3][]float64   // velocity components (owned blocks)
	Uh [][3][]float64 // BDF/OIFS velocity history (newest first)
	P  []float64      // pressure (Gauss grid)
	T  []float64      // scalar (nil without Boussinesq transport)
	Th [][]float64    // scalar history

	ProjXs  [][]float64 // pressure-projection basis
	ProjAxs [][]float64 // operator images of the basis

	// Cached assembled Helmholtz Jacobi diagonals (velocity and scalar
	// grids; nil if never built). They are pure functions of (h1, h2), so
	// restoring them is a speed matter, not a correctness one — but it
	// keeps the resumed run from recomputing what the uninterrupted run
	// had cached.
	Diag             []float64
	DiagH1, DiagH2   float64
	DiagS            []float64
	DiagH1S, DiagH2S float64
}

// Checkpoint captures the solver's current state. Call it between steps
// (never concurrently with Step).
func (s *Solver) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		Version: CheckpointVersion,
		Step:    s.step,
		Time:    s.time,
		K:       s.M.K, N: s.M.N, Dim: s.M.Dim, Np: s.M.Np, Npp: s.npp,
		Order: s.Cfg.Order,
		P:     append([]float64(nil), s.P...),
	}
	for comp := 0; comp < 3; comp++ {
		c.U[comp] = append([]float64(nil), s.U[comp]...)
	}
	for _, h := range s.Uh {
		var hc [3][]float64
		for comp := 0; comp < 3; comp++ {
			hc[comp] = append([]float64(nil), h[comp]...)
		}
		c.Uh = append(c.Uh, hc)
	}
	if s.T != nil {
		c.T = append([]float64(nil), s.T...)
		for _, h := range s.Th {
			c.Th = append(c.Th, append([]float64(nil), h...))
		}
	}
	if s.projector != nil {
		c.ProjXs, c.ProjAxs = s.projector.State()
	}
	if s.helmDiag != nil {
		c.Diag = append([]float64(nil), s.helmDiag...)
		c.DiagH1, c.DiagH2 = s.helmH1, s.helmH2
	}
	if s.helmDiagS != nil {
		c.DiagS = append([]float64(nil), s.helmDiagS...)
		c.DiagH1S, c.DiagH2S = s.helmH1S, s.helmH2S
	}
	return c
}

// Restore replaces the solver's time-stepping state with a deep copy of a
// snapshot taken from an identically configured solver owning the same
// elements. The next Step continues bitwise identically to the run the
// snapshot was taken from.
func (s *Solver) Restore(c *Checkpoint) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("ns: checkpoint version %d, this build reads %d", c.Version, CheckpointVersion)
	}
	if c.K != s.M.K || c.N != s.M.N || c.Dim != s.M.Dim || c.Np != s.M.Np || c.Npp != s.npp {
		return fmt.Errorf("ns: checkpoint mesh/discretization mismatch (snapshot K=%d N=%d dim=%d, solver K=%d N=%d dim=%d)",
			c.K, c.N, c.Dim, s.M.K, s.M.N, s.M.Dim)
	}
	if c.Order != s.Cfg.Order {
		return fmt.Errorf("ns: checkpoint BDF order %d, solver uses %d", c.Order, s.Cfg.Order)
	}
	if (c.T != nil) != (s.T != nil) {
		return fmt.Errorf("ns: checkpoint scalar-transport mismatch")
	}
	for comp := 0; comp < 3; comp++ {
		if len(c.U[comp]) != s.n {
			return fmt.Errorf("ns: checkpoint velocity length %d, want %d (element ownership drift)", len(c.U[comp]), s.n)
		}
		copy(s.U[comp], c.U[comp])
	}
	if len(c.P) != len(s.P) {
		return fmt.Errorf("ns: checkpoint pressure length %d, want %d", len(c.P), len(s.P))
	}
	copy(s.P, c.P)
	s.Uh = s.Uh[:0]
	for _, h := range c.Uh {
		var hc [3][]float64
		for comp := 0; comp < 3; comp++ {
			hc[comp] = make([]float64, s.n)
			copy(hc[comp], h[comp])
		}
		s.Uh = append(s.Uh, hc)
	}
	if s.T != nil {
		copy(s.T, c.T)
		s.Th = s.Th[:0]
		for _, h := range c.Th {
			th := make([]float64, s.n)
			copy(th, h)
			s.Th = append(s.Th, th)
		}
	}
	if s.projector != nil {
		s.projector.Restore(c.ProjXs, c.ProjAxs)
	}
	if c.Diag != nil {
		s.helmDiag = append(s.helmDiag[:0], c.Diag...)
		s.helmH1, s.helmH2 = c.DiagH1, c.DiagH2
	}
	if c.DiagS != nil {
		s.helmDiagS = append(s.helmDiagS[:0], c.DiagS...)
		s.helmH1S, s.helmH2S = c.DiagH1S, c.DiagH2S
	}
	s.step = c.Step
	s.time = c.Time
	return nil
}

// Encode gob-encodes the checkpoint. Callers wanting crash-safe files
// should write to a temp file, fsync, and rename (session.Store's
// filesystem backend and parrun's snapshot writer both do).
func (c *Checkpoint) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}

// ReadCheckpoint decodes and version-checks a snapshot.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("ns: checkpoint decode: %w", err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("ns: checkpoint version %d, this build reads %d", c.Version, CheckpointVersion)
	}
	return &c, nil
}
