package ns

// checkpoint.go is the one state codec of the stepper — the session-
// migration primitive of the session service and, one per rank beside a
// comm.ClockState, the body of parrun's distributed snapshots. A Checkpoint
// deep-copies the state the next Step reads, over the elements the solver
// owns: the stepped fields of the current time level and of the BDF/OIFS
// history (velocity components, then the scalar when one is configured), the
// pressure and the pressure-projection basis. It holds state only: what is a
// pure function of the configuration, such as the Helmholtz operators and
// their Jacobi diagonals, every solver builds when it is made. Restoring a
// snapshot into a freshly built (or forked) Solver of the same configuration
// and element ownership yields a bitwise-identical continuation: same
// per-step statistics, same fields.
//
// Serialization is encoding/gob (float64 round-trips exactly; JSON would
// not), with a Version field guarding the layout.

import (
	"encoding/gob"
	"fmt"
	"io"
)

// CheckpointVersion is the snapshot layout version; Restore rejects others
// (version 1 kept the velocity and the scalar apart, and the Helmholtz
// diagonals beside them).
const CheckpointVersion = 2

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

	Fields [][]float64   // the current level's stepped fields (owned blocks)
	Hist   [][][]float64 // the BDF/OIFS history levels, newest first
	P      []float64     // pressure (Gauss grid)

	ProjXs  [][]float64 // pressure-projection basis
	ProjAxs [][]float64 // operator images of the basis
}

// Checkpoint captures the solver's current state. Call it between steps
// (never concurrently with Step).
func (s *Solver) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		Version: CheckpointVersion,
		Step:    s.step,
		Time:    s.time,
		K:       s.M.K, N: s.M.N, Dim: s.M.Dim, Np: s.M.Np, Npp: s.npp,
		Order:  s.Cfg.Order,
		Fields: copyLevel(s.fields),
		P:      append([]float64(nil), s.P...),
	}
	for _, h := range s.hist {
		c.Hist = append(c.Hist, copyLevel(h))
	}
	if s.projector != nil {
		c.ProjXs, c.ProjAxs = s.projector.State()
	}
	return c
}

// copyLevel deep-copies one time level's fields.
func copyLevel(fields [][]float64) [][]float64 {
	out := make([][]float64, len(fields))
	for c, u := range fields {
		out[c] = append([]float64(nil), u...)
	}
	return out
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
	if err := s.checkLevel(c.Fields); err != nil {
		return err
	}
	for _, h := range c.Hist {
		if err := s.checkLevel(h); err != nil {
			return err
		}
	}
	if len(c.P) != len(s.P) {
		return fmt.Errorf("ns: checkpoint pressure length %d, want %d", len(c.P), len(s.P))
	}
	for i, u := range c.Fields {
		copy(s.fields[i], u)
	}
	copy(s.P, c.P)
	s.hist = s.hist[:0]
	for _, h := range c.Hist {
		s.hist = append(s.hist, copyLevel(h))
	}
	if s.projector != nil {
		s.projector.Restore(c.ProjXs, c.ProjAxs)
	}
	s.step = c.Step
	s.time = c.Time
	return nil
}

// checkLevel checks a snapshot's time level against the solver's fields: the
// same stepped fields (a scalar or none), each over the same owned nodes.
func (s *Solver) checkLevel(fields [][]float64) error {
	if len(fields) != len(s.fields) {
		return fmt.Errorf("ns: checkpoint has %d stepped fields, solver %d (scalar-transport mismatch)", len(fields), len(s.fields))
	}
	for _, u := range fields {
		if len(u) != s.n {
			return fmt.Errorf("ns: checkpoint field length %d, want %d (element ownership drift)", len(u), s.n)
		}
	}
	return nil
}

// Encode gob-encodes the checkpoint. Snapshots are kept crash-safe by
// session.Store's filesystem backend (temp file, fsync, rename).
func (c *Checkpoint) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}
