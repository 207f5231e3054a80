package parrun

// checkpoint.go is the snapshot of a run on either machine. A distributed one
// (Stepper.Checkpoint) holds, per rank, the solver's ns.Checkpoint — the one
// state codec of the stepper, over the rank's own elements — and the comm
// clock state (virtual time, traffic counters, flow/fault sequence
// counters); a shared-memory one (Serial) is the same value with P = 0 and
// one state. Either is read between two batches of steps, outside the
// simulated machine (no messages, no virtual-clock cost), so a run with
// snapshots is bitwise identical to one without, and a run restarted from
// one is a bitwise-identical continuation: same per-step statistics, same
// fields, same virtual clocks, same fault-plan draws.
//
// Serialization is encoding/gob: float64 values round-trip exactly (JSON
// would not), and the Version field guards the layout. Where a snapshot is
// kept is session.Store's business; this file is only the codec.

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/ns"
)

// CheckpointVersion is the snapshot layout version; ReadCheckpoint rejects
// others (version 1 carried a parrun-private copy of the rank state, version
// 2 a copy of its step, time and shape).
const CheckpointVersion = 3

// RankCheckpoint is one rank's slice of the run: its clock and its solver
// state. The state is state only: a resumed rank rebuilds what is a function
// of the configuration, its Helmholtz diagonals included, while it is forked,
// and its clock is restored after that set-up traffic.
type RankCheckpoint struct {
	Rank  int
	Clock comm.ClockState
	State *ns.Checkpoint
}

// Checkpoint is a versioned snapshot of a run. Its step, time and shape are
// those of its rank states, which ns.Solver.Restore checks on resume.
type Checkpoint struct {
	Version int
	P       int // ranks of the run (restart requires the same count); 0: shared memory
	Ranks   []RankCheckpoint
}

// Serial wraps the shared-memory stepper's state as a run snapshot (P = 0),
// so one format serves both machines.
func Serial(state *ns.Checkpoint) *Checkpoint {
	return &Checkpoint{Version: CheckpointVersion, Ranks: []RankCheckpoint{{State: state}}}
}

// Step returns the number of completed steps the snapshot holds.
func (c *Checkpoint) Step() int { return c.Ranks[0].State.Step }

// Time returns the simulation time after Step steps.
func (c *Checkpoint) Time() float64 { return c.Ranks[0].State.Time }

// Encode gob-encodes the snapshot.
func (c *Checkpoint) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}

// ReadCheckpoint decodes a snapshot and checks its version and rank states.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("checkpoint: version %d, this build reads %d", c.Version, CheckpointVersion)
	}
	if len(c.Ranks) != max(c.P, 1) {
		return nil, fmt.Errorf("checkpoint: %d rank states for P=%d", len(c.Ranks), c.P)
	}
	for q := range c.Ranks {
		st, st0 := c.Ranks[q].State, c.Ranks[0].State
		if st == nil || st0 == nil {
			return nil, fmt.Errorf("checkpoint: rank %d has no state", q)
		}
		// Ranks step in lockstep: one that disagrees on where the run stands
		// would wait in a collective the others never enter.
		if st.Step != st0.Step || st.Time != st0.Time || len(st.Hist) != len(st0.Hist) || len(st.ProjXs) != len(st0.ProjXs) {
			return nil, fmt.Errorf("checkpoint: rank %d's step, time, history or projection basis differs from rank 0's", q)
		}
	}
	return &c, nil
}

// validateFor checks a snapshot against the run it is restoring into.
// steps, when non-zero, is the run's step target.
func (c *Checkpoint) validateFor(p, steps int) error {
	if c.P != p {
		return fmt.Errorf("checkpoint: taken at P=%d, run uses P=%d (restart with the same rank count)", c.P, p)
	}
	if steps > 0 && c.Step() >= steps {
		return fmt.Errorf("checkpoint: snapshot already at step %d, run targets %d total steps", c.Step(), steps)
	}
	return nil
}
