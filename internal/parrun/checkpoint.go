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
// would not), and the Version field guards the layout.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/comm"
	"repro/internal/durable"
	"repro/internal/ns"
)

// CheckpointVersion is the snapshot layout version; Load rejects others
// (version 1 carried a parrun-private copy of the rank state).
const CheckpointVersion = 2

// RankCheckpoint is one rank's slice of the run: its clock and its solver
// state. The state includes the cached Helmholtz Jacobi diagonal, so a
// resumed run does not recompute — and therefore re-communicate — what the
// uninterrupted run had cached.
type RankCheckpoint struct {
	Rank  int
	Clock comm.ClockState
	State *ns.Checkpoint
}

// Checkpoint is a versioned snapshot of a run after Step completed steps.
type Checkpoint struct {
	Version int
	Step    int     // completed steps
	Time    float64 // simulation time after Step steps
	P       int     // ranks of the run (restart requires the same count); 0: shared memory

	// Mesh/discretization shape guard: a snapshot only restores onto the
	// problem it was taken from.
	K, N, Dim, Np, Npp int

	Ranks []RankCheckpoint
}

// newCheckpoint wraps the rank states of a P-rank run; every state carries
// the global shape.
func newCheckpoint(p int, ranks []RankCheckpoint) *Checkpoint {
	st := ranks[0].State
	return &Checkpoint{Version: CheckpointVersion, Step: st.Step, Time: st.Time, P: p,
		K: st.K, N: st.N, Dim: st.Dim, Np: st.Np, Npp: st.Npp, Ranks: ranks}
}

// Serial wraps the shared-memory stepper's state as a run snapshot (P = 0),
// so one format serves both machines.
func Serial(state *ns.Checkpoint) *Checkpoint {
	return newCheckpoint(0, []RankCheckpoint{{State: state}})
}

// CheckpointPath names the snapshot for one step inside dir.
func CheckpointPath(dir string, step int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%06d.gob", step))
}

// Encode gob-encodes the snapshot.
func (c *Checkpoint) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}

// WriteFile serializes the snapshot to path, durably: neither a crash nor a
// second session writing the same step into a shared directory tears it.
func (c *Checkpoint) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	if err := durable.WriteFile(path, buf.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
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
		if c.Ranks[q].State == nil {
			return nil, fmt.Errorf("checkpoint: rank %d has no state", q)
		}
	}
	return &c, nil
}

// LoadCheckpoint reads and checks a snapshot file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	c, err := ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// LatestCheckpoint returns the highest-step snapshot path in dir ("" when
// the directory holds none).
func LatestCheckpoint(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && len(name) == len("ckpt-000000.gob") &&
			name[:5] == "ckpt-" && filepath.Ext(name) == ".gob" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "", nil
	}
	sort.Strings(names) // zero-padded step numbers sort lexicographically
	return filepath.Join(dir, names[len(names)-1]), nil
}

// validateFor checks a snapshot against the run it is restoring into.
// steps, when non-zero, is the run's step target.
func (c *Checkpoint) validateFor(p, k, n, dim, np, npp, steps int) error {
	if c.P != p {
		return fmt.Errorf("checkpoint: taken at P=%d, run uses P=%d (restart with the same rank count)", c.P, p)
	}
	if c.K != k || c.N != n || c.Dim != dim || c.Np != np || c.Npp != npp {
		return fmt.Errorf("checkpoint: mesh/discretization mismatch (snapshot K=%d N=%d dim=%d, run K=%d N=%d dim=%d)",
			c.K, c.N, c.Dim, k, n, dim)
	}
	if steps > 0 && c.Step >= steps {
		return fmt.Errorf("checkpoint: snapshot already at step %d, run targets %d total steps", c.Step, steps)
	}
	return nil
}
