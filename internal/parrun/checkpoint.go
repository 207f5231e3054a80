package parrun

// checkpoint.go implements checkpoint/restart for the distributed
// Navier–Stokes stepper. Every K steps each rank deposits its solver's
// ns.Checkpoint — the one state codec of the stepper, over the rank's own
// elements — and the comm clock state (virtual time, traffic counters,
// flow/fault sequence counters) into a shared sink;
// when all P deposits for a step have landed, the sink writes one versioned
// snapshot file. The deposit happens outside the simulated machine (no
// messages, no virtual-clock cost), so a run with checkpointing enabled is
// bitwise identical to one without, and a run restarted from a snapshot is
// a bitwise-identical continuation of the uninterrupted run: same per-step
// statistics, same fields, same virtual clocks, same fault-plan draws.
//
// Serialization is encoding/gob: float64 values round-trip exactly (JSON
// would not), and the Version field guards the layout.

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/comm"
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

// Checkpoint is a versioned snapshot of a distributed run after Step
// completed steps.
type Checkpoint struct {
	Version int
	Step    int     // completed steps
	Time    float64 // simulation time after Step steps
	P       int     // ranks of the run (restart requires the same count)

	// Mesh/discretization shape guard: a snapshot only restores onto the
	// problem it was taken from.
	K, N, Dim, Np, Npp int

	Ranks []RankCheckpoint
}

// checkpointPath names the snapshot for one step inside dir.
func checkpointPath(dir string, step int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%06d.gob", step))
}

// WriteFile atomically serializes the checkpoint: a uniquely named temp
// file in the target directory, fsync'd before the rename. The fsync
// matters — rename alone orders the directory entry, not the data, so a
// crash shortly after an unsynced rename can leave an empty or truncated
// "atomic" snapshot. The unique temp name (os.CreateTemp) matters too: the
// old fixed path+".tmp" collided when two sessions checkpointed the same
// step into a shared directory, each clobbering the other's half-written
// temp file.
func (c *Checkpoint) WriteFile(path string) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	fail := func(op string, err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %s: %w", op, err)
	}
	if err := gob.NewEncoder(f).Encode(c); err != nil {
		return fail("encode", err)
	}
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Best-effort directory sync so the rename itself survives a crash.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpoint reads and version-checks a snapshot file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	var c Checkpoint
	if err := gob.NewDecoder(f).Decode(&c); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: decode: %w", path, err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("checkpoint: %s: version %d, this build reads %d",
			path, c.Version, CheckpointVersion)
	}
	if len(c.Ranks) != c.P {
		return nil, fmt.Errorf("checkpoint: %s: %d rank states for P=%d", path, len(c.Ranks), c.P)
	}
	return &c, nil
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

// ckptSink collects per-rank deposits and writes the snapshot once all P
// ranks have contributed for a step. Ranks at most one step apart can have
// pending deposits simultaneously (every step is full of allreduces), so
// the pending map stays tiny.
type ckptSink struct {
	mu      sync.Mutex
	dir     string
	p       int
	shape   Checkpoint // template carrying the shape-guard fields
	pending map[int]*Checkpoint
	written int
	err     error // first write error, surfaced after the run
}

func newCkptSink(dir string, p int, shape Checkpoint) *ckptSink {
	return &ckptSink{dir: dir, p: p, shape: shape, pending: map[int]*Checkpoint{}}
}

// deposit stores one rank's state for a step; the last deposit triggers the
// file write (wall-clock I/O only — the simulated machine never sees it).
func (s *ckptSink) deposit(step int, time float64, rs RankCheckpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.pending[step]
	if !ok {
		c = &Checkpoint{Version: CheckpointVersion, Step: step, Time: time, P: s.p,
			K: s.shape.K, N: s.shape.N, Dim: s.shape.Dim, Np: s.shape.Np, Npp: s.shape.Npp,
			Ranks: make([]RankCheckpoint, 0, s.p)}
		s.pending[step] = c
	}
	c.Ranks = append(c.Ranks, rs)
	if len(c.Ranks) < s.p {
		return
	}
	delete(s.pending, step)
	sort.Slice(c.Ranks, func(i, j int) bool { return c.Ranks[i].Rank < c.Ranks[j].Rank })
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	if err := c.WriteFile(checkpointPath(s.dir, step)); err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.written++
}

// validateFor checks a snapshot against the run it is restoring into.
func (c *Checkpoint) validateFor(p, k, n, dim, np, npp, steps int) error {
	if c.P != p {
		return fmt.Errorf("checkpoint: taken at P=%d, run uses P=%d (restart with the same rank count)", c.P, p)
	}
	if c.K != k || c.N != n || c.Dim != dim || c.Np != np || c.Npp != npp {
		return fmt.Errorf("checkpoint: mesh/discretization mismatch (snapshot K=%d N=%d dim=%d, run K=%d N=%d dim=%d)",
			c.K, c.N, c.Dim, k, n, dim)
	}
	if c.Step >= steps {
		return fmt.Errorf("checkpoint: snapshot already at step %d, run targets %d total steps", c.Step, steps)
	}
	return nil
}
