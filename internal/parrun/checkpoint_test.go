package parrun

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/ns"
)

// resumeFrom runs the stepper for ckSteps steps writing a snapshot at the
// end, then loads that snapshot back — the "kill the job at step k" half of
// a restart test.
func resumeFrom(t *testing.T, cfg ns.Config, nc NSConfig, ckSteps int) *Checkpoint {
	t.Helper()
	dir := t.TempDir()
	s, err := Start(cfg, nc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepN(ckSteps); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if err := s.Checkpoint().WriteFile(CheckpointPath(dir, ckSteps)); err != nil {
		t.Fatal(err)
	}
	path, err := LatestCheckpoint(dir)
	if err != nil || path == "" {
		t.Fatalf("latest snapshot: %q, %v", path, err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != ckSteps {
		t.Fatalf("snapshot at step %d, want %d", ck.Step, ckSteps)
	}
	return ck
}

// requireBitwiseContinuation compares a resumed run against the tail of the
// uninterrupted run: per-step statistics, per-step modeled times, and the
// final fields must all be bitwise equal — restart is a continuation, not
// an approximation.
func requireBitwiseContinuation(t *testing.T, full, resumed *NSResult, ckSteps int) {
	t.Helper()
	if resumed.FirstStep != ckSteps {
		t.Fatalf("resumed FirstStep %d, want %d", resumed.FirstStep, ckSteps)
	}
	wantSteps := full.Steps - ckSteps
	if len(resumed.StepStats) != wantSteps || len(resumed.StepVirtual) != wantSteps {
		t.Fatalf("resumed run has %d stats / %d step times, want %d",
			len(resumed.StepStats), len(resumed.StepVirtual), wantSteps)
	}
	for s := 0; s < wantSteps; s++ {
		a, b := full.StepStats[ckSteps+s], resumed.StepStats[s]
		if a != b {
			t.Errorf("step %d statistics diverge after resume:\n full    %+v\n resumed %+v",
				ckSteps+s+1, a, b)
		}
		if full.StepVirtual[ckSteps+s] != resumed.StepVirtual[s] {
			t.Errorf("step %d modeled time diverges: %g vs %g",
				ckSteps+s+1, full.StepVirtual[ckSteps+s], resumed.StepVirtual[s])
		}
	}
	if full.VirtualSeconds != resumed.VirtualSeconds {
		t.Errorf("final virtual clock diverges: %g vs %g", full.VirtualSeconds, resumed.VirtualSeconds)
	}
	for c := range full.U {
		if full.U[c] == nil {
			continue
		}
		for i := range full.U[c] {
			if full.U[c][i] != resumed.U[c][i] {
				t.Fatalf("velocity component %d index %d diverges after resume: %g vs %g",
					c, i, full.U[c][i], resumed.U[c][i])
			}
		}
	}
	for i := range full.Pressure {
		if full.Pressure[i] != resumed.Pressure[i] {
			t.Fatalf("pressure index %d diverges after resume: %g vs %g",
				i, full.Pressure[i], resumed.Pressure[i])
		}
	}
	for i := range full.Scalar {
		if full.Scalar[i] != resumed.Scalar[i] {
			t.Fatalf("scalar index %d diverges after resume: %g vs %g",
				i, full.Scalar[i], resumed.Scalar[i])
		}
	}
}

// TestCheckpointResumeBitwise: killing the run after 2 of 4 steps and
// resuming from the snapshot must reproduce the uninterrupted run bitwise.
func TestCheckpointResumeBitwise(t *testing.T) {
	cfg, init := nsCase(t)
	const p, ckSteps, steps = 3, 2, 4
	base := NSConfig{P: p, Steps: steps, Init: init}
	full, err := NavierStokes(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	ck := resumeFrom(t, cfg, base, ckSteps)
	re := base
	re.Resume = ck
	resumed, err := NavierStokes(cfg, re)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	requireBitwiseContinuation(t, full, resumed, ckSteps)
}

// TestCheckpointResumeBitwiseScalar: the snapshot is the shared ns state
// codec, so it carries the scalar and its BDF/OIFS history: a convection run
// killed after 2 of 4 steps resumes bitwise, scalar included.
func TestCheckpointResumeBitwiseScalar(t *testing.T) {
	cfg := convectionCase(t)
	const p, ckSteps, steps = 3, 2, 4
	base := NSConfig{P: p, Steps: steps}
	full, err := NavierStokes(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.Scalar == nil {
		t.Fatal("convection run returned no scalar field")
	}
	ck := resumeFrom(t, cfg, base, ckSteps)
	if st := ck.Ranks[0].State; st.T == nil || len(st.Th) == 0 {
		t.Fatalf("rank snapshot carries no scalar state (T %d values, %d history levels)", len(st.T), len(st.Th))
	}
	re := base
	re.Resume = ck
	resumed, err := NavierStokes(cfg, re)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	requireBitwiseContinuation(t, full, resumed, ckSteps)
}

// TestCheckpointResumeBitwiseUnderFaults: the same kill-and-resume contract
// must hold on a degraded machine — the snapshot carries the fault plan's
// per-sender sequence counters, so every post-resume drop, jitter, and
// straggler draw lands exactly where the uninterrupted run put it.
func TestCheckpointResumeBitwiseUnderFaults(t *testing.T) {
	cfg, init := nsCase(t)
	const p, ckSteps, steps = 3, 2, 4
	plan := &fault.Plan{
		Seed:       11,
		Stragglers: []fault.Straggler{{Rank: 2, Factor: 2.5}},
		Drops:      []fault.Drop{{From: -1, To: -1, Prob: 0.01}},
		Links:      []fault.LinkJitter{{From: 0, To: -1, MaxDelay: 5e-6}},
	}
	base := NSConfig{P: p, Steps: steps, Init: init, Faults: plan}
	full, err := NavierStokes(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.Drops == 0 {
		t.Fatal("plan produced no drops; the resume test would not exercise fault-state restore")
	}
	ck := resumeFrom(t, cfg, base, ckSteps)
	re := base
	re.Resume = ck
	resumed, err := NavierStokes(cfg, re)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	requireBitwiseContinuation(t, full, resumed, ckSteps)
}

// TestCheckpointingIsInvisible: a snapshot after every step must not perturb
// the run — the deposit happens outside the simulated machine.
func TestCheckpointingIsInvisible(t *testing.T) {
	cfg, init := nsCase(t)
	base := NSConfig{P: 3, Steps: 3, Init: init}
	plain, err := NavierStokes(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Start(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for s.StepCount() < base.Steps {
		if _, err := s.StepN(1); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint().WriteFile(CheckpointPath(dir, s.StepCount())); err != nil {
			t.Fatal(err)
		}
	}
	snapped := s.Result()
	if plain.VirtualSeconds != snapped.VirtualSeconds {
		t.Fatalf("checkpointing moved the virtual clock: %g vs %g",
			plain.VirtualSeconds, snapped.VirtualSeconds)
	}
	for s := range plain.StepStats {
		if plain.StepStats[s] != snapped.StepStats[s] {
			t.Fatalf("checkpointing changed step %d statistics", s+1)
		}
	}
}

// TestCheckpointValidation: mismatched snapshots must be rejected with a
// diagnosable error, never silently restored.
func TestCheckpointValidation(t *testing.T) {
	cfg, init := nsCase(t)
	base := NSConfig{P: 3, Steps: 2, Init: init}
	ck := resumeFrom(t, cfg, base, 2)

	re := base
	re.P = 2
	re.Steps = 4
	re.Resume = ck
	if _, err := NavierStokes(cfg, re); err == nil ||
		!strings.Contains(err.Error(), "rank count") {
		t.Errorf("P mismatch accepted (err: %v)", err)
	}

	re = base
	re.Steps = 2 // snapshot already holds all of them
	re.Resume = ck
	if _, err := NavierStokes(cfg, re); err == nil ||
		!strings.Contains(err.Error(), "step") {
		t.Errorf("already-complete snapshot accepted (err: %v)", err)
	}

	// A file of the previous layout (the parrun-private rank state, version
	// 1) is refused by the version check, not half-decoded.
	old := filepath.Join(t.TempDir(), "ckpt-000002.gob")
	if err := (&Checkpoint{Version: 1, Step: 2, P: 1, Ranks: make([]RankCheckpoint, 1)}).WriteFile(old); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(old); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 snapshot accepted (err: %v)", err)
	}

	if path, err := LatestCheckpoint(t.TempDir()); err != nil || path != "" {
		t.Errorf("empty dir: path %q, err %v", path, err)
	}
	if path, err := LatestCheckpoint("/does/not/exist"); err != nil || path != "" {
		t.Errorf("missing dir: path %q, err %v", path, err)
	}
}

// TestCheckpointWriteSharedDir is the regression test for the fixed-name
// temp-file collision: with the old path+".tmp" scheme, two sessions
// checkpointing the same step number into one directory raced on the same
// temp file and could rename each other's half-written bytes into place.
// With unique temp names every concurrently written snapshot must load
// back intact.
func TestCheckpointWriteSharedDir(t *testing.T) {
	dir := t.TempDir()
	mk := func(step, marker int) *Checkpoint {
		return &Checkpoint{
			Version: CheckpointVersion, Step: step, P: 1,
			K: marker, N: 5, Dim: 2, Np: 36, Npp: 16,
			Ranks: []RankCheckpoint{{Rank: 0, State: &ns.Checkpoint{U: [3][]float64{
				make([]float64, 64), make([]float64, 64), nil,
			}}}},
		}
	}
	const writers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// All writers share the directory; each has its own final path
			// (two sessions, same step) but the temp names must not collide.
			path := filepath.Join(dir, fmt.Sprintf("sess%d-ckpt-000010.gob", w))
			for r := 0; r < rounds; r++ {
				if err := mk(10, w).WriteFile(path); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		path := filepath.Join(dir, fmt.Sprintf("sess%d-ckpt-000010.gob", w))
		c, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("writer %d: snapshot did not survive concurrent writes: %v", w, err)
		}
		if c.K != w || c.Step != 10 {
			t.Fatalf("writer %d: loaded someone else's snapshot: K=%d step=%d", w, c.K, c.Step)
		}
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}
