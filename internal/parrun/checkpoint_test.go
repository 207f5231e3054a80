package parrun

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/ns"
)

// roundTrip encodes a snapshot and decodes it back, as a restart does.
func roundTrip(t *testing.T, ck *Checkpoint) (*Checkpoint, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return ReadCheckpoint(&buf)
}

// resumeFrom runs the stepper for ckSteps steps, snapshots it at the end and
// decodes that snapshot back — the "kill the job at step k" half of a restart
// test.
func resumeFrom(t *testing.T, cfg ns.Config, nc NSConfig, ckSteps int) *Checkpoint {
	t.Helper()
	s, err := Start(cfg, nc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepN(ckSteps); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	ck, err := roundTrip(t, s.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step() != ckSteps {
		t.Fatalf("snapshot at step %d, want %d", ck.Step(), ckSteps)
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
	// Each level holds the two velocity components, then the scalar.
	if st := ck.Ranks[0].State; len(st.Fields) != 3 || len(st.Hist) == 0 || len(st.Hist[0]) != 3 {
		t.Fatalf("rank snapshot carries no scalar state (%d fields, %d history levels)", len(st.Fields), len(st.Hist))
	}
	re := base
	re.Resume = ck
	resumed, err := NavierStokes(cfg, re)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	requireBitwiseContinuation(t, full, resumed, ckSteps)
}

// TestCheckpointResumeBitwiseMidRamp: a BDF3 run snapshotted after step 1 or
// step 2 is still ramping its order up, so the continuation selects order-2
// and order-3 Helmholtz operators that the resumed ranks built while they were
// forked, before their clocks were restored. The channel and the convection
// cell (velocity and scalar operators) each resume bitwise from both.
func TestCheckpointResumeBitwiseMidRamp(t *testing.T) {
	channel, init := channelCase(t)
	convection := convectionCase(t)
	for _, c := range []struct {
		name string
		cfg  ns.Config
		init func(x, y, z float64) (float64, float64, float64)
	}{{"channel", channel, init}, {"convection", convection, nil}} {
		c.cfg.Order = 3
		base := NSConfig{P: 3, Steps: 4, Init: c.init}
		full, err := NavierStokes(c.cfg, base)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, ckSteps := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/step%d", c.name, ckSteps), func(t *testing.T) {
				re := base
				re.Resume = resumeFrom(t, c.cfg, base, ckSteps)
				resumed, err := NavierStokes(c.cfg, re)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				requireBitwiseContinuation(t, full, resumed, ckSteps)
			})
		}
	}
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
	for s.StepCount() < base.Steps {
		if _, err := s.StepN(1); err != nil {
			t.Fatal(err)
		}
		if _, err := roundTrip(t, s.Checkpoint()); err != nil {
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

	// A snapshot of another problem is refused by the ranks' ns.Solver.Restore,
	// the one shape check.
	m, err := mesh.Discretize(mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 2, X0: 0, X1: 1, Y0: 0, Y1: 1}), 4)
	if err != nil {
		t.Fatal(err)
	}
	coarser := cfg
	coarser.Mesh = m
	re = base
	re.Steps = 4
	re.Resume = ck
	if _, err := NavierStokes(coarser, re); err == nil ||
		!strings.Contains(err.Error(), "mismatch") {
		t.Errorf("snapshot of another discretization accepted (err: %v)", err)
	}

	// A snapshot of the previous layout (version 2, which copied its rank
	// states' header) is refused by the version check, not half-decoded.
	old := &Checkpoint{Version: 2, Ranks: []RankCheckpoint{{State: ck.Ranks[0].State}}}
	if _, err := roundTrip(t, old); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version-2 snapshot accepted (err: %v)", err)
	}
}
