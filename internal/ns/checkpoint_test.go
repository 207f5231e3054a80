package ns

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
)

// checkpointSolver builds a small shear-layer-like periodic problem with
// projection and a filter on, so the checkpoint covers every piece of
// cross-step state: BDF history and projection basis.
func checkpointSolver(t *testing.T, order int) *Solver {
	t.Helper()
	m := periodicBox(t, 4, 5)
	s, err := New(Config{
		Mesh: m, Re: 1e4, Dt: 0.002, Order: order,
		FilterAlpha: 0.2, ProjectionL: 8, PTol: 1e-7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return 0.3 + 0.1*x*(1-x), 0.05 * y * (1 - y), 0
	})
	return s
}

func stepStats(t *testing.T, s *Solver, n int) []StepStats {
	t.Helper()
	out := make([]StepStats, 0, n)
	for i := 0; i < n; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// TestCheckpointResumeBitwise is the serial analogue of parrun's restart
// guarantee: run A steps k+(8-k) through a gob-round-tripped checkpoint into
// a fresh solver, run B steps 8 uninterrupted, and every per-step statistic
// and final field must match bitwise. BDF3 snapshots after steps 1 and 2
// resume mid-ramp, so the continuation selects order-2 and order-3 Helmholtz
// operators its solver built itself.
func TestCheckpointResumeBitwise(t *testing.T) {
	for _, c := range []struct{ order, ck int }{{2, 4}, {3, 1}, {3, 2}} {
		t.Run(fmt.Sprintf("BDF%d/step%d", c.order, c.ck), func(t *testing.T) {
			resumeBitwise(t, c.order, c.ck)
		})
	}
}

func resumeBitwise(t *testing.T, order, ck int) {
	const steps = 8
	solo := checkpointSolver(t, order)
	defer solo.Close()
	soloStats := stepStats(t, solo, steps)

	a := checkpointSolver(t, order)
	firstStats := stepStats(t, a, ck)
	var buf bytes.Buffer
	if err := a.Checkpoint().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	a.Close()

	var snap Checkpoint
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	b := checkpointSolver(t, order)
	defer b.Close()
	if err := b.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if b.StepCount() != ck || b.Time() != a.Time() {
		t.Fatalf("restored step/time %d/%g, want %d/%g", b.StepCount(), b.Time(), ck, a.Time())
	}
	resumedStats := append(firstStats, stepStats(t, b, steps-ck)...)

	for i := range soloStats {
		if soloStats[i] != resumedStats[i] {
			t.Fatalf("step %d stats differ:\nsolo    %+v\nresumed %+v", i+1, soloStats[i], resumedStats[i])
		}
	}
	for c := 0; c < 2; c++ {
		us, ur := solo.Velocity(c), b.Velocity(c)
		for i := range us {
			if us[i] != ur[i] {
				t.Fatalf("velocity[%d][%d] differs after resume: %g vs %g", c, i, us[i], ur[i])
			}
		}
	}
	ps, pr := solo.Pressure(), b.Pressure()
	for i := range ps {
		if ps[i] != pr[i] {
			t.Fatalf("pressure[%d] differs after resume: %g vs %g", i, ps[i], pr[i])
		}
	}
}

// TestCheckpointShapeGuard: a snapshot must refuse to restore onto a
// different problem.
func TestCheckpointShapeGuard(t *testing.T) {
	s := checkpointSolver(t, 2)
	defer s.Close()
	stepStats(t, s, 2)
	ck := s.Checkpoint()

	m := periodicBox(t, 3, 5) // different element count
	other, err := New(Config{Mesh: m, Re: 1e4, Dt: 0.002, Order: 2, ProjectionL: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Restore(ck); err == nil {
		t.Fatal("Restore accepted a snapshot from a different mesh")
	}

	ck2 := s.Checkpoint()
	ck2.Version = 99
	if err := s.Restore(ck2); err == nil {
		t.Fatal("Restore accepted a wrong-version snapshot")
	}
}

// TestRestoreRefusesUnreadableSnapshot: each snapshot below was accepted once
// and panicked the next Step (or Restore itself). Restore must refuse it with
// an error and leave the solver stepping as before.
func TestRestoreRefusesUnreadableSnapshot(t *testing.T) {
	for _, c := range []struct {
		name string
		l    int // the restoring solver's projection basis size
		edit func(ck *Checkpoint)
	}{
		{"history past order", 8, func(ck *Checkpoint) {
			for range 4 {
				ck.Hist = append(ck.Hist, ck.Hist[0])
			}
		}},
		{"basis past L", 1, func(ck *Checkpoint) {}},
		{"images unpaired", 8, func(ck *Checkpoint) { ck.ProjAxs = ck.ProjAxs[:len(ck.ProjAxs)-1] }},
		{"short basis vector", 8, func(ck *Checkpoint) { ck.ProjXs[0] = ck.ProjXs[0][:3] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := checkpointSolver(t, 2)
			defer src.Close()
			stepStats(t, src, 3)
			ck := src.Checkpoint()
			if len(ck.Hist) != 1 || len(ck.ProjXs) < 2 {
				t.Fatalf("snapshot after 3 steps has %d history levels and %d basis vectors, want 1 and >= 2", len(ck.Hist), len(ck.ProjXs))
			}
			c.edit(ck)

			s, err := New(Config{Mesh: src.M, Re: 1e4, Dt: 0.002, Order: 2,
				FilterAlpha: 0.2, ProjectionL: c.l, PTol: 1e-7})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Restore(ck); err == nil {
				t.Error("Restore accepted the snapshot")
			}
			if s.StepCount() != 0 {
				t.Errorf("a refused Restore moved the step count to %d", s.StepCount())
			}
			stepStats(t, s, 1)
		})
	}
}
