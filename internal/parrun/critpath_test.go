package parrun

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/instrument"
)

// TestCriticalPathMatchesNSAccounting cross-checks the trace-derived
// critical path against the stepper's own virtual-time accounting: the
// path's total must equal the modeled completion time (it ends at the last
// rank's clock), bound the per-rank average phase breakdown from above,
// and decompose into per-step stretches that cover every executed step.
func TestCriticalPathMatchesNSAccounting(t *testing.T) {
	cfg, init := nsCase(t)
	const p, steps = 4, 3
	tr := instrument.NewTracer()
	tr.DisableWallClock()
	res, err := NavierStokes(cfg, NSConfig{P: p, Steps: steps, Init: init, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := instrument.AnalyzeCriticalPath(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ranks != p {
		t.Fatalf("critical path saw %d rank tracks, want %d", cp.Ranks, p)
	}
	// The path ends at the last rank to finish, which is exactly the
	// result's modeled completion time.
	if d := math.Abs(cp.TotalSeconds - res.VirtualSeconds); d > 1e-12*res.VirtualSeconds {
		t.Fatalf("path total %g != modeled completion %g", cp.TotalSeconds, res.VirtualSeconds)
	}
	// It bounds the per-rank average phase sum from above (the max rank is
	// no faster than the average, and the path also carries setup).
	var phaseSum float64
	for _, v := range res.PhaseVirtual {
		phaseSum += v
	}
	if cp.TotalSeconds < phaseSum {
		t.Fatalf("path total %g < mean per-rank phase sum %g", cp.TotalSeconds, phaseSum)
	}
	// Segments partition [0, total] with no gaps or overlaps.
	var sum float64
	for i, s := range cp.Segments {
		sum += s.T1 - s.T0
		if i > 0 && s.T0 < cp.Segments[i-1].T1-1e-15 {
			t.Fatalf("segment %d overlaps predecessor", i)
		}
	}
	if d := math.Abs(sum - cp.TotalSeconds); d > 1e-9*cp.TotalSeconds {
		t.Fatalf("segments sum to %g, want %g", sum, cp.TotalSeconds)
	}
	// Every executed step appears on the path, and the per-step path time is
	// consistent with the stepper's own per-step elapsed accounting: each
	// step's critical stretch cannot exceed the global clock advance over
	// that step by more than boundary skew between ranks.
	seen := map[int]float64{}
	for _, st := range cp.Steps {
		seen[st.Step] = st.Seconds
	}
	for i := 1; i <= steps; i++ {
		if seen[i] <= 0 {
			t.Errorf("step %d missing from critical path: %v", i, seen)
		}
	}
	// The distributed pressure solve must put collective latency on the
	// path — this is the quantity the strong-scaling study attributes the
	// large-P regime to.
	if cp.ByCategory["allreduce"] <= 0 {
		t.Error("no allreduce time on the critical path")
	}
	if cp.ByPhase["pressure"] <= 0 {
		t.Error("no pressure-phase time on the critical path")
	}
	// The walk crosses a message edge wherever the rank it is on waited: with
	// four ranks trading places as the slowest that is thousands of times in
	// three steps. A handful means the walk lost an edge and stayed put.
	if cp.Hops < 100*steps {
		t.Errorf("critical path crossed %d message edges at P=4, want hundreds per step", cp.Hops)
	}
	// Per-rank accounting closes: on-path + slack = total for every rank.
	var onPath float64
	for _, pr := range cp.PerRank {
		onPath += pr.OnPath
		if d := math.Abs(pr.OnPath + pr.Slack - cp.TotalSeconds); d > 1e-9*cp.TotalSeconds {
			t.Errorf("rank %d: on-path %g + slack %g != total %g", pr.Rank, pr.OnPath, pr.Slack, cp.TotalSeconds)
		}
	}
	if d := math.Abs(onPath - cp.TotalSeconds); d > 1e-9*cp.TotalSeconds {
		t.Errorf("per-rank on-path times sum to %g, want %g", onPath, cp.TotalSeconds)
	}
}

// TestCriticalPathOnSampledTrace: rank sampling keeps the analyzer usable —
// the walk runs over the recorded tracks only and still produces a
// gap-free path ending at the sampled ranks' last clock.
func TestCriticalPathOnSampledTrace(t *testing.T) {
	cfg, init := nsCase(t)
	const p, steps = 4, 2
	tr := instrument.NewTracer()
	tr.DisableWallClock()
	tr.SampleVRanks([]int{0, 2})
	if _, err := NavierStokes(cfg, NSConfig{P: p, Steps: steps, Init: init, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := instrument.ValidateFlowClosure(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	cp, err := instrument.AnalyzeCriticalPath(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ranks != 2 {
		t.Fatalf("sampled trace has %d rank tracks, want 2", cp.Ranks)
	}
	var sum float64
	for _, s := range cp.Segments {
		if s.Rank != 0 && s.Rank != 2 {
			t.Fatalf("path visits unsampled rank %d", s.Rank)
		}
		sum += s.T1 - s.T0
	}
	if d := math.Abs(sum - cp.TotalSeconds); d > 1e-9*cp.TotalSeconds {
		t.Fatalf("sampled path has gaps: %g vs %g", sum, cp.TotalSeconds)
	}
}
