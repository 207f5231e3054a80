package instrument

import (
	"bytes"
	"math"
	"testing"
)

// buildCritTrace constructs a two-rank trace with one gating message:
// rank 0 computes for 5 µs, spends 3 µs sending, and rank 1 (idle after
// 2 µs of setup work) resumes at the arrival and works 12 µs more inside
// a pressure phase window. The critical path is rank0 [0,5] compute →
// wire [5,8] → rank1 [8,20] pressure.
func buildCritTrace(t *testing.T) []byte {
	t.Helper()
	us := 1e-6
	tr := NewTracer()
	tr.DisableWallClock()
	tr.SpanV(0, "setup.work", "compute", 0, 5*us, nil)
	tr.SpanV(0, "send", "comm", 5*us, 8*us, nil)
	tr.FlowV("s", 0, "msg", 8*us, "0.1")

	tr.SpanV(1, "early.work", "compute", 0, 2*us, nil)
	tr.FlowV("f", 1, "msg", 8*us, "0.1") // gating: ts_f == ts_s
	tr.SpanV(1, "ns/pressure", "ns", 8*us, 20*us, map[string]any{"step": 2})
	tr.SpanV(1, "allreduce", "comm", 14*us, 17*us, nil)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnalyzeCriticalPathSyntheticChain(t *testing.T) {
	cp, err := AnalyzeCriticalPath(buildCritTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	us := 1e-6
	if cp.EndRank != 1 || math.Abs(cp.TotalSeconds-20*us) > 1e-18 {
		t.Fatalf("end rank %d total %g, want rank 1 at 20µs", cp.EndRank, cp.TotalSeconds)
	}
	if cp.Hops != 1 {
		t.Fatalf("hops = %d, want 1 gating receive", cp.Hops)
	}
	// Segment sum covers the whole path.
	var sum float64
	for _, s := range cp.Segments {
		sum += s.T1 - s.T0
	}
	if math.Abs(sum-cp.TotalSeconds) > 1e-15 {
		t.Fatalf("segments sum to %g, want %g", sum, cp.TotalSeconds)
	}
	// Segments are forward in time and alternate rank 0 → wire → rank 1.
	for i := 1; i < len(cp.Segments); i++ {
		if cp.Segments[i].T0 < cp.Segments[i-1].T1-1e-18 {
			t.Fatalf("segments not forward-ordered at %d: %+v", i, cp.Segments)
		}
	}
	if cp.Segments[0].Rank != 0 || cp.Segments[len(cp.Segments)-1].Rank != 1 {
		t.Fatalf("path endpoints wrong: %+v", cp.Segments)
	}
	// Attribution: 3 µs wire (send), 3 µs allreduce inside the pressure
	// window, 5+9 µs compute.
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !approx(cp.ByCategory["send"], 3*us) {
		t.Errorf("send time %g, want 3µs", cp.ByCategory["send"])
	}
	if !approx(cp.ByCategory["allreduce"], 3*us) {
		t.Errorf("allreduce time %g, want 3µs", cp.ByCategory["allreduce"])
	}
	if !approx(cp.ByCategory["compute"], 14*us) {
		t.Errorf("compute time %g, want 14µs", cp.ByCategory["compute"])
	}
	// Phase attribution: rank 1's work after the receive is step 2 pressure;
	// everything on rank 0 is setup.
	if !approx(cp.ByPhase["pressure"], 12*us) {
		t.Errorf("pressure time %g, want 12µs", cp.ByPhase["pressure"])
	}
	if !approx(cp.ByPhase["setup"], 8*us) {
		t.Errorf("setup time %g, want 8µs", cp.ByPhase["setup"])
	}
	foundStep2 := false
	for _, st := range cp.Steps {
		if st.Step == 2 {
			foundStep2 = true
			if !approx(st.Seconds, 12*us) {
				t.Errorf("step 2 path time %g, want 12µs", st.Seconds)
			}
		}
	}
	if !foundStep2 {
		t.Fatalf("no step-2 aggregate: %+v", cp.Steps)
	}
	// Per-rank slack: rank 1 carries 12 µs of path, rank 0 carries 8 µs
	// (5 compute + 3 wire, charged to the sender's clock).
	onPath := map[int]float64{}
	for _, pr := range cp.PerRank {
		onPath[pr.Rank] = pr.OnPath
		if !approx(pr.Slack, cp.TotalSeconds-pr.OnPath) {
			t.Errorf("rank %d slack %g inconsistent", pr.Rank, pr.Slack)
		}
	}
	if !approx(onPath[1], 12*us) || !approx(onPath[0], 8*us) {
		t.Errorf("on-path split %v, want rank0=8µs rank1=12µs", onPath)
	}
}

// A receive that arrives early (receiver already past the arrival time)
// must not divert the path: the walk should run straight through it.
func TestAnalyzeCriticalPathIgnoresNonGatingReceives(t *testing.T) {
	us := 1e-6
	tr := NewTracer()
	tr.DisableWallClock()
	tr.SpanV(0, "send", "comm", 0, 2*us, nil)
	tr.FlowV("s", 0, "msg", 2*us, "0.1")
	tr.SpanV(1, "work", "compute", 0, 10*us, nil)
	tr.FlowV("f", 1, "msg", 5*us, "0.1") // ts_f > ts_s: receiver was busy
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := AnalyzeCriticalPath(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cp.Hops != 0 {
		t.Fatalf("hops = %d, want 0 (receive was not gating)", cp.Hops)
	}
	if cp.EndRank != 1 || math.Abs(cp.TotalSeconds-10*us) > 1e-18 {
		t.Fatalf("path should be rank 1's local work: %+v", cp)
	}
}

// A span is stored as (ts, dur) and a flow arrow as ts, so a send span's end
// reads back as ts+dur, which need not be the arrow's time bit for bit. The
// walk used to look the send up by exact end time and stopped at the first
// such edge — on real traces nearly every one. It must cross it.
func TestAnalyzeCriticalPathCrossesInexactSendEnd(t *testing.T) {
	t0 := 0.0685 // a 20 µs latency + 5 words send, as comm.ASCIRed prices it
	t1 := t0 + 20e-6 + 40/310e6
	if (t0*1e6+(t1-t0)*1e6)/1e6 == t1*1e6/1e6 {
		t.Fatal("the span end rounds to the arrow time: pick other instants")
	}
	tr := NewTracer()
	tr.DisableWallClock()
	tr.SpanV(0, "send", "comm", t0, t1, nil)
	tr.FlowV("s", 0, "msg", t1, "0.1")
	tr.FlowV("f", 1, "msg", t1, "0.1") // gating
	tr.SpanV(1, "work", "compute", t1, 2*t1, nil)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := AnalyzeCriticalPath(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cp.Hops != 1 || cp.Segments[0].Rank != 0 {
		t.Fatalf("hops = %d, first segment on rank %d: the message edge was lost", cp.Hops, cp.Segments[0].Rank)
	}
}

func TestAnalyzeCriticalPathRejectsGarbage(t *testing.T) {
	if _, err := AnalyzeCriticalPath([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := AnalyzeCriticalPath([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("empty trace accepted")
	}
}
