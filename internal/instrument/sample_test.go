package instrument

import (
	"bytes"
	"strings"
	"testing"
)

func TestSampleVRanksFiltersTracks(t *testing.T) {
	tr := NewTracer()
	tr.DisableWallClock()
	tr.SampleVRanks([]int{0, 2})
	tr.SetProcessName(PidMachine, "machine")
	for tid := 0; tid < 4; tid++ {
		tr.SetThreadName(PidMachine, tid, "rank")
		if want := tid == 0 || tid == 2; tr.WantsV(tid) != want {
			t.Fatalf("WantsV(%d) = %v, want %v", tid, tr.WantsV(tid), want)
		}
		tr.SpanV(tid, "work", "test", 0, 1, nil)
		tr.InstantV(tid, "mark", "test", 0.5, nil)
	}
	// Flow pair between two sampled ranks survives; events touching an
	// unsampled rank are dropped.
	tr.FlowV("s", 0, "msg", 1, "0.1")
	tr.FlowV("f", 2, "msg", 1, "0.1")
	tr.FlowV("s", 1, "msg", 1, "1.1") // unsampled sender: dropped
	tr.FlowV("f", 3, "msg", 1, "1.1") // unsampled receiver: dropped

	tids := map[int]bool{}
	for _, ev := range tr.Events() {
		if ev.Pid == PidMachine {
			tids[ev.Tid] = true
		}
	}
	if len(tids) != 2 || !tids[0] || !tids[2] {
		t.Fatalf("machine tracks = %v, want exactly {0, 2}", tids)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes(), 2); err != nil {
		t.Fatalf("sampled trace invalid (or not flow-closed): %v", err)
	}
	// Thread-name metadata for unsampled ranks must not leak into the trace.
	if got := strings.Count(buf.String(), `"thread_name"`); got != 2 {
		t.Fatalf("trace names %d threads, want 2", got)
	}
}

func TestSampleVRanksEmptyRestoresFullTracing(t *testing.T) {
	tr := NewTracer()
	tr.SampleVRanks([]int{1})
	tr.SampleVRanks(nil)
	if !tr.WantsV(0) || !tr.WantsV(7) {
		t.Fatal("nil SampleVRanks should restore full tracing")
	}
	var nilTr *Tracer
	if nilTr.WantsV(0) {
		t.Fatal("nil tracer wants nothing")
	}
}

func TestValidateChromeTraceCatchesOpenFlows(t *testing.T) {
	open := []byte(`{"traceEvents":[
		{"ph":"s","ts":1,"pid":1,"tid":0,"id":"a.1"},
		{"ph":"s","ts":2,"pid":1,"tid":0,"id":"a.2"},
		{"ph":"f","ts":3,"pid":1,"tid":1,"id":"a.1"}]}`)
	if err := ValidateChromeTrace(open, 0); err == nil || !strings.Contains(err.Error(), `flow start "a.2" without matching finish`) {
		t.Fatalf("unmatched flow start: got %v", err)
	}
	closed := []byte(`{"traceEvents":[
		{"ph":"s","ts":1,"pid":1,"tid":0,"id":"a.1"},
		{"ph":"f","ts":3,"pid":1,"tid":1,"id":"a.1"}]}`)
	if err := ValidateChromeTrace(closed, 0); err != nil {
		t.Fatalf("closed trace rejected: %v", err)
	}
}
