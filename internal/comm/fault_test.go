package comm

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/instrument"
)

func testMachine(p int) Machine {
	return Machine{P: p, Latency: 20e-6, ByteSec: 1 / 310e6, MMFlopSec: 1e-8, VecFlopSec: 1e-8}
}

// TestFaultFreePlanIsBitwiseIdentical pins the golden-path contract: a nil
// plan, and an installed plan none of whose rules match, must leave every
// virtual clock bitwise identical to the unfaulted run.
func TestFaultFreePlanIsBitwiseIdentical(t *testing.T) {
	body := func(r *Rank) {
		r.Compute(12345, 0)
		buf := []float64{float64(r.ID), 2, 3}
		r.Allreduce(buf, OpSum)
		r.Barrier()
	}
	base := NewNetwork(testMachine(4)).Run(body)

	// A plan whose rules target ranks/links that never match this run.
	net := NewNetwork(testMachine(4))
	net.SetFaults(&fault.Plan{Seed: 1,
		Stragglers: []fault.Straggler{{Rank: 99, Factor: 10}},
		Drops:      []fault.Drop{{From: 17, To: 18, Prob: 1}},
		Pauses:     []fault.Pause{{Rank: 0, At: 1e9, Duration: 1}},
	})
	got := net.Run(body)
	for q := range base {
		if base[q].Time != got[q].Time {
			t.Fatalf("rank %d: non-matching plan perturbed the clock (%g vs %g)",
				q, base[q].Time, got[q].Time)
		}
		if got[q].Drops != 0 || got[q].Retries != 0 || got[q].Pauses != 0 || got[q].StallSec != 0 {
			t.Fatalf("rank %d: non-matching plan recorded faults", q)
		}
	}
}

func TestStragglerSlowsTheMachine(t *testing.T) {
	body := func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Compute(100000, 0)
			r.Barrier()
		}
	}
	base := NewNetwork(testMachine(3)).Run(body)
	net := NewNetwork(testMachine(3))
	net.SetFaults(&fault.Plan{Seed: 2,
		Stragglers: []fault.Straggler{{Rank: 1, Factor: 4}}})
	slow := net.Run(body)
	if MaxTime(slow) <= MaxTime(base) {
		t.Fatalf("straggler did not slow the run: %g <= %g", MaxTime(slow), MaxTime(base))
	}
	if slow[1].StallSec <= 0 {
		t.Fatal("straggling rank recorded no stall time")
	}
	// The barrier makes everyone wait for the straggler: all clocks inflate.
	for q, r := range slow {
		if r.Time <= base[q].Time {
			t.Fatalf("rank %d did not wait for the straggler", q)
		}
	}
}

func TestDropsRetryAndRecover(t *testing.T) {
	reg := instrument.New()
	net := NewNetwork(testMachine(4))
	net.Attach(reg)
	net.SetFaults(&fault.Plan{Seed: 3,
		Drops: []fault.Drop{{From: -1, To: -1, Prob: 0.4}}})
	want := make([]float64, 4)
	for i := range want {
		want[i] = float64(i + 1)
	}
	ranks := net.Run(func(r *Rank) {
		// Enough traffic that prob-0.4 drops are overwhelmingly likely.
		for i := 0; i < 20; i++ {
			buf := []float64{1, 2, 3, 4}
			r.Allreduce(buf, OpSum)
		}
	})
	var drops, retries int64
	for _, r := range ranks {
		drops += r.Drops
		retries += r.Retries
	}
	if drops == 0 {
		t.Fatal("prob-0.4 plan dropped nothing over 20 allreduces on 4 ranks")
	}
	if retries != drops {
		t.Fatalf("retries %d != drops %d (every recovered drop is one retry)", retries, drops)
	}
	if got := reg.Report(); got.String() == "" {
		t.Fatal("empty instrumentation report")
	}
}

func TestDropAllPanicsAfterRetryBudget(t *testing.T) {
	net := NewNetwork(testMachine(2))
	net.SetFaults(&fault.Plan{Seed: 4, MaxRetries: 3,
		Drops: []fault.Drop{{From: 0, To: 1, Prob: 1}}})
	panicked := make(chan string, 1)
	net.Run(func(r *Rank) {
		if r.ID == 0 {
			defer func() {
				if msg := recover(); msg != nil {
					panicked <- msg.(string)
				} else {
					panicked <- ""
				}
			}()
			r.Send(1, 7, []float64{1})
		} else {
			// Receiver: the message never arrives; don't block on Recv.
		}
	})
	msg := <-panicked
	if !strings.Contains(msg, "lost after 4 attempts") {
		t.Fatalf("expected bounded-retry loss panic, got %q", msg)
	}
}

func TestPauseFreezesRank(t *testing.T) {
	net := NewNetwork(testMachine(2))
	net.SetFaults(&fault.Plan{Seed: 5,
		Pauses: []fault.Pause{{Rank: 1, At: 0, Duration: 0.5}}})
	ranks := net.Run(func(r *Rank) {
		r.Compute(100, 0)
		r.Barrier()
	})
	if ranks[1].Pauses != 1 {
		t.Fatalf("paused rank recorded %d pauses, want 1", ranks[1].Pauses)
	}
	// Both ranks must end past the pause window: rank 1 waited it out and
	// rank 0's barrier waited for rank 1.
	for q, r := range ranks {
		if r.Time < 0.5 {
			t.Fatalf("rank %d clock %g ended inside the pause window", q, r.Time)
		}
	}
}

func TestClockSaveRestore(t *testing.T) {
	net := NewNetwork(testMachine(2))
	net.SetFaults(&fault.Plan{Seed: 6, Drops: []fault.Drop{{From: -1, To: -1, Prob: 0.3}}})
	var saved ClockState
	net.Run(func(r *Rank) {
		buf := []float64{1}
		for i := 0; i < 10; i++ {
			r.Allreduce(buf, OpSum)
		}
		if r.ID == 0 {
			saved = r.Clock()
		}
	})
	if saved.Time == 0 || saved.MsgsSent == 0 || saved.SendSeq == 0 {
		t.Fatalf("clock capture empty: %+v", saved)
	}
	net2 := NewNetwork(testMachine(2))
	net2.SetFaults(&fault.Plan{Seed: 6, Drops: []fault.Drop{{From: -1, To: -1, Prob: 0.3}}})
	restored := net2.Run(func(r *Rank) {
		if r.ID == 0 {
			r.SetClock(saved)
		}
	})
	if got := restored[0].Clock(); got != saved {
		t.Fatalf("restore round-trip mismatch:\n got %+v\nwant %+v", got, saved)
	}
}
