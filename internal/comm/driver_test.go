package comm

import (
	"runtime"
	"testing"
	"time"
)

// TestReturnWhileOthersWaitFailsEveryRank: a rank that returns while the
// others wait at a call leaves a call that can never be replayed, so every
// waiting rank fails with one panic naming each rank's wait.
func TestReturnWhileOthersWaitFailsEveryRank(t *testing.T) {
	msgs := failEveryRank(t, NewNetwork(testMachine(4)), func(r *Rank) {
		if r.ID != 2 {
			r.Barrier()
		}
	})
	want := "comm: no rank can run: rank 0 at an allreduce (1 words), rank 1 at an allreduce (1 words), " +
		"rank 2 returned, rank 3 at an allreduce (1 words)"
	for q, m := range msgs {
		if q != 2 && m != want {
			t.Errorf("rank %d recovered %q, want %q", q, m, want)
		}
	}
	if msgs[2] != "" {
		t.Errorf("the returned rank 2 recovered %q", msgs[2])
	}
}

// TestRecvDeadlockFailsEveryRank: ranks that wait for messages no rank will
// send fail, with a rank parked at a call, each with one panic naming every
// rank's wait; a message on another tag of the same link wakes nobody.
func TestRecvDeadlockFailsEveryRank(t *testing.T) {
	net := NewNetwork(testMachine(3))
	msgs := failEveryRank(t, net, func(r *Rank) {
		switch r.ID {
		case 0:
			r.Recv(1, 5)
		case 1:
			r.Send(0, 7, []float64{1})
			r.Recv(0, 6)
		default:
			r.Barrier()
		}
	})
	want := "comm: no rank can run: rank 0 in Recv from rank 1 (tag 5), rank 1 in Recv from rank 0 (tag 6), " +
		"rank 2 at an allreduce (1 words)"
	for q, m := range msgs {
		if m != want {
			t.Errorf("rank %d recovered %q, want %q", q, m, want)
		}
	}
	if n := net.Undelivered(); n != 1 {
		t.Errorf("%d messages undelivered, want the one on tag 7", n)
	}
}

// TestRankPanicLeavesRunOnCaller: a rank's unrecovered panic fails the
// ranks parked at the next call, comes out of Run on the caller's goroutine
// once every rank has unwound, and leaves no goroutine behind.
func TestRankPanicLeavesRunOnCaller(t *testing.T) {
	net := NewNetwork(testMachine(4))
	unwound := make([]bool, 4)
	var got any
	var before, after int
	done := make(chan struct{})
	go func() {
		defer close(done)
		before = runtime.NumGoroutine()
		defer func() { got, after = recover(), runtime.NumGoroutine() }()
		net.Run(func(r *Rank) {
			defer func() { unwound[r.ID] = true }()
			r.Barrier()
			if r.ID == 2 {
				panic("rank 2 fails")
			}
			r.Barrier()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after a rank's panic")
	}
	if got != "rank 2 fails" {
		t.Errorf("Run panicked with %v, want the rank's panic", got)
	}
	for q, u := range unwound {
		if !u {
			t.Errorf("rank %d did not unwind before Run returned", q)
		}
	}
	if after != before {
		t.Errorf("%d goroutines after Run, %d before it", after, before)
	}
}
