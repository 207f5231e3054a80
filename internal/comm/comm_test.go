package comm

import (
	"math"
	"repro/internal/fault"
	"sync/atomic"
	"testing"
	"time"
)

func machine(p int) Machine {
	return Machine{P: p, Latency: 1e-5, ByteSec: 1e-8, MMFlopSec: 1e-8, VecFlopSec: 1e-8}
}

func TestSendRecv(t *testing.T) {
	net := NewNetwork(machine(2))
	var got atomic.Value
	net.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 7, []float64{1, 2, 3})
		} else {
			got.Store(r.Recv(0, 7))
		}
	})
	d := got.Load().([]float64)
	if len(d) != 3 || d[0] != 1 || d[2] != 3 {
		t.Fatalf("bad payload %v", d)
	}
}

func TestRecvOutOfOrderTags(t *testing.T) {
	net := NewNetwork(machine(2))
	var a, b atomic.Value
	net.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, []float64{1})
			r.Send(1, 2, []float64{2})
		} else {
			// Receive in reverse order: tag 2 first.
			b.Store(r.Recv(0, 2))
			a.Store(r.Recv(0, 1))
		}
	})
	if a.Load().([]float64)[0] != 1 || b.Load().([]float64)[0] != 2 {
		t.Fatal("out-of-order receive failed")
	}
}

func TestAllreduceSumAllP(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31} {
		net := NewNetwork(machine(p))
		results := make([]float64, p)
		net.Run(func(r *Rank) {
			data := []float64{float64(r.ID + 1)}
			r.Allreduce(data, OpSum)
			results[r.ID] = data[0]
		})
		want := float64(p*(p+1)) / 2
		for id, got := range results {
			if got != want {
				t.Fatalf("P=%d rank %d: allreduce sum %g want %g", p, id, got, want)
			}
		}
	}
}

func TestAllreduceMinMax(t *testing.T) {
	p := 8
	net := NewNetwork(machine(p))
	mins := make([]float64, p)
	maxs := make([]float64, p)
	net.Run(func(r *Rank) {
		mn := []float64{-float64(r.ID)} // the minimum is the maximum of the negation
		r.Allreduce(mn, OpMax)
		mins[r.ID] = -mn[0]
		mx := []float64{float64(r.ID)}
		r.Allreduce(mx, OpMax)
		maxs[r.ID] = mx[0]
	})
	for id := 0; id < p; id++ {
		if mins[id] != 0 || maxs[id] != float64(p-1) {
			t.Fatalf("rank %d: min %g max %g", id, mins[id], maxs[id])
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{2, 3, 6, 8, 13} {
		vecs := make([][]float64, p)
		for q := range vecs {
			vecs[q] = []float64{-1}
		}
		vecs[0][0] = 42
		replayBcast(NewNetwork(machine(p)), vecs)
		for id, got := range vecs {
			if got[0] != 42 {
				t.Fatalf("P=%d rank %d: bcast got %g", p, id, got[0])
			}
		}
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	net := NewNetwork(machine(2))
	ranks := net.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 0, make([]float64, 100))
		} else {
			r.Recv(0, 0)
			r.Compute(1000, 0)
		}
	})
	// Sender: α + 800 bytes * β = 1e-5 + 8e-6.
	if d := ranks[0].Time - (1e-5 + 800e-8); math.Abs(d) > 1e-12 {
		t.Errorf("sender clock %g", ranks[0].Time)
	}
	// Receiver: arrival + compute.
	want := ranks[0].Time + 1000e-8
	if d := ranks[1].Time - want; math.Abs(d) > 1e-12 {
		t.Errorf("receiver clock %g want %g", ranks[1].Time, want)
	}
	if ranks[0].BytesSent != 800 || ranks[0].MsgsSent != 1 {
		t.Error("traffic accounting wrong")
	}
	if TotalBytes(ranks) != 800 {
		t.Error("TotalBytes wrong")
	}
	if MaxTime(ranks) != ranks[1].Time {
		t.Error("MaxTime wrong")
	}
}

func TestAllreduceClockScalesLogP(t *testing.T) {
	// Virtual completion time of a scalar allreduce should grow ~ 2α·log₂P.
	times := map[int]float64{}
	for _, p := range []int{4, 16, 64} {
		net := NewNetwork(machine(p))
		ranks := net.Run(func(r *Rank) {
			r.AllreduceScalar(1, OpSum)
		})
		times[p] = MaxTime(ranks)
	}
	if !(times[4] < times[16] && times[16] < times[64]) {
		t.Errorf("allreduce time not increasing with P: %v", times)
	}
	// Recursive doubling: exactly log2(P) rounds, each round ≈ α+8β both ways.
	round := 1e-5 + 8e-8
	if math.Abs(times[16]-8*round) > 4*round {
		t.Errorf("P=16 allreduce time %g not near %g", times[16], 8*round)
	}
}

func TestBarrier(t *testing.T) {
	p := 9
	net := NewNetwork(machine(p))
	var counter atomic.Int64
	after := make([]int64, p)
	net.Run(func(r *Rank) {
		counter.Add(1)
		r.Barrier()
		after[r.ID] = counter.Load()
	})
	for id, v := range after {
		if v != int64(p) {
			t.Fatalf("rank %d passed barrier before all arrived (saw %d)", id, v)
		}
	}
}

func TestASCIRedModel(t *testing.T) {
	m := ASCIRed(512)
	if m.P != 512 || m.Latency <= 0 || m.ByteSec <= 0 || m.MMFlopSec <= 0 || m.VecFlopSec <= 0 {
		t.Error("ASCIRed model malformed")
	}
	// Table 4's four machines: tuned kernels beat the standard ones, and a
	// second processor helps by less than twice.
	std, dual := ASCIRedNode(1, false, false), ASCIRedNode(1, false, true)
	if perf := ASCIRedNode(1, true, false); perf.MMFlopSec >= std.MMFlopSec || perf.VecFlopSec >= std.VecFlopSec {
		t.Errorf("perf kernels %+v not faster than std %+v", perf, std)
	}
	if s := std.MMFlopSec / dual.MMFlopSec; s <= 1 || s >= 2 {
		t.Errorf("dual-processor speed-up %g outside (1, 2)", s)
	}
	if m != ASCIRedNode(512, false, false) {
		t.Errorf("ASCIRed(512) = %+v is not the standard single-processor node", m)
	}
}

// TestComputePricesEachClassAtItsRate: matrix–matrix and vector flops cost
// their own rates, and a straggler window multiplies both.
func TestComputePricesEachClassAtItsRate(t *testing.T) {
	m := Machine{P: 2, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-8, VecFlopSec: 3e-8}
	const mm, vec, factor = 1000, 200, 4
	want := mm*m.MMFlopSec + vec*m.VecFlopSec
	net := NewNetwork(m)
	net.SetFaults(&fault.Plan{Seed: 1, Stragglers: []fault.Straggler{{Rank: 1, Factor: factor}}})
	ranks := net.Run(func(r *Rank) { r.Compute(mm, vec) })
	if got := ranks[0].Time; got != want {
		t.Errorf("rank 0: %d + %d flops took %g s, want %g", mm, vec, got, want)
	}
	if got := ranks[1].Time; got != factor*want {
		t.Errorf("straggling rank 1: %g s, want %g×%g", got, float64(factor), want)
	}
	for _, r := range ranks {
		if r.MMFlops != mm || r.VecFlops != vec {
			t.Errorf("rank %d counted %d + %d flops, want %d + %d", r.ID, r.MMFlops, r.VecFlops, mm, vec)
		}
	}
}

func TestSendNeverBlocks(t *testing.T) {
	// Regression: inboxes used to be channels of capacity 8P+64, so a rank
	// sending more than that before its peer started receiving deadlocked
	// the whole network. Flood well past the old capacity while the
	// receiver provably waits for every send to finish first.
	p := 2
	flood := 8*p + 64 + 500
	net := NewNetwork(machine(p))
	allSent := make(chan struct{})
	var sum atomic.Int64
	net.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < flood; i++ {
				r.Send(1, i, []float64{float64(i)})
			}
			close(allSent)
			return
		}
		<-allSent // only start receiving once the flood is complete
		for i := 0; i < flood; i++ {
			sum.Add(int64(r.Recv(0, i)[0]))
		}
	})
	if want := int64(flood) * int64(flood-1) / 2; sum.Load() != want {
		t.Fatalf("flood sum %d want %d", sum.Load(), want)
	}
}

// TestRecvFromNoSuchPeerPanics: a receive from itself or from outside the
// machine can never be matched, so it fails at once, as a self-send does,
// instead of blocking the rank forever.
func TestRecvFromNoSuchPeerPanics(t *testing.T) {
	r := NewNetwork(machine(2)).ranks[0]
	for _, from := range []int{0, -1, 2} {
		done := make(chan any)
		go func() {
			defer func() { done <- recover() }()
			r.Recv(from, 1)
		}()
		select {
		case v := <-done:
			if v == nil {
				t.Errorf("Recv from rank %d returned instead of panicking", from)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Recv from rank %d blocked instead of panicking", from)
		}
	}
}

func TestPayloadIsolation(t *testing.T) {
	// Mutating the sender's buffer after Send must not corrupt the message.
	net := NewNetwork(machine(2))
	var got atomic.Value
	net.Run(func(r *Rank) {
		if r.ID == 0 {
			buf := []float64{5}
			r.Send(1, 0, buf)
			buf[0] = -1
		} else {
			got.Store(r.Recv(0, 0))
		}
	})
	if got.Load().([]float64)[0] != 5 {
		t.Error("message payload aliases sender buffer")
	}
}

// TestRunsContinueOnTheSameRanks: the network owns its ranks, so a program
// split over two Runs is the program run once — clocks and counters carry
// over, and a message sent in the first batch and not received there stays
// queued in its stream, counted by Undelivered, for the second.
func TestRunsContinueOnTheSameRanks(t *testing.T) {
	net := NewNetwork(machine(2))
	first := net.Run(func(r *Rank) {
		r.Compute(1000, 0)
		if r.ID == 0 {
			r.Send(1, 7, []float64{42})
			r.Send(1, 8, []float64{43})
			r.Send(1, 9, []float64{44})
		} else if got := r.Recv(0, 8); got[0] != 43 { // tags 7 and 9 stay queued
			t.Errorf("tag 8 carried %v", got)
		}
	})
	t0, sent := first[1].Time, first[0].MsgsSent
	if t0 <= 0 || sent != 3 || net.Undelivered() != 2 {
		t.Fatalf("after the first batch: rank 1 clock %g, rank 0 sent %d, %d undelivered",
			t0, sent, net.Undelivered())
	}
	second := net.Run(func(r *Rank) {
		if r.ID == 1 {
			if a, b := r.Recv(0, 9), r.Recv(0, 7); a[0] != 44 || b[0] != 42 {
				t.Errorf("second batch received %v and %v", a, b)
			}
		}
		r.Compute(1000, 0)
	})
	if second[0] != first[0] || second[1] != first[1] {
		t.Fatal("the second Run ran on new ranks")
	}
	if second[1].Time <= t0 || second[0].MsgsSent != sent || net.Undelivered() != 0 {
		t.Fatalf("second batch: rank 1 clock %g (was %g), rank 0 sent %d (was %d), %d undelivered",
			second[1].Time, t0, second[0].MsgsSent, sent, net.Undelivered())
	}
}

// TestPauseHoldsALandingMessage: a message that lands inside its receiver's
// pause window is picked up when the window ends, and the receiver counts
// the pause.
func TestPauseHoldsALandingMessage(t *testing.T) {
	net := NewNetwork(machine(2))
	net.SetFaults(&fault.Plan{Seed: 1, Pauses: []fault.Pause{{Rank: 1, At: 0.5, Duration: 0.5}}})
	ranks := net.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Compute(6e7, 0) // 0.6 s: the message arrives inside rank 1's window
			r.Send(1, 0, []float64{1})
		} else {
			r.Recv(0, 0)
		}
	})
	if got := ranks[1].Time; got != 1 || ranks[1].Pauses != 1 {
		t.Fatalf("receiver at %g with %d pauses, want 1 and 1", got, ranks[1].Pauses)
	}
}
