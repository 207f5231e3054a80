package comm

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// These tests pin the hot-path properties the large-P runs depend on: the
// order a rank receives its streams in must not move its clock or its
// payloads, and a steady-state allreduce must allocate nothing.

// runAllToAll executes `rounds` of an all-to-all exchange on P ranks,
// receiving each round's messages in ascending or in descending source
// order, and returns every rank's received values (in (round, source)
// order) and final virtual clock.
func runAllToAll(p, rounds int, descending bool) (vals [][]float64, clocks []float64) {
	vals = make([][]float64, p)
	ranks := NewNetwork(Machine{P: p, Latency: 2e-6, ByteSec: 1e-9, MMFlopSec: 1e-9, VecFlopSec: 1e-9}).Run(func(r *Rank) {
		froms := make([]int, 0, p-1)
		for q := 0; q < p; q++ {
			if q != r.ID {
				froms = append(froms, q)
			}
		}
		got := make([][]float64, len(froms))
		for round := 0; round < rounds; round++ {
			// Skew the clocks so message arrival order differs from source
			// order at most receivers.
			r.Compute(int64(1000*((r.ID*7+round*3)%11)), 0)
			buf := []float64{float64(r.ID*1000 + round), float64(round)}
			for _, q := range froms {
				r.Send(q, 7, buf)
			}
			for k := range froms {
				i := k
				if descending {
					i = len(froms) - 1 - k
				}
				got[i] = r.Recv(froms[i], 7)
			}
			for _, g := range got {
				vals[r.ID] = append(vals[r.ID], g...)
			}
		}
	})
	clocks = make([]float64, p)
	for i, rk := range ranks {
		clocks[i] = rk.Time
	}
	return vals, clocks
}

func TestRecvOrderDoesNotMoveTheClock(t *testing.T) {
	for _, p := range []int{2, 3, 8, 13} {
		refVals, refClocks := runAllToAll(p, 4, false)
		gotVals, gotClocks := runAllToAll(p, 4, true)
		for q := 0; q < p; q++ {
			if gotClocks[q] != refClocks[q] {
				t.Fatalf("P=%d rank %d: descending-order clock %v != ascending-order clock %v",
					p, q, gotClocks[q], refClocks[q])
			}
			if len(gotVals[q]) != len(refVals[q]) {
				t.Fatalf("P=%d rank %d: received %d values, want %d",
					p, q, len(gotVals[q]), len(refVals[q]))
			}
			for i := range refVals[q] {
				if gotVals[q][i] != refVals[q][i] {
					t.Fatalf("P=%d rank %d: value %d = %g, want %g",
						p, q, i, gotVals[q][i], refVals[q][i])
				}
			}
		}
	}
}

func TestRecvOutOfOrderStress(t *testing.T) {
	// Unbarriered rounds on a ring-with-chords topology: fast ranks run
	// ahead, so a neighbour's round r+1 message regularly lands while the
	// receiver still collects round r. It must wait in its stream behind
	// the round r message, and unrelated-tag traffic interleaved on the same
	// links must queue and drain intact. Two runs must agree bitwise on
	// every clock — goroutine scheduling, which really does vary the order
	// messages land in, must not leak into the simulated machine. This test
	// is part of the -race coverage.
	const p = 32
	const rounds = 20
	run := func() []float64 {
		clocks := make([]float64, p)
		NewNetwork(Machine{P: p, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-9, VecFlopSec: 1e-9}).Run(func(r *Rank) {
			seen := make(map[int]bool)
			froms := make([]int, 0, 6)
			for _, o := range []int{-3, -2, -1, 1, 2, 3} {
				q := (r.ID + o + p) % p
				if q != r.ID && !seen[q] {
					seen[q] = true
					froms = append(froms, q)
				}
			}
			next := (r.ID + 1) % p
			prev := (r.ID - 1 + p) % p
			for round := 0; round < rounds; round++ {
				r.Compute(int64(100*((r.ID*13+round*5)%17)), 0)
				payload := []float64{float64(r.ID), float64(round)}
				for _, q := range froms {
					r.Send(q, 7, payload)
				}
				// Side stream on another tag: stays queued for the whole run.
				r.Send(next, 9, []float64{float64(round)})
				for _, q := range froms {
					got := r.Recv(q, 7)
					if len(got) != 2 || got[0] != float64(q) || got[1] != float64(round) {
						t.Errorf("rank %d round %d: from %d got %v, want [%d %d]",
							r.ID, round, q, got, q, round)
					}
				}
			}
			// The side stream drains in FIFO order.
			for round := 0; round < rounds; round++ {
				got := r.Recv(prev, 9)
				if len(got) != 1 || got[0] != float64(round) {
					t.Errorf("rank %d: side-stream message %d = %v", r.ID, round, got)
				}
			}
			clocks[r.ID] = r.Time
		})
		return clocks
	}
	c1 := run()
	c2 := run()
	for q := range c1 {
		if math.Float64bits(c1[q]) != math.Float64bits(c2[q]) {
			t.Fatalf("rank %d: clock not deterministic across runs: %v vs %v", q, c1[q], c2[q])
		}
	}
}

func TestAllreduceSteadyStateZeroAlloc(t *testing.T) {
	// The regression the large-P runs depend on: after warmup, vector and
	// scalar allreduces and barriers must run with no heap allocation at
	// all, by recursive doubling (P = 8) and by the tree (P = 6), whose
	// replay buffers are reused from call to call. testing.AllocsPerRun
	// cannot express this (the network's Run goroutines allocate), so the
	// measurement is a MemStats delta taken on rank 0 across a
	// collectively-synchronized window while GC is disabled (GC assists
	// could otherwise attribute noise here).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, iters = 25, 200
	for _, p := range []int{8, 6} {
		var steady uint64
		NewNetwork(Machine{P: p, Latency: 1e-6, ByteSec: 1e-9}).Run(func(r *Rank) {
			buf := make([]float64, 33) // non-power-of-two: rounds up inside its size class
			for i := range buf {
				buf[i] = float64(r.ID + i)
			}
			for it := 0; it < warm; it++ {
				r.Allreduce(buf, OpMax)
				r.AllreduceScalar(float64(r.ID+it), OpMax)
				r.Barrier()
			}
			// Line every rank up at the measurement boundary, then measure.
			r.AllreduceScalar(0, OpSum)
			var m0, m1 runtime.MemStats
			if r.ID == 0 {
				runtime.ReadMemStats(&m0)
			}
			for it := 0; it < iters; it++ {
				r.Allreduce(buf, OpMax)
				r.AllreduceScalar(float64(it), OpMax)
				r.Barrier()
			}
			r.AllreduceScalar(0, OpSum)
			if r.ID == 0 {
				runtime.ReadMemStats(&m1)
				steady = m1.Mallocs - m0.Mallocs
			}
		})
		// Zero is the design point; allow a handful of runtime-internal
		// allocations. A per-call regression would show up as hundreds
		// (iters * collectives).
		if steady > 64 {
			t.Errorf("P=%d: steady-state collectives allocated %d objects over %d iterations, want ~0",
				p, steady, iters)
		}
	}
}
