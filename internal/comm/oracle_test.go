package comm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/instrument"
)

// The message-passing collectives the rendezvous replays, written on the
// public Send and Recv: recursive doubling for P = 2^k, in which both ranks
// of a pair fold op(lower, upper), a binomial reduce to rank 0 and a
// binomial broadcast from it otherwise, with the collective
// metrics and spans of Allreduce and Barrier around them. They are the
// oracle of TestReplayMatchesMessageSchedule: every result, clock, counter
// and trace event of a collective must be what this schedule produces.

func oracleSchedule(r *Rank, data []float64, op ReduceOp) {
	p := r.P()
	if p == 1 {
		return
	}
	if p&(p-1) == 0 {
		for dist, round := 1, 0; dist < p; dist, round = dist<<1, round+1 {
			peer := r.ID ^ dist
			tag := labelAllreduce + round
			r.Send(peer, tag, data)
			got := r.Recv(peer, tag)
			if peer < r.ID { // both ranks of the pair fold op(lower, upper)
				op(got, data)
				copy(data, got)
			} else {
				op(data, got)
			}
		}
		return
	}
	oracleReduce(r, data, op)
	oracleBcast(r, data)
}

// oracleReduce reduces to rank 0 along a binomial tree.
func oracleReduce(r *Rank, data []float64, op ReduceOp) {
	p := r.P()
	for dist := 1; dist < p; dist <<= 1 {
		if r.ID&(2*dist-1) == 0 {
			src := r.ID + dist
			if src < p {
				got := r.Recv(src, labelAllreduce+dist)
				op(data, got)
			}
		} else if r.ID&(dist-1) == 0 {
			r.Send(r.ID-dist, labelAllreduce+dist, data)
			return
		}
	}
}

// oracleBcast broadcasts rank 0's data along a binomial tree (fan-out).
func oracleBcast(r *Rank, data []float64) {
	p := r.P()
	mask := 1
	for mask < p {
		mask <<= 1
	}
	received := r.ID == 0
	for dist := mask >> 1; dist >= 1; dist >>= 1 {
		switch {
		case received && r.ID%(2*dist) == 0 && r.ID+dist < p:
			r.Send(r.ID+dist, labelBcast+dist, data)
		case !received && r.ID%(2*dist) == dist:
			got := r.Recv(r.ID-dist, labelBcast+dist)
			copy(data, got)
			received = true
		}
	}
	if !received {
		panic(fmt.Sprintf("comm: bcast failed to reach rank %d", r.ID))
	}
}

// oracleCollective wraps the schedule in the metrics and span of the
// collective named name ("allreduce" or "barrier").
func oracleCollective(r *Rank, name string, data []float64, op ReduceOp) {
	in, tr := r.net.instr, r.net.tracer
	t0, m0, b0 := r.Time, r.MsgsSent, r.BytesSent
	oracleSchedule(r, data, op)
	args := map[string]any{"msgs": r.MsgsSent - m0, "bytes": r.BytesSent - b0}
	if name == "allreduce" {
		args["words"] = len(data)
		if in != nil {
			in.allreduce.record(r.Time-t0, r.MsgsSent-m0, r.BytesSent-b0)
		}
	} else if in != nil {
		in.barrier.record(r.Time-t0, r.MsgsSent-m0, r.BytesSent-b0)
	}
	if tr.WantsV(r.ID) {
		tr.SpanV(r.ID, name, "comm", t0, r.Time, args)
	}
}

// collectiveStep is one call of a seeded collective program.
type collectiveStep struct {
	kind  string // "vector", "scalar" or "barrier"
	op    ReduceOp
	flops []int64     // by rank: the clock skew before the call
	data  [][]float64 // by rank: the vector the call reduces
}

// collectiveProgram draws a program of calls for P ranks: vectors of 1–40
// words under OpSum and OpMax, each with one NaN slot on one rank, scalar
// reductions and barriers, every call after a per-rank compute skew.
func collectiveProgram(p int, seed int64) []collectiveStep {
	rng := rand.New(rand.NewSource(seed))
	ops := []ReduceOp{OpSum, OpMax}
	prog := make([]collectiveStep, 24)
	for i := range prog {
		s := collectiveStep{kind: []string{"vector", "vector", "scalar", "barrier"}[rng.Intn(4)],
			op: ops[rng.Intn(2)], flops: make([]int64, p), data: make([][]float64, p)}
		words := 1
		if s.kind == "vector" {
			words = 1 + rng.Intn(40)
		}
		nanRank, nanSlot := rng.Intn(p), rng.Intn(words)
		for q := 0; q < p; q++ {
			s.flops[q] = int64(rng.Intn(20000))
			s.data[q] = make([]float64, words)
			for j := range s.data[q] {
				s.data[q][j] = rng.NormFloat64()
			}
		}
		if s.kind == "vector" {
			s.data[nanRank][nanSlot] = math.NaN()
		}
		prog[i] = s
	}
	return prog
}

// collectiveRun is what one run of a program leaves behind.
type collectiveRun struct {
	results [][][]float64 // by call, then rank
	clocks  []ClockState
	report  instrument.Report
	events  []instrument.TraceEvent
}

// runCollectives runs prog on P ranks, through the rendezvous or through the
// oracle, under the given fault plan, with a registry and a tracer (wall
// clock off) attached when instrumented.
func runCollectives(p int, prog []collectiveStep, plan *fault.Plan, instrumented, oracle bool) collectiveRun {
	net := NewNetwork(testMachine(p))
	net.SetFaults(plan)
	reg, tr := instrument.New(), instrument.NewTracer()
	tr.DisableWallClock()
	if instrumented {
		net.Attach(reg)
		net.AttachTracer(tr)
	}
	res := make([][][]float64, len(prog))
	for i := range res {
		res[i] = make([][]float64, p)
	}
	ranks := net.Run(func(r *Rank) {
		for i, s := range prog {
			r.Compute(s.flops[r.ID], 0)
			buf := append([]float64(nil), s.data[r.ID]...)
			switch {
			case s.kind == "barrier" && oracle:
				oracleCollective(r, "barrier", []float64{0}, OpSum)
			case s.kind == "barrier":
				r.Barrier()
			case s.kind == "scalar" && oracle:
				oracleCollective(r, "allreduce", buf, s.op)
			case s.kind == "scalar":
				buf[0] = r.AllreduceScalar(buf[0], s.op)
			case oracle:
				oracleCollective(r, "allreduce", buf, s.op)
			default:
				r.Allreduce(buf, s.op)
			}
			res[i][r.ID] = buf
		}
	})
	run := collectiveRun{results: res, report: reg.Report(), events: tr.Events()}
	for _, r := range ranks {
		run.clocks = append(run.clocks, r.Clock())
	}
	return run
}

// commMetrics keeps the comm/* counters and timers of a report, and of its
// histograms everything but the float sums (which the replay and the
// message-passing schedule accumulate in different orders).
func commMetrics(rep instrument.Report) []string {
	var out []string
	for _, c := range rep.Counters {
		if strings.HasPrefix(c.Name, "comm/") {
			out = append(out, fmt.Sprintf("counter %s %d", c.Name, c.Value))
		}
	}
	for _, t := range rep.Timers {
		if strings.HasPrefix(t.Name, "comm/") {
			out = append(out, fmt.Sprintf("timer %s %v %d", t.Name, t.Seconds, t.Count))
		}
	}
	for _, h := range rep.Histograms {
		if strings.HasPrefix(h.Name, "comm/") {
			out = append(out, fmt.Sprintf("histogram %s %d %v %v %v", h.Name, h.Count, h.Min, h.Max, h.Buckets))
		}
	}
	return out
}

// faultyPlan jitters every link, drops a fifth of all delivery attempts
// (recovered by retries) and pauses the last rank for a window mid-run.
func faultyPlan(p int) *fault.Plan {
	return &fault.Plan{Seed: 11,
		Links:  []fault.LinkJitter{{From: -1, To: -1, MaxDelay: 5e-6}},
		Drops:  []fault.Drop{{From: -1, To: -1, Prob: 0.2}},
		Pauses: []fault.Pause{{Rank: p - 1, At: 2e-3, Duration: 2e-2}},
	}
}

// TestReplayMatchesMessageSchedule: the rendezvous replay of a seeded
// program of collectives leaves every result bitwise, every rank's clock
// state, the registry's comm/* metrics and the trace exactly as the
// message-passing schedule does, with and without faults and
// instrumentation. OpMax does not commute on NaN, so the NaN slots pin the
// order each rank folds its partners' vectors in.
func TestReplayMatchesMessageSchedule(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13, 64} {
		prog := collectiveProgram(p, int64(7919*p))
		for _, faulty := range []bool{false, true} {
			for _, instrumented := range []bool{false, true} {
				name := fmt.Sprintf("P=%d faults=%v instrumented=%v", p, faulty, instrumented)
				plan := func() *fault.Plan {
					if faulty {
						return faultyPlan(p)
					}
					return nil
				}
				want := runCollectives(p, prog, plan(), instrumented, true)
				got := runCollectives(p, prog, plan(), instrumented, false)
				for i := range prog {
					for q := 0; q < p; q++ {
						for j, w := range want.results[i][q] {
							if g := got.results[i][q][j]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%s: call %d (%s) rank %d slot %d = %v, want %v",
									name, i, prog[i].kind, q, j, g, w)
							}
						}
					}
				}
				for q := range want.clocks {
					if got.clocks[q] != want.clocks[q] {
						t.Fatalf("%s: rank %d clock\n got %+v\nwant %+v", name, q, got.clocks[q], want.clocks[q])
					}
				}
				if faulty && p > 1 {
					var drops, pauses int64
					for _, c := range want.clocks {
						drops += c.Drops
						pauses += c.Pauses
					}
					if drops == 0 || pauses == 0 {
						t.Fatalf("%s: the plan dropped %d messages and paused %d times; want both", name, drops, pauses)
					}
				}
				if g, w := commMetrics(got.report), commMetrics(want.report); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: comm metrics\n got %v\nwant %v", name, g, w)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Fatalf("%s: trace differs (%d events, want %d)", name, len(got.events), len(want.events))
				}
				if instrumented && p > 1 && len(want.events) == 0 {
					t.Fatalf("%s: the traced run recorded no events", name)
				}
			}
		}
	}
}

// TestCollectiveLossFailsEveryRank: a collective message lost for good
// fails every participant with the loss panic, instead of leaving the
// ranks that wait on it parked forever.
func TestCollectiveLossFailsEveryRank(t *testing.T) {
	net := NewNetwork(testMachine(4))
	net.SetFaults(&fault.Plan{Seed: 4, MaxRetries: 3,
		Drops: []fault.Drop{{From: -1, To: -1, Prob: 1}}})
	msgs := make([]string, 4)
	done := make(chan struct{})
	go func() {
		net.Run(func(r *Rank) {
			defer func() { msgs[r.ID], _ = recover().(string) }()
			r.Barrier()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: a rank stayed parked after the loss")
	}
	want := fmt.Sprintf("comm: message rank 0 -> 1 (tag %d) lost after 4 attempts", labelAllreduce)
	for q, m := range msgs {
		if m != want {
			t.Errorf("rank %d recovered %q, want %q", q, m, want)
		}
	}
}
