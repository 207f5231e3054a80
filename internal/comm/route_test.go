package comm

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/instrument"
)

// routeProgram draws each rank's records: up to five, to any rank (itself
// included, several to one rank, some empty), each word naming its source,
// record and place.
func routeProgram(p int, rng *rand.Rand) [][]Record {
	out := make([][]Record, p)
	for q := range out {
		for k := range rng.Intn(6) {
			data := make([]float64, rng.Intn(4))
			for i := range data {
				data[i] = float64(1e6*q + 1e3*k + i)
			}
			out[q] = append(out[q], Record{rng.Intn(p), data})
		}
	}
	return out
}

// oracleRoute is the all-to-all Route must agree with, on Send and Recv:
// every rank sends every other rank one message of its records for it, each
// a length and the data, and receives one from every other rank in
// ascending order, taking its records to itself in its own turn.
func oracleRoute(r *Rank, out []Record) []Record {
	pack := func(to int) []float64 {
		var msg []float64
		for _, rec := range out {
			if rec.Rank == to {
				msg = append(msg, float64(len(rec.Data)))
				msg = append(msg, rec.Data...)
			}
		}
		return msg
	}
	for q := range r.P() {
		if q != r.ID {
			r.Send(q, 5, pack(q))
		}
	}
	var in []Record
	for q := range r.P() {
		msg := pack(q)
		if q != r.ID {
			msg = r.Recv(q, 5)
		}
		for i := 0; i < len(msg); {
			n := int(msg[i])
			in = append(in, Record{q, msg[i+1 : i+1+n]})
			i += 1 + n
		}
	}
	return in
}

// TestRouteDeliversAsTheAllToAll: at P ∈ {2, 3, 5, 8, 13, 64}, with and
// without a fault plan (link jitter, a fifth of all delivery attempts
// dropped, a rank paused), every rank receives exactly the records the
// Send/Recv all-to-all delivers to it, grouped by source in ascending order
// and each source's in its order, and sends at most ⌈log₂P⌉ + 1 messages
// (fault-free: log₂P on P = 2^k, at most ⌊log₂P⌋ + 1 otherwise).
func TestRouteDeliversAsTheAllToAll(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13, 64} {
		out := routeProgram(p, rand.New(rand.NewSource(int64(p))))
		for _, faulty := range []bool{false, true} {
			name := fmt.Sprintf("P=%d faults=%v", p, faulty)
			run := func(route func(*Rank, []Record) []Record) ([][]Record, []*Rank) {
				net := NewNetwork(testMachine(p))
				if faulty {
					net.SetFaults(&fault.Plan{Seed: 7,
						Links:  []fault.LinkJitter{{From: -1, To: -1, MaxDelay: 5e-6}},
						Drops:  []fault.Drop{{From: -1, To: -1, Prob: 0.2}},
						Pauses: []fault.Pause{{Rank: p - 1, At: 0, Duration: 1e-3}},
					})
				}
				in := make([][]Record, p)
				ranks := net.Run(func(r *Rank) { in[r.ID] = route(r, out[r.ID]) })
				return in, ranks
			}
			want, _ := run(oracleRoute)
			got, ranks := run((*Rank).Route)
			records := 0
			for q := range want {
				records += len(want[q])
				if len(got[q]) == 0 && len(want[q]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[q], want[q]) {
					t.Fatalf("%s: rank %d received\n %v\nwant %v", name, q, got[q], want[q])
				}
			}
			if records == 0 {
				t.Fatalf("%s: the program routes no record", name)
			}
			ceil := bits.Len(uint(p - 1))
			var drops int64
			for _, r := range ranks {
				drops += r.Drops
				if sent := r.MsgsSent - r.Retries; sent > int64(ceil+1) {
					t.Errorf("%s: rank %d sent %d messages, want at most ⌈log₂P⌉ + 1 = %d", name, r.ID, sent, ceil+1)
				}
				if !faulty && p&(p-1) == 0 && r.MsgsSent != int64(ceil) {
					t.Errorf("%s: rank %d sent %d messages, want log₂P = %d", name, r.ID, r.MsgsSent, ceil)
				}
			}
			if faulty && drops == 0 {
				t.Fatalf("%s: the plan dropped no message", name)
			}
		}
	}
}

// oracleCrystalRouter is the crystal router Route replays, written on Send
// and Recv. With lo the largest power of two ≤ P, the ranks from lo up first
// send every record they hold to the rank lo below them; at stage l each
// rank below lo trades with its partner across bit l the records whose
// destination lies on the partner's side of that bit; at the end the ranks
// below lo hand the ranks lo above them their records. A message carries,
// per record, its destination, source and length before its data. It is the
// oracle of TestRouteMatchesCrystalRouterSchedule: every delivery, clock,
// counter and trace event of a route must be what this schedule produces.
func oracleCrystalRouter(r *Rank, out []Record) []Record {
	type held struct {
		to, from int
		data     []float64
	}
	var hold []held
	for _, rec := range out {
		hold = append(hold, held{rec.Rank, r.ID, rec.Data})
	}
	// send passes q the held records whose destination d has d&mask == want.
	send := func(q, tag, mask, want int) {
		var msg []float64
		var keep []held
		for _, h := range hold {
			if h.to&mask != want {
				keep = append(keep, h)
				continue
			}
			msg = append(msg, float64(h.to), float64(h.from), float64(len(h.data)))
			msg = append(msg, h.data...)
		}
		r.Send(q, tag, msg)
		hold = keep
	}
	recv := func(q, tag int) {
		msg := r.Recv(q, tag)
		for i := 0; i < len(msg); {
			n := int(msg[i+2])
			hold = append(hold, held{int(msg[i]), int(msg[i+1]), msg[i+3 : i+3+n]})
			i += 3 + n
		}
	}
	p := r.P()
	lo := 1 << (bits.Len(uint(p)) - 1)
	if r.ID >= lo {
		send(r.ID-lo, labelRoute+64, 0, 0)
		recv(r.ID-lo, labelRoute+65)
	} else {
		if r.ID+lo < p {
			recv(r.ID+lo, labelRoute+64)
		}
		for l := 0; 1<<l < lo; l++ {
			peer := r.ID ^ 1<<l
			send(peer, labelRoute+l, 1<<l, peer&(1<<l))
			recv(peer, labelRoute+l)
		}
		if r.ID+lo < p {
			send(r.ID+lo, labelRoute+65, -1, r.ID+lo)
		}
	}
	// Records of one source for one destination travel together and keep
	// their order, so a stable sort by source is the delivery order.
	slices.SortStableFunc(hold, func(a, b held) int { return cmp.Compare(a.from, b.from) })
	in := make([]Record, len(hold))
	for k, h := range hold {
		in[k] = Record{h.from, h.data}
	}
	return in
}

// routeStep is one call of a seeded route program.
type routeStep struct {
	flops []int64    // by rank: the clock skew before the call
	out   [][]Record // by rank: the records the call routes
}

// routeRun is what one run of a route program leaves behind.
type routeRun struct {
	in          [][][]Record // by call, then rank
	clocks      []ClockState
	report      instrument.Report
	events      []instrument.TraceEvent
	undelivered int
}

// runRoutes runs prog on P ranks, through Route or through the oracle, under
// the given fault plan, with a registry and a tracer (wall clock off)
// attached when instrumented.
func runRoutes(p int, prog []routeStep, plan *fault.Plan, instrumented, oracle bool) routeRun {
	net := NewNetwork(testMachine(p))
	net.SetFaults(plan)
	reg, tr := instrument.New(), instrument.NewTracer()
	tr.DisableWallClock()
	if instrumented {
		net.Attach(reg)
		net.AttachTracer(tr)
	}
	in := make([][][]Record, len(prog))
	for i := range in {
		in[i] = make([][]Record, p)
	}
	ranks := net.Run(func(r *Rank) {
		for i, s := range prog {
			r.Compute(s.flops[r.ID], 0)
			if oracle {
				in[i][r.ID] = oracleCrystalRouter(r, s.out[r.ID])
			} else {
				in[i][r.ID] = r.Route(s.out[r.ID])
			}
		}
	})
	run := routeRun{in: in, report: reg.Report(), events: tr.Events(), undelivered: net.Undelivered()}
	for _, r := range ranks {
		run.clocks = append(run.clocks, r.Clock())
	}
	return run
}

// sameRecords reports whether a and b hold the same sources and the same
// data, bit for bit.
func sameRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.Rank == y.Rank && slices.EqualFunc(x.Data, y.Data, func(u, v float64) bool {
			return math.Float64bits(u) == math.Float64bits(v)
		})
	})
}

// TestRouteMatchesCrystalRouterSchedule: at P ∈ {2, 3, 5, 8, 13, 64}, a
// seeded program of eight routes, each after a per-rank compute skew,
// delivers every record bitwise and leaves every rank's clock state, the
// registry's comm/* metrics and the trace exactly as the message-passing
// crystal router does, with and without a fault plan and with and without a
// registry and tracer, and neither leaves a message undelivered.
func TestRouteMatchesCrystalRouterSchedule(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13, 64} {
		rng := rand.New(rand.NewSource(int64(31 * p)))
		prog := make([]routeStep, 8)
		for i := range prog {
			prog[i] = routeStep{flops: make([]int64, p), out: routeProgram(p, rng)}
			for q := range prog[i].flops {
				prog[i].flops[q] = int64(rng.Intn(50000))
			}
		}
		for _, faulty := range []bool{false, true} {
			for _, instrumented := range []bool{false, true} {
				name := fmt.Sprintf("P=%d faults=%v instrumented=%v", p, faulty, instrumented)
				plan := func() *fault.Plan {
					if faulty {
						return faultyPlan(p)
					}
					return nil
				}
				want := runRoutes(p, prog, plan(), instrumented, true)
				got := runRoutes(p, prog, plan(), instrumented, false)
				for i := range prog {
					for q := range p {
						if !sameRecords(got.in[i][q], want.in[i][q]) {
							t.Fatalf("%s: route %d rank %d received\n %v\nwant %v", name, i, q, got.in[i][q], want.in[i][q])
						}
					}
				}
				for q := range want.clocks {
					if got.clocks[q] != want.clocks[q] {
						t.Fatalf("%s: rank %d clock\n got %+v\nwant %+v", name, q, got.clocks[q], want.clocks[q])
					}
				}
				if faulty {
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
				if instrumented && len(want.events) == 0 {
					t.Fatalf("%s: the traced run recorded no events", name)
				}
				if got.undelivered != 0 || want.undelivered != 0 {
					t.Fatalf("%s: %d messages undelivered after the routes, %d after the oracle", name, got.undelivered, want.undelivered)
				}
			}
		}
	}
}

// failEveryRank runs body on every rank of net and returns the panic text
// each rank recovers, failing t if Run does not return.
func failEveryRank(t *testing.T, net *Network, body func(r *Rank)) []string {
	t.Helper()
	msgs := make([]string, net.P)
	done := make(chan struct{})
	go func() {
		net.Run(func(r *Rank) {
			defer func() { msgs[r.ID], _ = recover().(string) }()
			body(r)
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: a rank stayed parked")
	}
	return msgs
}

// TestRouteLossFailsEveryRank: a route message lost for good fails every
// rank with the loss panic of the first stage's first message, instead of
// leaving the ranks that wait on it parked forever.
func TestRouteLossFailsEveryRank(t *testing.T) {
	net := NewNetwork(testMachine(4))
	net.SetFaults(&fault.Plan{Seed: 4, MaxRetries: 3,
		Drops: []fault.Drop{{From: -1, To: -1, Prob: 1}}})
	msgs := failEveryRank(t, net, func(r *Rank) {
		r.Route([]Record{{(r.ID + 1) % 4, []float64{1}}})
	})
	want := fmt.Sprintf("comm: message rank 0 -> 1 (tag %d) lost after 4 attempts", labelRoute)
	for q, m := range msgs {
		if m != want {
			t.Errorf("rank %d recovered %q, want %q", q, m, want)
		}
	}
}

// TestRouteOutOfRangeFailsEveryRank: a record addressed to no rank fails
// every rank with one panic naming the first such record, in order of
// source, before any message is sent.
func TestRouteOutOfRangeFailsEveryRank(t *testing.T) {
	net := NewNetwork(testMachine(3))
	msgs := failEveryRank(t, net, func(r *Rank) {
		to := []int{0, 3, -1}[r.ID]
		r.Route([]Record{{r.ID, []float64{2}}, {to, nil}})
	})
	for q, m := range msgs {
		if want := "comm: rank 1 routes a record to rank 3 of 3"; m != want {
			t.Errorf("rank %d recovered %q, want %q", q, m, want)
		}
	}
	for _, r := range net.ranks {
		if r.MsgsSent != 0 {
			t.Errorf("rank %d sent %d messages before the failure, want none", r.ID, r.MsgsSent)
		}
	}
}
