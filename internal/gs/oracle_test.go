package gs

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/instrument"
)

// oracleApplyFields is the message-passing exchange the rendezvous replays,
// written on the public Send and Recv: every rank sends its gathered words to
// each neighbour, then receives and folds the lower-ranked neighbours'
// replies, its own contribution and the higher-ranked neighbours' replies,
// with the metrics and span of ApplyFields around it. It is the oracle of
// TestExchangeMatchesMessageSchedule: every field, clock, counter and trace
// event of an exchange must be what this schedule produces.
func (h *ParHandle) oracleApplyFields(fields ...[]float64) {
	h.local.ApplyFields(Sum, fields...)
	if len(h.neighbours) == 0 {
		return
	}
	r := h.rank
	t0 := r.Time
	nf := len(fields)
	var words int
	for ni := range h.neighbours {
		nb := &h.neighbours[ni]
		m := len(nb.sendIdx)
		buf := make([]float64, nf*m)
		for f, u := range fields {
			for i, idx := range nb.sendIdx {
				buf[f*m+i] = u[idx]
			}
		}
		r.Send(nb.rank, tagExchange, buf)
		h.exchMsgs.Inc()
		h.exchWords.Add(int64(len(buf)))
		words += len(buf)
	}
	ns := len(h.slotRep)
	vals := make([]float64, nf*ns)
	receive := func(nbs []neighbour) {
		for _, nb := range nbs {
			got := r.Recv(nb.rank, tagExchange)
			m := len(nb.slotIdx)
			for f := 0; f < nf; f++ {
				for i, s := range nb.slotIdx {
					vals[f*ns+int(s)] += got[f*m+i]
				}
			}
		}
	}
	receive(h.neighbours[:h.below])
	for f, u := range fields {
		for s, idx := range h.slotRep {
			vals[f*ns+s] += u[idx]
		}
	}
	receive(h.neighbours[h.below:])
	for f, u := range fields {
		for s := range h.slotRep {
			for t := h.slotPtr[s]; t < h.slotPtr[s+1]; t++ {
				u[h.slotLoc[t]] = vals[f*ns+s]
			}
		}
	}
	if h.tracer.WantsV(r.ID) {
		h.tracer.SpanV(r.ID, "gs/exchange", "gs", t0, r.Time,
			map[string]any{"neighbours": len(h.neighbours), "words": words})
	}
	h.exchVTime.Record(r.Time - t0)
}

// exchangeTopology draws each rank's local global ids. Shared ids come from a
// pool of P, so a node is held by three or more ranks wherever P ≥ 3; every
// rank repeats some ids locally. For P ≥ 5 one seeded rank holds only ids of
// its own and has no neighbour.
func exchangeTopology(p int, rng *rand.Rand) (gids [][]int64, isolated int) {
	isolated = -1
	if p >= 5 {
		isolated = rng.Intn(p)
	}
	gids = make([][]int64, p)
	for q := range gids {
		n := 6 + rng.Intn(12)
		for i := 0; i < n; i++ {
			g := int64(p + 1000*q + rng.Intn(n/2+1)) // the rank's own, repeated
			if q != isolated && rng.Intn(2) == 0 {
				g = int64(rng.Intn(p))
			}
			gids[q] = append(gids[q], g)
		}
	}
	return gids, isolated
}

// exchangeCall is one ApplyFields call of a seeded exchange program.
type exchangeCall struct {
	flops []int64       // by rank: the clock skew before the call
	data  [][][]float64 // by rank, then field: the values the call assembles
}

func exchangeProgram(gids [][]int64, rng *rand.Rand) []exchangeCall {
	prog := make([]exchangeCall, 5)
	for k := range prog {
		nf := 1 + rng.Intn(3)
		c := exchangeCall{flops: make([]int64, len(gids)), data: make([][][]float64, len(gids))}
		for q, g := range gids {
			c.flops[q] = int64(rng.Intn(20000))
			c.data[q] = make([][]float64, nf)
			for f := range c.data[q] {
				c.data[q][f] = make([]float64, len(g))
				for i := range g { // twelve decades: any other fold order shows
					c.data[q][f][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
				}
			}
		}
		prog[k] = c
	}
	return prog
}

// exchangeRun is what one run of a program leaves behind.
type exchangeRun struct {
	fields      [][][][]float64 // by call, rank, field
	clocks      []comm.ClockState
	undelivered int
	report      instrument.Report
	events      []instrument.TraceEvent
}

func runExchanges(gids [][]int64, prog []exchangeCall, plan *fault.Plan, instrumented, oracle bool) exchangeRun {
	p := len(gids)
	net := comm.NewNetwork(comm.Machine{P: p, Latency: 20e-6, ByteSec: 1 / 310e6, MMFlopSec: 1e-8, VecFlopSec: 1e-8})
	net.SetFaults(plan)
	reg, tr := instrument.New(), instrument.NewTracer()
	tr.DisableWallClock()
	if instrumented {
		net.Attach(reg)
		net.AttachTracer(tr)
	}
	run := exchangeRun{fields: make([][][][]float64, len(prog))}
	for k := range prog {
		run.fields[k] = make([][][]float64, p)
	}
	ranks := net.Run(func(r *comm.Rank) {
		h := ParInit(r, gids[r.ID])
		for k, c := range prog {
			r.Compute(c.flops[r.ID], 0)
			fields := make([][]float64, len(c.data[r.ID]))
			for f, d := range c.data[r.ID] {
				fields[f] = append([]float64(nil), d...)
			}
			if oracle {
				h.oracleApplyFields(fields...)
			} else {
				h.ApplyFields(Sum, fields...)
			}
			run.fields[k][r.ID] = fields
		}
	})
	run.report, run.events, run.undelivered = reg.Report(), tr.Events(), net.Undelivered()
	for _, r := range ranks {
		run.clocks = append(run.clocks, r.Clock())
	}
	return run
}

// exchangeMetrics keeps the gs/* and comm/* counters and timers of a report,
// and of its histograms everything but the float sums (which different
// goroutine interleavings accumulate in different orders).
func exchangeMetrics(rep instrument.Report) []string {
	ours := func(name string) bool { return strings.HasPrefix(name, "gs/") || strings.HasPrefix(name, "comm/") }
	var out []string
	for _, c := range rep.Counters {
		if ours(c.Name) {
			out = append(out, fmt.Sprintf("counter %s %d", c.Name, c.Value))
		}
	}
	for _, t := range rep.Timers {
		if ours(t.Name) {
			out = append(out, fmt.Sprintf("timer %s %v %d", t.Name, t.Seconds, t.Count))
		}
	}
	for _, h := range rep.Histograms {
		if ours(h.Name) {
			out = append(out, fmt.Sprintf("histogram %s %d %v %v %v", h.Name, h.Count, h.Min, h.Max, h.Buckets))
		}
	}
	return out
}

// TestExchangeMatchesMessageSchedule: the rendezvous replay of a seeded
// program of one-, two- and three-field exchanges leaves every field bitwise,
// every rank's clock state, the registry's gs/* and comm/* metrics and the
// trace exactly as the message-passing exchange does, with and without a
// fault plan (link jitter, a fifth of all delivery attempts dropped, a rank
// paused mid-run) and with and without a registry and tracer, and leaves no
// message undelivered. Shared values span twelve decades, so any other fold
// order shows in the fields.
func TestExchangeMatchesMessageSchedule(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13, 64} {
		rng := rand.New(rand.NewSource(int64(31 * p)))
		gids, isolated := exchangeTopology(p, rng)
		prog := exchangeProgram(gids, rng)
		holders := map[int64]map[int]bool{}
		for q, gs := range gids {
			for _, g := range gs {
				if holders[g] == nil {
					holders[g] = map[int]bool{}
				}
				holders[g][q] = true
			}
		}
		most := 0
		for _, hs := range holders {
			most = max(most, len(hs))
		}
		if p >= 3 && most < 3 {
			t.Fatalf("P=%d: no node is held by three ranks", p)
		}
		for _, faulty := range []bool{false, true} {
			for _, instrumented := range []bool{false, true} {
				name := fmt.Sprintf("P=%d faults=%v instrumented=%v", p, faulty, instrumented)
				plan := func() *fault.Plan {
					if !faulty {
						return nil
					}
					return &fault.Plan{Seed: 13,
						Links:  []fault.LinkJitter{{From: -1, To: -1, MaxDelay: 5e-6}},
						Drops:  []fault.Drop{{From: -1, To: -1, Prob: 0.2}},
						Pauses: []fault.Pause{{Rank: p - 1, At: 5e-4, Duration: 2e-3}},
					}
				}
				want := runExchanges(gids, prog, plan(), instrumented, true)
				got := runExchanges(gids, prog, plan(), instrumented, false)
				for k := range prog {
					for q := range gids {
						for f, w := range want.fields[k][q] {
							for i := range w {
								if g := got.fields[k][q][f][i]; math.Float64bits(g) != math.Float64bits(w[i]) {
									t.Fatalf("%s: call %d rank %d field %d node %d = %v, want %v", name, k, q, f, i, g, w[i])
								}
							}
						}
					}
				}
				if got.undelivered != 0 {
					t.Fatalf("%s: %d messages left undelivered", name, got.undelivered)
				}
				for q := range want.clocks {
					if got.clocks[q] != want.clocks[q] {
						t.Fatalf("%s: rank %d clock\n got %+v\nwant %+v", name, q, got.clocks[q], want.clocks[q])
					}
				}
				if c := want.clocks[max(isolated, 0)]; isolated >= 0 && c.MsgsSent-c.Retries != int64(2*routeMsgs(p, isolated)) {
					t.Fatalf("%s: isolated rank %d delivered %d messages, want only its %d set-up messages",
						name, isolated, c.MsgsSent-c.Retries, 2*routeMsgs(p, isolated))
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
				if g, w := exchangeMetrics(got.report), exchangeMetrics(want.report); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: metrics\n got %v\nwant %v", name, g, w)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Fatalf("%s: trace differs (%d events, want %d)", name, len(got.events), len(want.events))
				}
				if instrumented && len(want.events) == 0 {
					t.Fatalf("%s: the traced run recorded no events", name)
				}
			}
		}
	}
}

// TestExchangeLossFailsEveryRank: an exchange message lost for good fails
// every rank with the loss panic, instead of leaving the ranks that wait on
// it parked forever.
func TestExchangeLossFailsEveryRank(t *testing.T) {
	const p = 4
	net := comm.NewNetwork(comm.Machine{P: p, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-9, VecFlopSec: 1e-9})
	handles := make([]*ParHandle, p)
	net.Run(func(r *comm.Rank) { // a chain: rank q shares id q with q-1 and q+1 with q+1
		handles[r.ID] = ParInit(r, []int64{int64(r.ID), int64(r.ID + 1)})
	})
	net.SetFaults(&fault.Plan{Seed: 4, MaxRetries: 3,
		Drops: []fault.Drop{{From: -1, To: -1, Prob: 1}}})
	msgs := make([]string, p)
	done := make(chan struct{})
	go func() {
		net.Run(func(r *comm.Rank) {
			defer func() { msgs[r.ID], _ = recover().(string) }()
			handles[r.ID].Apply([]float64{1, 2}, Sum)
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: a rank stayed parked after the loss")
	}
	want := fmt.Sprintf("comm: message rank 0 -> 1 (tag %d) lost after 4 attempts", tagExchange)
	for q, m := range msgs {
		if m != want {
			t.Errorf("rank %d recovered %q, want %q", q, m, want)
		}
	}
}

// routeMsgs is the number of messages rank q of P sends in one fault-free
// route: log₂P on P = 2^k; otherwise, with 2^k the largest power of two
// below P, one on the ranks from 2^k up, k + 1 on the ranks they fold onto
// and k on the rest — never more than ⌈log₂P⌉ + 1.
func routeMsgs(p, q int) int {
	k := bits.Len(uint(p)) - 1
	switch {
	case q >= 1<<k:
		return 1
	case q < p-1<<k:
		return k + 1
	}
	return k
}

// TestParInitFindsTheSharersInTwoRoutes: at P ∈ {2, 3, 5, 8, 13, 64} each
// rank's neighbours, and the ids it shares with each, are those a scan of
// every rank's ids finds, and its set-up sends two routes' messages,
// routeMsgs each.
func TestParInitFindsTheSharersInTwoRoutes(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 13, 64} {
		gids, _ := exchangeTopology(p, rand.New(rand.NewSource(int64(7*p))))
		handles := make([]*ParHandle, p)
		ranks := comm.NewNetwork(comm.ASCIRed(p)).Run(func(r *comm.Rank) { handles[r.ID] = ParInit(r, gids[r.ID]) })
		for q, h := range handles {
			want := map[int][]int64{}
			for o, ids := range gids {
				if o == q {
					continue
				}
				for _, g := range ids {
					if slices.Contains(gids[q], g) && !slices.Contains(want[o], g) {
						want[o] = append(want[o], g)
					}
				}
			}
			got := map[int][]int64{}
			for _, nb := range h.neighbours {
				got[nb.rank] = nb.gids
			}
			for _, ids := range want {
				slices.Sort(ids)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d rank %d shares %v, want %v", p, q, got, want)
			}
			if sent, most := ranks[q].MsgsSent, 2*(bits.Len(uint(p-1))+1); sent != int64(2*routeMsgs(p, q)) || sent > int64(most) {
				t.Errorf("P=%d rank %d: ParInit sent %d messages, want %d (at most %d)", p, q, sent, 2*routeMsgs(p, q), most)
			}
		}
	}
}
