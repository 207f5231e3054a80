package comm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
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
