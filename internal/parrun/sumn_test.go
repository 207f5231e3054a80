package parrun

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/solver"
)

// TestSumNIsSumSlotBySlot: the short-vector reduction gives every slot bitwise
// what a scalar Sum of that slot gives, on every rank, on the tree (P = 3) and
// the recursive-doubling (P = 8, 64) paths — the collectives combine
// element-wise, so a slot's summation order does not depend on its neighbours.
func TestSumNIsSumSlotBySlot(t *testing.T) {
	const slots = 7
	for _, p := range []int{1, 3, 8, 64} {
		batched, scalar := make([][]float64, p), make([][]float64, p)
		comm.NewNetwork(comm.ASCIRed(p)).Run(func(r *comm.Rank) {
			// Magnitudes spread over twelve decades, so a different order of
			// summation would show in the last bits.
			rng := rand.New(rand.NewSource(int64(100*p + r.ID)))
			v := make([]float64, slots)
			for k := range v {
				v[k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
			}
			m := &rankMachine{r: r}
			one := make([]float64, slots)
			for k := range v {
				one[k] = m.Sum(v[k])
			}
			m.SumN(v)
			batched[r.ID], scalar[r.ID] = v, one
		})
		for q := 0; q < p; q++ {
			if !reflect.DeepEqual(batched[q], scalar[q]) {
				t.Errorf("P=%d rank %d: SumN %v, slot-by-slot Sum %v", p, q, batched[q], scalar[q])
			}
			if !reflect.DeepEqual(batched[q], batched[0]) {
				t.Errorf("P=%d: rank %d holds %v, rank 0 %v", p, q, batched[q], batched[0])
			}
		}
	}
}

// TestLockstepCGOnRanksIsOneAtATime: on the simulated machine, three systems
// solved as one lockstep batch (shares of inner products joined by SumN, the
// operator applied to every live system in one call and one gather–scatter
// exchange) are bitwise the three solved one after the other (each inner
// product joined by a Sum of its own, each operator application an exchange
// of its own), on every rank, and the batch sends the messages of its longest
// member alone. The operator is assembled like the step's: rank r holds the
// six nodes 5r … 5r+5 of a chain, the last shared with the next rank, and
// applies QQᵀ diag(1..6) to the copies, so the global operator is diagonal
// with 7 on the shared nodes. The right-hand side of member k is a function of
// the global node, non-zero on the nodes g with g mod 5 < 1, 3 and 5 — 3, 5
// and 7 distinct eigenvalues (the chain's two unshared ends are 1 and 6) — so
// the members leave the batch at iterations 3, 5 and 7.
func TestLockstepCGOnRanksIsOneAtATime(t *testing.T) {
	const nb, m = 6, 3
	for _, p := range []int{3, 8} {
		type outcome struct {
			xs    [][]float64
			stats []solver.Stats
			msgs  []int64 // sent by this rank: the batch's, or each member's alone
			calls int     // batch operator calls, and the vectors they carried
			vecs  int
		}
		batch, single := make([]outcome, p), make([]outcome, p)
		net := comm.NewNetwork(comm.ASCIRed(p))
		net.Run(func(r *comm.Rank) {
			gids := make([]int64, nb)
			for i := range gids {
				gids[i] = int64(5*r.ID + i)
			}
			h := gs.ParInit(r, gids)
			w := make([]float64, nb) // reciprocal multiplicity
			for i := range w {
				w[i] = 1
			}
			h.Apply(w, gs.Sum)
			for i := range w {
				w[i] = 1 / w[i]
			}
			var calls, vecs int
			apply := func(outs, ins [][]float64) {
				calls, vecs = calls+1, vecs+len(outs)
				for c, out := range outs {
					for i, v := range ins[c] {
						out[i] = float64(1+i) * v
					}
				}
				h.ApplyFields(gs.Sum, outs...)
			}
			bs := make([][]float64, m)
			for c, support := range []int64{1, 3, 5} {
				bs[c] = make([]float64, nb)
				for i, g := range gids {
					if g%5 < support {
						bs[c][i] = rand.New(rand.NewSource(g)).NormFloat64()
					}
				}
			}
			mach := &rankMachine{r: r}
			owned := func(u, v []float64) (s float64) {
				for i := range u {
					s += u[i] * v[i] * w[i]
				}
				return s
			}
			dot := func(u, v []float64) float64 { return mach.Sum(owned(u, v)) }
			opt := solver.Options{Tol: 1e-10, Relative: true, MaxIter: 200}
			zeros := func() [][]float64 {
				xs := make([][]float64, m)
				for c := range xs {
					xs[c] = make([]float64, nb)
				}
				return xs
			}

			sent := r.MsgsSent
			b := outcome{xs: zeros(), stats: make([]solver.Stats, m)}
			solver.CGBatch(apply, owned, mach.SumN, b.xs, bs, opt, b.stats)
			b.msgs, b.calls, b.vecs = []int64{r.MsgsSent - sent}, calls, vecs
			s := outcome{xs: zeros(), stats: make([]solver.Stats, m)}
			one := func(out, in []float64) { apply([][]float64{out}, [][]float64{in}) }
			for c := range bs {
				sent = r.MsgsSent
				s.stats[c] = solver.CG(one, dot, s.xs[c], bs[c], opt)
				s.msgs = append(s.msgs, r.MsgsSent-sent)
			}
			batch[r.ID], single[r.ID] = b, s
		})
		for q := 0; q < p; q++ {
			if !reflect.DeepEqual(batch[q].stats, single[q].stats) || !reflect.DeepEqual(batch[q].xs, single[q].xs) {
				t.Errorf("P=%d rank %d: the batch is not the three solves one at a time:\n%+v\n%+v", p, q, batch[q], single[q])
			}
			if !reflect.DeepEqual(batch[q].stats, batch[0].stats) {
				t.Errorf("P=%d: rank %d saw %+v, rank 0 %+v", p, q, batch[q].stats, batch[0].stats)
			}
			// Cold starts: one application per iteration, all of a pass's in
			// one call, so the calls are the longest member's iterations.
			its := batch[q].stats
			if want := its[m-1].Iterations; batch[q].calls != want || batch[q].vecs != its[0].Iterations+its[1].Iterations+want {
				t.Errorf("P=%d rank %d: %d batch applications of %d vectors for members of %d, %d and %d iterations",
					p, q, batch[q].calls, batch[q].vecs, its[0].Iterations, its[1].Iterations, want)
			}
			// The same messages as the longest member alone: its reductions
			// and its exchanges, each carrying every live member's words.
			if got, want := batch[q].msgs[0], single[q].msgs[m-1]; got != want || got == 0 {
				t.Errorf("P=%d rank %d: sent %d messages for the batch, %v for the members alone; want the longest's",
					p, q, got, single[q].msgs)
			}
		}
		its := batch[0].stats
		t.Logf("P=%d: iterations %d, %d, %d; rank 0 sent %d messages for the batch, %v alone",
			p, its[0].Iterations, its[1].Iterations, its[2].Iterations, batch[0].msgs[0], single[0].msgs)
		if !(its[0].Iterations < its[1].Iterations && its[1].Iterations < its[2].Iterations) {
			t.Errorf("P=%d: members were to converge at different iterations, got %d, %d, %d",
				p, its[0].Iterations, its[1].Iterations, its[2].Iterations)
		}
	}
}
