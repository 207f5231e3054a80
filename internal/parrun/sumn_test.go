package parrun

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
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
// solved as one lockstep batch (shares of inner products joined by SumN) are
// bitwise the three solved one after the other (each inner product joined by
// a Sum of its own), on every rank, and the
// batch issues the allreduces of its longest member. Each rank owns six
// unknowns of the operator diag(1..6, 1..6, …); the right-hand sides touch the
// first 1, 4 and 6 of every rank's, that many distinct eigenvalues, so the
// members leave the batch at iterations 1, 4 and 6.
func TestLockstepCGOnRanksIsOneAtATime(t *testing.T) {
	const nb, m = 6, 3
	for _, p := range []int{3, 8} {
		type outcome struct {
			xs    [][]float64
			stats []solver.Stats
			msgs  int64 // sent by this rank, all of them inside allreduces
		}
		batch, single := make([]outcome, p), make([]outcome, p)
		net := comm.NewNetwork(comm.ASCIRed(p))
		net.Run(func(r *comm.Rank) {
			rng := rand.New(rand.NewSource(int64(7*p + r.ID)))
			apply := func(out, in []float64) {
				for i, v := range in {
					out[i] = float64(1+i) * v
				}
			}
			bs := make([][]float64, m)
			for c, support := range []int{1, 4, nb} {
				bs[c] = make([]float64, nb)
				for i := 0; i < support; i++ {
					bs[c][i] = rng.NormFloat64()
				}
			}
			mach := &rankMachine{r: r}
			owned := func(u, v []float64) (s float64) {
				for i := range u {
					s += u[i] * v[i]
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
			b.msgs, sent = r.MsgsSent-sent, r.MsgsSent
			s := outcome{xs: zeros(), stats: make([]solver.Stats, m)}
			for c := range bs {
				s.stats[c] = solver.CG(apply, dot, s.xs[c], bs[c], opt)
			}
			s.msgs = r.MsgsSent - sent
			batch[r.ID], single[r.ID] = b, s
		})
		for q := 0; q < p; q++ {
			if !reflect.DeepEqual(batch[q].stats, single[q].stats) || !reflect.DeepEqual(batch[q].xs, single[q].xs) {
				t.Errorf("P=%d rank %d: the batch is not the three solves one at a time:\n%+v\n%+v", p, q, batch[q], single[q])
			}
			if !reflect.DeepEqual(batch[q].stats, batch[0].stats) {
				t.Errorf("P=%d: rank %d saw %+v, rank 0 %+v", p, q, batch[q].stats, batch[0].stats)
			}
		}
		its := batch[0].stats
		if !(its[0].Iterations < its[1].Iterations && its[1].Iterations < its[2].Iterations) {
			t.Errorf("P=%d: members were to converge at different iterations, got %d, %d, %d",
				p, its[0].Iterations, its[1].Iterations, its[2].Iterations)
		}
		// A cold solve under a relative tolerance that converges at iteration
		// it issues 3·it + 1 reductions (‖b‖² = ‖r‖², r·z, then p·q, ‖r‖², r·z
		// per iteration, the last without its r·z), each the same messages on a
		// given rank: the batch must cost the longest member's, not the sum.
		var sum int64
		for _, st := range its {
			sum += int64(3*st.Iterations + 1)
		}
		if longest := int64(3*its[2].Iterations + 1); batch[0].msgs*sum != single[0].msgs*longest || batch[0].msgs == 0 {
			t.Errorf("P=%d: rank 0 sent %d messages for the batch and %d one at a time, want the ratio %d : %d",
				p, batch[0].msgs, single[0].msgs, longest, sum)
		}
	}
}
