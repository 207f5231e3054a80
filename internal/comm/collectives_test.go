package comm

import (
	"math"
	"math/rand"
	"testing"
)

// collectiveRankCounts covers P = 1, non-powers of two (including primes),
// powers of two, and the paper-scale counts 64/255/256, so the
// recursive-doubling and binomial-tree code paths both run at small and
// large fan-in. These tests deliberately have no -short gate: they are the
// -race coverage for the collectives.
var collectiveRankCounts = []int{1, 2, 3, 5, 6, 7, 8, 12, 64, 255, 256}

// largeRankCounts extends the sweep to the Fig. 6/8 machine size; skipped
// under -short so the race-detector tier stays fast.
var largeRankCounts = []int{1024}

// rankCounts returns the per-test sweep: every awkward small count always,
// P = 1024 only outside -short.
func rankCounts() []int {
	counts := append([]int(nil), collectiveRankCounts...)
	if !testing.Short() {
		counts = append(counts, largeRankCounts...)
	}
	return counts
}

// refReduce folds the per-rank vectors serially (rank order), matching the
// deterministic reduction the simulated collectives promise.
func refReduce(vecs [][]float64, op ReduceOp) []float64 {
	out := append([]float64(nil), vecs[0]...)
	for _, v := range vecs[1:] {
		op(out, v)
	}
	return out
}

func TestAllreduceEdgeRankCounts(t *testing.T) {
	ops := map[string]ReduceOp{"sum": OpSum, "max": OpMax}
	for _, p := range rankCounts() {
		for name, op := range ops {
			rng := rand.New(rand.NewSource(int64(100*p) + int64(len(name))))
			n := 5
			in := make([][]float64, p)
			for q := range in {
				in[q] = make([]float64, n)
				for i := range in[q] {
					in[q][i] = rng.NormFloat64()
				}
			}
			// Sum is order-sensitive in floating point: compare against a
			// tolerance. Max is exact.
			want := refReduce(in, op)
			got := make([][]float64, p)
			NewNetwork(Machine{P: p, Latency: 1e-6, ByteSec: 1e-9}).Run(func(r *Rank) {
				buf := append([]float64(nil), in[r.ID]...)
				r.Allreduce(buf, op)
				got[r.ID] = buf
			})
			for q := 1; q < p; q++ {
				for i := range got[0] {
					if got[q][i] != got[0][i] {
						t.Fatalf("P=%d %s: rank %d result differs from rank 0 at %d (%g vs %g)",
							p, name, q, i, got[q][i], got[0][i])
					}
				}
			}
			for i := range want {
				if math.Abs(got[0][i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("P=%d %s: element %d = %g, want %g", p, name, i, got[0][i], want[i])
				}
			}
		}
	}
}

// TestBcastEdgeRankCounts: the binomial fan-out from rank 0 is the second
// half of every allreduce at a non-power-of-two P.
func TestBcastEdgeRankCounts(t *testing.T) {
	for _, p := range rankCounts() {
		want := []float64{3.5, -1.25, float64(p)}
		got := make([][]float64, p)
		NewNetwork(Machine{P: p, Latency: 1e-6, ByteSec: 1e-9}).Run(func(r *Rank) {
			buf := make([]float64, len(want))
			if r.ID == 0 {
				copy(buf, want)
			}
			r.bcastTree(buf)
			got[r.ID] = buf
		})
		for q := 0; q < p; q++ {
			for i := range want {
				if got[q][i] != want[i] {
					t.Fatalf("P=%d: rank %d got %v, want %v", p, q, got[q], want)
				}
			}
		}
	}
}

func TestBarrierEdgeRankCounts(t *testing.T) {
	for _, p := range rankCounts() {
		ranks := NewNetwork(Machine{P: p, Latency: 1e-6, ByteSec: 1e-9, FlopSec: 1e-8}).Run(func(r *Rank) {
			// Skew the clocks so the barrier has real work to synchronize.
			r.Compute(int64(1000 * (r.ID + 1)))
			r.Barrier()
		})
		if p > 1 {
			// After a barrier every rank has seen every other rank's clock.
			tmax := MaxTime(ranks)
			for _, r := range ranks {
				if r.Time < tmax*0.5 {
					t.Fatalf("P=%d: rank %d clock %g far below barrier completion %g", p, r.ID, r.Time, tmax)
				}
			}
		}
	}
}
