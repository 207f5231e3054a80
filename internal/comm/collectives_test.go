package comm

import (
	"fmt"
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

// TestAllreduceMaxAgreesOnEveryRank: both ranks of a recursive-doubling
// pair fold op(lower, upper), so OpMax, which keeps its first operand on a
// tie (±0) and against a NaN, leaves the same bits on every rank.
func TestAllreduceMaxAgreesOnEveryRank(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		got := make([][]float64, p)
		NewNetwork(testMachine(p)).Run(func(r *Rank) {
			buf := []float64{0, 0, 1} // odd ranks: −0, NaN; the last rank: NaN
			if r.ID%2 == 1 {
				buf[0], buf[1] = math.Copysign(0, -1), math.NaN()
			}
			if r.ID == p-1 {
				buf[2] = math.NaN()
			}
			r.Allreduce(buf, OpMax)
			got[r.ID] = buf
		})
		for q := 1; q < p; q++ {
			for i, w := range got[0] {
				if g := got[q][i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("P=%d: rank %d slot %d = %v (bits %#x), rank 0 has %v (bits %#x)",
						p, q, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// replayBcast deposits one vector per rank at the rendezvous and replays the
// broadcast half of a tree allreduce over them, as the driver does: every
// rank ends with rank 0's vector.
func replayBcast(net *Network, vecs [][]float64) {
	for q, v := range vecs {
		net.coll.calls[q].data = v
	}
	net.bcastTree(len(vecs[0]))
}

// TestBcastEdgeRankCounts: the binomial fan-out from rank 0 is the second
// half of every allreduce at a non-power-of-two P. The replay's fan-out
// delivers rank 0's vector everywhere and leaves every clock where the
// message-passing fan-out does.
func TestBcastEdgeRankCounts(t *testing.T) {
	for _, p := range rankCounts() {
		want := []float64{3.5, -1.25, float64(p)}
		m := Machine{P: p, Latency: 1e-6, ByteSec: 1e-9}
		got := make([][]float64, p)
		for q := range got {
			got[q] = make([]float64, len(want))
		}
		copy(got[0], want)
		net := NewNetwork(m)
		replayBcast(net, got)
		oracle := NewNetwork(m).Run(func(r *Rank) {
			buf := make([]float64, len(want))
			if r.ID == 0 {
				copy(buf, want)
			}
			oracleBcast(r, buf)
		})
		for q := 0; q < p; q++ {
			for i := range want {
				if got[q][i] != want[i] {
					t.Fatalf("P=%d: rank %d got %v, want %v", p, q, got[q], want)
				}
			}
			if c, w := net.ranks[q].Clock(), oracle[q].Clock(); c != w {
				t.Fatalf("P=%d: rank %d clock %+v, message-passing fan-out %+v", p, q, c, w)
			}
		}
	}
}

func TestBarrierEdgeRankCounts(t *testing.T) {
	for _, p := range rankCounts() {
		ranks := NewNetwork(Machine{P: p, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-8, VecFlopSec: 1e-8}).Run(func(r *Rank) {
			// Skew the clocks so the barrier has real work to synchronize.
			r.Compute(int64(1000*(r.ID+1)), 0)
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

// BenchmarkAllreduce reports the host time of one allreduce on the
// simulated ASCI-Red machine (ns/op is per call, all P ranks together): at
// the dist_p64 rank count and the paper's P = 1024, for the scalar of a CG
// reduction and a 20-word vector of shares.
func BenchmarkAllreduce(b *testing.B) {
	for _, p := range []int{64, 1024} {
		for _, words := range []int{1, 20} {
			b.Run(fmt.Sprintf("P=%d/words=%d", p, words), func(b *testing.B) {
				net := NewNetwork(ASCIRed(p))
				b.ResetTimer()
				net.Run(func(r *Rank) {
					buf := make([]float64, words)
					for i := 0; i < b.N; i++ {
						buf[0] = float64(r.ID + i)
						r.Allreduce(buf, OpMax)
					}
				})
			})
		}
	}
}
