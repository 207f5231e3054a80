package gs

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/comm"
	"repro/internal/instrument"
	"repro/internal/mesh"
)

// These tests pin the two properties the paper-scale runs lean on: the
// overlapped neighbour exchange must stay bitwise deterministic even though
// replies are consumed in arrival order, and the steady-state Apply must
// not allocate.

func TestParallelExchangeDeterministicLargeP(t *testing.T) {
	// One element per rank on a 16x4 box: interior ranks have up to 8
	// neighbours (edges and corners), so each Apply really does fold
	// multiple out-of-order arrivals per slot. Goroutine scheduling varies
	// the mailbox arrival order between runs; assembled values and clocks
	// must not. Part of the -race coverage.
	const p = 64
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 16, Ny: 4, X1: 16, Y1: 4})
	m, err := mesh.Discretize(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != p {
		t.Fatalf("mesh has %d elements, want %d", m.K, p)
	}
	rng := rand.New(rand.NewSource(99))
	u0 := make([]float64, len(m.GID))
	for i := range u0 {
		// Spread magnitudes so summation order changes rounded results.
		u0[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	const applies = 5
	run := func() (first, final, clocks []float64) {
		first = make([]float64, len(u0))
		final = make([]float64, len(u0))
		ranks := comm.NewNetwork(comm.Machine{P: p, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-9, VecFlopSec: 1e-9}).Run(func(r *comm.Rank) {
			lo := r.ID * m.Np
			hi := lo + m.Np
			local := append([]float64(nil), u0[lo:hi]...)
			h := ParInit(r, m.GID[lo:hi])
			r.Compute(int64(50*(r.ID%13)), 0) // skew arrival order
			for it := 0; it < applies; it++ {
				h.Apply(local, Sum)
				if it == 0 {
					copy(first[lo:hi], local)
				}
			}
			copy(final[lo:hi], local)
		})
		clocks = make([]float64, p)
		for i, rk := range ranks {
			clocks[i] = rk.Time
		}
		return first, final, clocks
	}
	first1, final1, clocks1 := run()
	_, final2, clocks2 := run()
	for i := range final1 {
		if math.Float64bits(final1[i]) != math.Float64bits(final2[i]) {
			t.Fatalf("assembled value %d not bitwise deterministic: %x vs %x",
				i, math.Float64bits(final1[i]), math.Float64bits(final2[i]))
		}
	}
	for q := range clocks1 {
		if math.Float64bits(clocks1[q]) != math.Float64bits(clocks2[q]) {
			t.Fatalf("rank %d clock not deterministic: %v vs %v", q, clocks1[q], clocks2[q])
		}
	}
	// The first Apply must also agree with the serial assembly (different
	// fold order, so tolerance rather than bitwise).
	ref := append([]float64(nil), u0...)
	Init(m.GID).Apply(ref, Sum)
	for i := range ref {
		if math.Abs(first1[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
			t.Fatalf("parallel assembly differs from serial at %d: %g vs %g", i, first1[i], ref[i])
		}
	}
}

func TestParApplySteadyStateZeroAlloc(t *testing.T) {
	// After ParInit, Apply must run entirely out of preallocated buffers:
	// gathers into the per-neighbour send buffers, pooled receive payloads,
	// the flat slot accumulator, and the CSR write-back. So must ApplyFields
	// once its first call has sized the buffers for its fields. Measured as a
	// MemStats delta on rank 0 across a synchronized window with GC off —
	// see the comm package's allreduce twin for why AllocsPerRun can't be
	// used under the network's goroutines. The network carries a registry,
	// so every exchange is also counted and timed.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p = 4
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 8, Ny: 1, X1: 8, Y1: 1})
	m, err := mesh.Discretize(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	perRank := m.K / p
	const warm, iters = 25, 200
	var steady [2]uint64 // Apply, then ApplyFields on three fields
	net := comm.NewNetwork(comm.Machine{P: p, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-9, VecFlopSec: 1e-9})
	reg := instrument.New()
	net.Attach(reg)
	net.Run(func(r *comm.Rank) {
		lo := r.ID * perRank * m.Np
		hi := lo + perRank*m.Np
		h := ParInit(r, m.GID[lo:hi])
		fields, fresh := make([][]float64, 3), make([][]float64, 3)
		for f := range fields {
			fields[f], fresh[f] = make([]float64, hi-lo), make([]float64, hi-lo)
			for i := range fresh[f] {
				fresh[f][i] = float64((i+f)%7) - 3
			}
		}
		// Every call sums a fresh copy, so repeated applies neither
		// overflow nor drift.
		reset := func() {
			for f := range fields {
				copy(fields[f], fresh[f])
			}
		}
		calls := []func(){
			func() { reset(); h.Apply(fields[0], Sum) },
			func() { reset(); h.ApplyFields(Sum, fields...) },
		}
		for k, call := range calls {
			for it := 0; it < warm; it++ {
				call()
			}
			r.AllreduceScalar(0, comm.OpSum)
			var m0, m1 runtime.MemStats
			if r.ID == 0 {
				runtime.ReadMemStats(&m0)
			}
			for it := 0; it < iters; it++ {
				call()
			}
			r.AllreduceScalar(0, comm.OpSum)
			if r.ID == 0 {
				runtime.ReadMemStats(&m1)
				steady[k] = m1.Mallocs - m0.Mallocs
			}
		}
	})
	for k, name := range []string{"Apply", "ApplyFields on three fields"} {
		if steady[k] > 64 {
			t.Errorf("steady-state gs exchange (%s) allocated %d objects over %d calls, want ~0", name, steady[k], iters)
		}
	}
	if got, want := reg.Timer("gs/exchange.vtime").Count(), int64(2*p*(warm+iters)); got != want {
		t.Errorf("%d exchanges timed, want %d", got, want)
	}
}
