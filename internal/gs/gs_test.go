package gs

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/instrument"
	"repro/internal/mesh"
)

func TestApplySum(t *testing.T) {
	gids := []int64{0, 1, 1, 2, 0, 3}
	h := Init(gids)
	u := []float64{1, 2, 3, 4, 5, 6}
	h.Apply(u, Sum)
	want := []float64{6, 5, 5, 4, 6, 6}
	for i := range u {
		if u[i] != want[i] {
			t.Fatalf("sum: got %v want %v", u, want)
		}
	}
}

func TestMultiplicity(t *testing.T) {
	gids := []int64{0, 1, 1, 2, 0, 0}
	h := Init(gids)
	m := h.Multiplicity()
	want := []float64{3, 2, 2, 1, 3, 3}
	for i := range m {
		if m[i] != want[i] {
			t.Fatalf("multiplicity %v want %v", m, want)
		}
	}
}

func TestApplyFieldsMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gids := make([]int64, 50)
	for i := range gids {
		gids[i] = int64(rng.Intn(20))
	}
	h := Init(gids)
	u1 := make([]float64, 50)
	u2 := make([]float64, 50)
	for i := range u1 {
		u1[i] = rng.NormFloat64()
		u2[i] = rng.NormFloat64()
	}
	v1 := append([]float64(nil), u1...)
	v2 := append([]float64(nil), u2...)
	h.Apply(v1, Sum)
	h.Apply(v2, Sum)
	h.ApplyFields(Sum, u1, u2)
	for i := range u1 {
		if u1[i] != v1[i] || u2[i] != v2[i] {
			t.Fatal("vector mode disagrees with scalar mode")
		}
	}
}

func TestApplyIdempotentAfterAssembly(t *testing.T) {
	// Property: after one Sum gather-scatter, all copies of a global agree
	// bitwise: each holds the node's one assembled value.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		gids := make([]int64, n)
		for i := range gids {
			gids[i] = int64(rng.Intn(n/2 + 1))
		}
		h := Init(gids)
		u := make([]float64, n)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		h.Apply(u, Sum)
		first := map[int64]float64{}
		for i, g := range gids {
			if v, ok := first[g]; !ok {
				first[g] = u[i]
			} else if math.Float64bits(v) != math.Float64bits(u[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInitDeterministicAssembly(t *testing.T) {
	// Shuffled duplicate gids: many shared groups whose float summation
	// order would differ run to run if Init iterated a map. Two independent
	// Init+Apply(Sum) passes must produce bitwise-identical vectors.
	rng := rand.New(rand.NewSource(42))
	n := 400
	gids := make([]int64, n)
	for i := range gids {
		gids[i] = int64(rng.Intn(n / 6)) // heavy duplication
	}
	rng.Shuffle(n, func(i, j int) { gids[i], gids[j] = gids[j], gids[i] })
	u0 := make([]float64, n)
	for i := range u0 {
		// Values chosen so summation order changes the rounded result.
		u0[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-8))
	}
	ref := append([]float64(nil), u0...)
	Init(gids).Apply(ref, Sum)
	for pass := 0; pass < 10; pass++ {
		u := append([]float64(nil), u0...)
		Init(gids).Apply(u, Sum)
		for i := range u {
			if u[i] != ref[i] {
				t.Fatalf("pass %d: assembly not bitwise deterministic at %d: %x vs %x",
					pass, i, math.Float64bits(u[i]), math.Float64bits(ref[i]))
			}
		}
	}
}

func TestInitGroupOrderCanonical(t *testing.T) {
	// Pairs and groups must be ordered by smallest local index with
	// ascending indices inside each, independent of gid values; nodes of
	// multiplicity two are pairs, higher multiplicities groups.
	h := Init([]int64{9, 5, 9, 7, 5, 9, 3, 8, 3, 8})
	wantPairs := []int32{1, 4, 6, 8, 7, 9}
	wantGroups := [][]int32{{0, 2, 5}}
	if !slices.Equal(h.pairs, wantPairs) {
		t.Fatalf("pairs %v want %v", h.pairs, wantPairs)
	}
	if !slices.EqualFunc(h.groups, wantGroups, slices.Equal[[]int32]) {
		t.Fatalf("groups %v want %v", h.groups, wantGroups)
	}
}

func TestMultiplicityCachedAndCopied(t *testing.T) {
	h := Init([]int64{0, 0, 1})
	m1 := h.Multiplicity()
	m1[0] = -100 // caller owns the slice; a later call must not see it
	if m2 := h.Multiplicity(); m2[0] != 2 || m2[1] != 2 || m2[2] != 1 {
		t.Errorf("Multiplicity after mutating an earlier result = %v, want [2 2 1]", m2)
	}
}

// TestDotAssembledCountsGlobalsOnce: weighting an element-local inner
// product by the inverse multiplicity (what sem.Disc.Mult is for) counts
// each shared global node once.
func TestDotAssembledCountsGlobalsOnce(t *testing.T) {
	gids := []int64{0, 0, 1}
	h := Init(gids)
	u := []float64{2, 2, 3} // assembled field: global 0 has value 2
	m := h.Multiplicity()
	got := 0.0
	for i := range u {
		got += u[i] * u[i] / m[i]
	}
	if math.Abs(got-(4+9)) > 1e-14 {
		t.Errorf("multiplicity-weighted dot = %g, want 13", got)
	}
}

func TestMeshAssemblyConstantField(t *testing.T) {
	// On a mesh, gather-scatter of the constant 1 gives the multiplicity;
	// dividing back must recover 1 everywhere.
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 3, Ny: 2, X1: 3, Y1: 2})
	m, err := mesh.Discretize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := Init(m.GID)
	u := make([]float64, len(m.GID))
	for i := range u {
		u[i] = 1
	}
	h.Apply(u, Sum)
	mult := h.Multiplicity()
	for i := range u {
		if u[i] != mult[i] {
			t.Fatal("assembled constant != multiplicity")
		}
		if mult[i] != 1 && mult[i] != 2 && mult[i] != 4 {
			t.Fatalf("unexpected multiplicity %g on structured quad mesh", mult[i])
		}
	}
}

// parallel gather-scatter across a partitioned strip of elements.
func TestParallelMatchesSerial(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		spec := mesh.Box2D(mesh.Box2DSpec{Nx: 8, Ny: 1, X1: 8, Y1: 1})
		m, err := mesh.Discretize(spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		u := make([]float64, len(m.GID))
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		// Serial reference.
		ref := append([]float64(nil), u...)
		Init(m.GID).Apply(ref, Sum)

		// Partition elements blockwise: elements e with e%p == rank? use
		// contiguous blocks so neighbours are cross-rank.
		perRank := m.K / p
		net := comm.NewNetwork(comm.Machine{P: p, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-9, VecFlopSec: 1e-9})
		results := make([][]float64, p)
		net.Run(func(r *comm.Rank) {
			e0 := r.ID * perRank
			e1 := e0 + perRank
			gids := m.GID[e0*m.Np : e1*m.Np]
			local := append([]float64(nil), u[e0*m.Np:e1*m.Np]...)
			h := ParInit(r, gids)
			h.Apply(local, Sum)
			results[r.ID] = local
		})
		for rk := 0; rk < p; rk++ {
			off := rk * perRank * m.Np
			for i, v := range results[rk] {
				if math.Abs(v-ref[off+i]) > 1e-12 {
					t.Fatalf("P=%d rank %d: parallel gs mismatch at %d: %g vs %g",
						p, rk, i, v, ref[off+i])
				}
			}
		}
	}
}

func TestParExchangeCounters(t *testing.T) {
	// Each rank shares gid 0 with every other rank, so one Apply exchanges
	// one single-word message per neighbour pair and direction.
	p := 3
	net := comm.NewNetwork(comm.Machine{P: p, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-9, VecFlopSec: 1e-9})
	reg := instrument.New()
	net.Attach(reg)
	net.Run(func(r *comm.Rank) {
		h := ParInit(r, []int64{0, int64(r.ID + 1)})
		u := []float64{1, float64(r.ID)}
		h.Apply(u, Sum)
		if u[0] != float64(p) {
			t.Errorf("rank %d: shared sum = %g, want %g", r.ID, u[0], float64(p))
		}
	})
	wantMsgs := int64(p * (p - 1)) // every ordered neighbour pair sends once
	if got := reg.Counter("gs/exchange.msgs").Value(); got != wantMsgs {
		t.Errorf("exchange msgs = %d, want %d", got, wantMsgs)
	}
	if got := reg.Counter("gs/exchange.words").Value(); got != wantMsgs {
		t.Errorf("exchange words = %d, want %d (one shared word per message)", got, wantMsgs)
	}
}

// TestParApplyFieldsIsApplyPerField: the multi-field exchange assembles each
// of three fields bitwise as Apply assembles it alone, and as the serial
// Handle does when every order of summation gives the same bits, in one
// message per neighbour per call carrying every field's shared words. Blocks
// of a 8x3 box (P = 3: 8 elements per rank, P = 8: 3), so interior ranks
// have edge and corner neighbours.
func TestParApplyFieldsIsApplyPerField(t *testing.T) {
	const nf = 3
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 8, Ny: 3, X1: 8, Y1: 3})
	m, err := mesh.Discretize(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	// spread: magnitudes over twelve decades, so any change of summation
	// order shows; exact: multiples of 2⁻¹⁰ below 2¹⁰, summed exactly in any
	// order.
	spread, exact := make([][]float64, nf), make([][]float64, nf)
	for f := 0; f < nf; f++ {
		spread[f], exact[f] = make([]float64, len(m.GID)), make([]float64, len(m.GID))
		for i := range m.GID {
			spread[f][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
			exact[f][i] = float64(rng.Intn(1<<20)-1<<19) / 1024
		}
	}
	serial := make([][]float64, nf)
	for f := range serial {
		serial[f] = append([]float64(nil), exact[f]...)
	}
	Init(m.GID).ApplyFields(Sum, serial...)

	for _, p := range []int{3, 8} {
		perRank := m.K / p
		reg := instrument.New()
		var calls, words [3]int64 // before and after each ApplyFields call: messages and words, summed over ranks
		var nbrs, shared atomic.Int64
		net := comm.NewNetwork(comm.Machine{P: p, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-9, VecFlopSec: 1e-9})
		net.Attach(reg)
		got := make([][]float64, nf)  // ApplyFields on the spread fields
		want := make([][]float64, nf) // Apply on each spread field alone
		gotExact := make([][]float64, nf)
		for f := 0; f < nf; f++ {
			got[f], want[f], gotExact[f] = make([]float64, len(m.GID)), make([]float64, len(m.GID)), make([]float64, len(m.GID))
		}
		msgs, wds := reg.Counter("gs/exchange.msgs"), reg.Counter("gs/exchange.words")
		net.Run(func(r *comm.Rank) {
			lo, hi := r.ID*perRank*m.Np, (r.ID+1)*perRank*m.Np
			h := ParInit(r, m.GID[lo:hi])
			nbrs.Add(int64(len(h.neighbours)))
			for _, nb := range h.neighbours {
				shared.Add(int64(len(nb.gids)))
			}
			local := func(src [][]float64) [][]float64 {
				out := make([][]float64, nf)
				for f := range out {
					out[f] = append([]float64(nil), src[f][lo:hi]...)
				}
				return out
			}
			one, many, ex := local(spread), local(spread), local(exact)
			for _, u := range one {
				h.Apply(u, Sum)
			}
			for k, fields := range [][][]float64{many, ex} {
				r.Barrier()
				if r.ID == 0 {
					calls[k], words[k] = msgs.Value(), wds.Value()
				}
				r.Barrier()
				h.ApplyFields(Sum, fields...)
			}
			r.Barrier()
			if r.ID == 0 {
				calls[2], words[2] = msgs.Value(), wds.Value()
			}
			for f := 0; f < nf; f++ {
				copy(want[f][lo:hi], one[f])
				copy(got[f][lo:hi], many[f])
				copy(gotExact[f][lo:hi], ex[f])
			}
		})
		for f := 0; f < nf; f++ {
			for i := range m.GID {
				if math.Float64bits(got[f][i]) != math.Float64bits(want[f][i]) {
					t.Fatalf("P=%d field %d node %d: ApplyFields %x, Apply alone %x", p, f, i,
						math.Float64bits(got[f][i]), math.Float64bits(want[f][i]))
				}
				if math.Float64bits(gotExact[f][i]) != math.Float64bits(serial[f][i]) {
					t.Fatalf("P=%d field %d node %d: ApplyFields %g, serial Handle %g", p, f, i, gotExact[f][i], serial[f][i])
				}
			}
		}
		if nbrs.Load() == 0 {
			t.Fatalf("P=%d: no rank has a neighbour", p)
		}
		for k := 0; k < 2; k++ {
			c, w := calls[k+1]-calls[k], words[k+1]-words[k]
			if c != nbrs.Load() || w != nf*shared.Load() {
				t.Errorf("P=%d call %d: %d messages of %d words in all, want one per neighbour (%d) carrying %d fields' %d shared words",
					p, k+1, c, w, nbrs.Load(), nf, shared.Load())
			}
		}
	}
}

// TestParCopiesAgreeInRankOrder: ApplyFields leaves every copy of a shared
// node with the same bits on every rank, and that value is the fold of the
// holders' locally combined contributions in ascending rank order, for every
// op over two fields of random per-copy data. Each mesh has vertices shared
// by three or more ranks: a 4×2 box on P = 3 (one vertex of three ranks), an
// 8×4 box in 2×2 blocks on P = 8 (three of four), and the 16×4 channel,
// periodic in x, one element per rank on P = 64, ranks dealt out of element
// order. A rank that folded its own value first and its neighbours' after it
// summed such a node in another order than its neighbours did.
func TestParCopiesAgreeInRankOrder(t *testing.T) {
	const nf = 2
	cases := []struct {
		name  string
		spec  mesh.Box2DSpec
		p     int
		owner func(ix, iy int) int
	}{
		{"4x2 box", mesh.Box2DSpec{Nx: 4, Ny: 2, X1: 4, Y1: 2}, 3, func(ix, iy int) int {
			if iy == 1 {
				return 2
			}
			return ix / 2
		}},
		{"8x4 box", mesh.Box2DSpec{Nx: 8, Ny: 4, X1: 8, Y1: 4}, 8, func(ix, iy int) int { return iy/2*4 + ix/2 }},
		{"16x4 channel", mesh.Box2DSpec{Nx: 16, Ny: 4, X1: 2 * math.Pi, Y0: -1, Y1: 1, PeriodicX: true}, 64,
			func(ix, iy int) int { return 7 * (iy*16 + ix) % 64 }},
	}
	for _, c := range cases {
		m, err := mesh.Discretize(mesh.Box2D(c.spec), 3)
		if err != nil {
			t.Fatal(err)
		}
		// Each rank's local vector: its elements' nodes, in element order.
		gids := make([][]int64, c.p)
		for e := 0; e < m.K; e++ {
			r := c.owner(e%c.spec.Nx, e/c.spec.Nx)
			gids[r] = append(gids[r], m.GID[e*m.Np:(e+1)*m.Np]...)
		}
		holders := map[int64]map[int]bool{}
		for r, gs := range gids {
			for _, g := range gs {
				if holders[g] == nil {
					holders[g] = map[int]bool{}
				}
				holders[g][r] = true
			}
		}
		most := 0
		for _, hs := range holders {
			most = max(most, len(hs))
		}
		if most < 3 {
			t.Fatalf("%s: no node is shared by three ranks", c.name)
		}
		rng := rand.New(rand.NewSource(int64(c.p)))
		in := make([][][]float64, c.p) // rank -> field -> local values
		for r, gs := range gids {
			in[r] = make([][]float64, nf)
			for f := range in[r] {
				in[r][f] = make([]float64, len(gs))
				for i := range gs { // twelve decades: any other order shows
					in[r][f][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
				}
			}
		}
		// The reference: each rank's local combine, then the holders'
		// results folded from the lowest rank up.
		want := make([]map[int64]float64, nf)
		for f := range want {
			want[f] = map[int64]float64{}
		}
		for r, gs := range gids {
			loc := make([][]float64, nf)
			for f := range loc {
				loc[f] = append([]float64(nil), in[r][f]...)
			}
			Init(gs).ApplyFields(Sum, loc...)
			seen := map[int64]bool{}
			for i, g := range gs {
				if seen[g] {
					continue
				}
				seen[g] = true
				for f := range want {
					if acc, ok := want[f][g]; ok {
						want[f][g] = acc + loc[f][i]
					} else {
						want[f][g] = loc[f][i]
					}
				}
			}
		}
		net := comm.NewNetwork(comm.Machine{P: c.p, Latency: 1e-6, ByteSec: 1e-9, MMFlopSec: 1e-9, VecFlopSec: 1e-9})
		net.Run(func(r *comm.Rank) { ParInit(r, gids[r.ID]).ApplyFields(Sum, in[r.ID]...) })
		// Every copy against the first one met, then against the fold.
		var split, off int
		for f := 0; f < nf; f++ {
			first := map[int64]float64{}
			for r, gs := range gids {
				for i, g := range gs {
					got := in[r][f][i]
					if v, ok := first[g]; !ok {
						first[g] = got
					} else if math.Float64bits(v) != math.Float64bits(got) {
						split++
					}
					if math.Float64bits(got) != math.Float64bits(want[f][g]) {
						off++
					}
				}
			}
		}
		if split > 0 || off > 0 {
			t.Errorf("%s, P=%d: %d copies differ from another copy of their node, %d from the rank-order fold",
				c.name, c.p, split, off)
		}
	}
}
