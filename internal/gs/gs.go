// Package gs implements the gather–scatter utility of Sec. 6 of the paper
// (Tufo's gs_init / gs_op): the direct-stiffness residual assembly of the
// spectral element method as a single local-to-local transformation, in
// which nodal values shared by adjacent elements are summed in place and the
// sum written back to every copy. A vector mode applies the same topology to
// several fields at once; across ranks it is one message per neighbour per
// call, whatever the number of fields. The serial Handle backs the
// shared-memory solvers; ParHandle runs the same operation across ranks of a
// comm network as one neighbour exchange (comm.Exchange: a message to and
// from each neighbour, replayed at one rendezvous of the ranks), folding each
// shared value's per-rank contributions in ascending rank order, so every
// copy of a node has the same bits on every rank, one field or several. A
// ParHandle records its exchanges in the registry and on the tracer of the
// rank it is built on.
package gs

import (
	"cmp"
	"slices"

	"repro/internal/comm"
	"repro/internal/instrument"
)

// Op names the reduction applied to shared nodal values. Sum, direct
// stiffness summation, is the only one: every assembly of the step is a sum.
type Op int

// Sum adds the copies of a shared node.
const Sum Op = 0

// Handle is the serial gather–scatter operator for one connectivity. Most
// shared nodes of a mesh have exactly two copies (a face interior), so those
// are one flat run of index pairs, walked without a slice header per node;
// the nodes with more copies (edges, vertices) keep a group each.
type Handle struct {
	n      int
	pairs  []int32   // (i, j), i < j: the two local copies of a node of multiplicity 2
	groups [][]int32 // local indices sharing one global id (multiplicity > 2)
}

// Init builds a handle from the per-local-node global ids (the
// "global-node-numbers" argument of the paper's gs-init). Pairs and groups
// are ordered by their smallest local index and indices within each ascend,
// so the floating-point assembly order — and therefore every assembled
// sum — is identical run to run (a map-ordered build would randomize it).
func Init(gids []int64) *Handle {
	slot := make(map[int64]int, len(gids))
	groups := make([][]int32, 0, len(gids))
	for i, g := range gids {
		if j, ok := slot[g]; ok {
			groups[j] = append(groups[j], int32(i))
		} else {
			slot[g] = len(groups)
			groups = append(groups, []int32{int32(i)})
		}
	}
	h := &Handle{n: len(gids)}
	for _, idxs := range groups {
		switch {
		case len(idxs) == 2:
			h.pairs = append(h.pairs, idxs...)
		case len(idxs) > 2:
			h.groups = append(h.groups, idxs)
		}
	}
	return h
}

// copiesOf groups the local nodes by global id: ids[k], ascending, has the
// local copies local[at[k]:at[k+1]], ascending.
func copiesOf(gids []int64) (ids []int64, local, at []int32) {
	local = make([]int32, len(gids))
	for i := range local {
		local[i] = int32(i)
	}
	slices.SortFunc(local, func(a, b int32) int { return cmp.Or(cmp.Compare(gids[a], gids[b]), cmp.Compare(a, b)) })
	ids = make([]int64, 0, len(gids))
	at = make([]int32, 0, len(gids)+1)
	for k, i := range local {
		if k == 0 || gids[i] != gids[local[k-1]] {
			ids = append(ids, gids[i])
			at = append(at, int32(k))
		}
	}
	return ids, local, append(at, int32(len(local)))
}

// Apply performs the gather–scatter on u in place: the local copies of each
// shared node are summed, in ascending index order, and the sum written back
// to all copies (the paper's gs-op). op is Sum.
func (h *Handle) Apply(u []float64, op Op) {
	p := h.pairs
	for k := 0; k+1 < len(p); k += 2 {
		i, j := p[k], p[k+1]
		s := u[i] + u[j]
		u[i], u[j] = s, s
	}
	for _, g := range h.groups {
		acc := u[g[0]]
		for _, i := range g[1:] {
			acc += u[i]
		}
		for _, i := range g {
			u[i] = acc
		}
	}
}

// ApplyFields is the vector mode: the same exchange applied to several
// fields (e.g. the d velocity components). In shared memory there is nothing
// to batch, so it is Apply on each field in turn, which keeps each field's
// groups in cache while they are combined.
func (h *Handle) ApplyFields(op Op, fields ...[]float64) {
	for _, u := range fields {
		h.Apply(u, op)
	}
}

// Multiplicity returns, per local node, the number of local copies sharing
// its global id (the inverse of this vector converts assembled sums to
// averages, and weights an element-local inner product so that each global
// node counts once). Each call returns a fresh slice.
func (h *Handle) Multiplicity() []float64 {
	m := make([]float64, h.n)
	for i := range m {
		m[i] = 1
	}
	h.Apply(m, Sum)
	return m
}

// ---- Distributed gather–scatter ----

// ParHandle runs the gather–scatter across ranks: local groups are combined
// first, then contributions for globals shared with other ranks are
// exchanged with each neighbour, exactly the paper's single communication
// phase — for one field (Apply) or several (ApplyFields).
type ParHandle struct {
	local *Handle
	rank  *comm.Rank
	// For each neighbour rank, ascending: the shared global ids (sorted)
	// plus the precomputed gather/accumulate indices the steady-state Apply
	// uses.
	neighbours []neighbour

	// below counts the neighbours of lower rank: they are neighbours[:below],
	// and the rank's own contribution folds in after them.
	below int

	// x is the rank's side of the exchange (nil on a one-rank network):
	// x.Out[i] is the payload for neighbours[i], one run of len(gids)
	// words per field. fields holds the fields of the call in progress, for
	// the fold.
	x      *comm.Exchange
	fields [][]float64

	// Flat accumulator replacing the per-call map: every distinct shared
	// gid owns one slot per field (field f's slots are the f-th run of
	// len(slotRep) values of slotVal). slotRep is the local index of the
	// rank's own, locally combined, contribution; the write-back scatters
	// slot s to the local indices slotLoc[slotPtr[s]:slotPtr[s+1]].
	slotVal []float64
	slotRep []int32
	slotPtr []int32
	slotLoc []int32

	// Exchange-volume instrumentation, from the rank's registry and tracer
	// (nil = off): messages and 8-byte words sent per exchange, plus the
	// virtual time each exchange spans (which a fault plan inflates: retries
	// and stragglers land here), summed per rank and as a distribution.
	exchMsgs  *instrument.Counter
	exchWords *instrument.Counter
	exchVTime instrument.VTime
	tracer    *instrument.Tracer
}

type neighbour struct {
	rank    int
	gids    []int64 // sorted shared gids
	sendIdx []int32 // per gid: representative local index to gather from
	slotIdx []int32 // per gid: accumulator slot the reply folds into
}

const tagExchange = 3000

// ParInit builds a distributed handle. Every rank calls it collectively
// with its local global ids. Neighbour discovery goes through each gid's
// "owner" rank (gid mod P) in two routes of the ranks (comm.Rank.Route, a
// crystal router: ⌈log₂P⌉ messages or fewer per rank each) — the holders
// tell the owners, and the owners tell each holder the others — at set-up
// only; the recurring exchange is with the neighbours alone. Every exchange
// (one per Apply or ApplyFields call) counts its messages and words and
// records its virtual time in the rank's registry, and emits a span on the
// rank's track of its tracer.
func ParInit(r *comm.Rank, gids []int64) *ParHandle {
	p := r.P()
	reg := r.Registry()
	h := &ParHandle{local: Init(gids), rank: r,
		exchMsgs: reg.Counter("gs/exchange.msgs"), exchWords: reg.Counter("gs/exchange.words"),
		exchVTime: reg.VTime("gs/exchange"), tracer: r.Tracer()}
	if p == 1 {
		return h
	}
	// The rank's distinct gids, ascending: held[k]'s local copies are
	// local[at[k]:at[k+1]], ascending, the first its representative. These
	// set-up tables give way to the flat index arrays built at the end.
	held, local, at := copiesOf(gids)
	// 1. Tell each owner (gid mod P) which of its gids we hold.
	owner := func(g int64) int { return int(g % int64(p)) }
	byOwner := slices.Clone(held)
	slices.SortStableFunc(byOwner, func(a, b int64) int { return owner(a) - owner(b) })
	toOwner := newBatch(len(held), len(held))
	for _, g := range byOwner {
		toOwner.add(owner(g), float64(g))
	}
	// The owner's side: every (gid, holder) of the gids it owns, by gid, each
	// gid's holders ascending (as the route delivers them).
	var holds []holding
	for _, rec := range r.Route(toOwner.records()) {
		for _, g := range rec.Data {
			holds = append(holds, holding{int64(g), rec.Rank})
		}
	}
	slices.SortStableFunc(holds, func(a, b holding) int { return cmp.Compare(a.g, b.g) })
	// 2. Owners answer every holder of a shared gid with (gid, holder count,
	// the other holders), by holder and then by gid.
	type ask struct{ at, lo, hi int } // holds[at] asks; holds[lo:hi] hold its gid
	asks := make([]ask, 0, len(holds))
	for lo, hi := 0, 0; lo < len(holds); lo = hi {
		for hi = lo + 1; hi < len(holds) && holds[hi].g == holds[lo].g; hi++ {
		}
		if hi-lo < 2 {
			continue // held by one rank only
		}
		for k := lo; k < hi; k++ {
			asks = append(asks, ask{k, lo, hi})
		}
	}
	slices.SortStableFunc(asks, func(a, b ask) int { return holds[a.at].rank - holds[b.at].rank })
	words := 0
	for _, a := range asks {
		words += 1 + a.hi - a.lo
	}
	reply := newBatch(len(asks), words)
	for _, a := range asks {
		dst := holds[a.at].rank
		reply.add(dst, float64(holds[a.lo].g), float64(a.hi-a.lo))
		for _, o := range holds[a.lo:a.hi] {
			if o.rank != dst {
				reply.add(dst, float64(o.rank))
			}
		}
	}
	// The rank's side: every (gid, neighbour) it shares, by neighbour rank
	// (the order every rank folds a shared value in) and then by gid.
	var shares []holding
	for _, rec := range r.Route(reply.records()) {
		list := rec.Data
		for i := 0; i < len(list); {
			g, cnt := int64(list[i]), int(list[i+1])
			for _, q := range list[i+2 : i+1+cnt] {
				shares = append(shares, holding{g, int(q)})
			}
			i += 1 + cnt
		}
	}
	slices.SortFunc(shares, func(a, b holding) int { return cmp.Or(a.rank-b.rank, cmp.Compare(a.g, b.g)) })
	flat := make([]int64, len(shares))
	for lo, hi := 0, 0; lo < len(shares); lo = hi {
		for hi = lo; hi < len(shares) && shares[hi].rank == shares[lo].rank; hi++ {
			flat[hi] = shares[hi].g
		}
		h.neighbours = append(h.neighbours, neighbour{rank: shares[lo].rank, gids: flat[lo:hi:hi]})
	}
	peers := make([]int, len(h.neighbours))
	for i, nb := range h.neighbours {
		peers[i] = nb.rank
		if nb.rank < r.ID {
			h.below++
		}
	}
	h.x = r.NewExchange(peers, tagExchange, h.fold)

	// Precompute the steady-state exchange: gather indices per neighbour,
	// and one accumulator slot per distinct shared gid, assigned on first
	// appearance in neighbour order.
	slot := make([]int32, len(held))  // by gid of held: its slot + 1, 0 for none yet
	runs := make([]int, 0, len(held)) // by slot: its gid's place in held
	for ni := range h.neighbours {
		nb := &h.neighbours[ni]
		nb.sendIdx = make([]int32, len(nb.gids))
		nb.slotIdx = make([]int32, len(nb.gids))
		for i, g := range nb.gids {
			k, _ := slices.BinarySearch(held, g)
			if slot[k] == 0 {
				runs = append(runs, k)
				slot[k] = int32(len(runs))
			}
			nb.sendIdx[i] = local[at[k]]
			nb.slotIdx[i] = slot[k] - 1
		}
	}
	h.slotRep = make([]int32, len(runs))
	h.slotPtr = make([]int32, len(runs)+1)
	for s, k := range runs {
		h.slotRep[s] = local[at[k]]
		h.slotPtr[s+1] = h.slotPtr[s] + at[k+1] - at[k]
	}
	h.slotLoc = make([]int32, h.slotPtr[len(runs)])
	for s, k := range runs {
		copy(h.slotLoc[h.slotPtr[s]:], local[at[k]:at[k+1]])
	}
	return h
}

// Apply performs the distributed gather–scatter on the local vector u:
// ApplyFields on one field.
func (h *ParHandle) Apply(u []float64, op Op) { h.ApplyFields(op, u) }

// ApplyFields is the vector mode across ranks: every field is assembled with
// the same topology in one communication phase, one message per neighbour
// carrying each field's shared words in turn. Each shared value is summed
// from +0 over its holders' locally combined contributions in
// ascending rank order — the lower-ranked neighbours', the rank's own, then
// the higher-ranked neighbours' — and every holder knows the same holders, so
// every copy of a node ends with the same bits on every rank, and each field
// bitwise as Apply on it alone leaves it. Every rank of a multi-rank network
// takes part in every call, a rank without neighbours too. The steady-state
// exchange is allocation-free: payloads gather into per-neighbour buffers,
// and fold into slot accumulators, that grow only when a call carries more
// fields than any before it.
func (h *ParHandle) ApplyFields(op Op, fields ...[]float64) {
	// Local combine first.
	h.local.ApplyFields(op, fields...)
	if h.x == nil {
		return
	}
	t0 := h.rank.Time
	nf := len(fields)
	var words int
	// Gather my combined value for each shared gid, field after field.
	for ni := range h.neighbours {
		nb := &h.neighbours[ni]
		m := len(nb.sendIdx)
		buf := grow(&h.x.Out[ni], nf*m)
		for f, u := range fields {
			out := buf[f*m : (f+1)*m]
			for i, idx := range nb.sendIdx {
				out[i] = u[idx]
			}
		}
		h.exchMsgs.Inc()
		h.exchWords.Add(int64(len(buf)))
		words += len(buf)
	}
	h.fields = append(h.fields[:0], fields...)
	h.rank.Exchange(h.x, nf)
	clear(h.fields)
	ns := len(h.slotRep)
	for f, u := range fields {
		sv := h.slotVal[f*ns : (f+1)*ns]
		for s, v := range sv {
			for t := h.slotPtr[s]; t < h.slotPtr[s+1]; t++ {
				u[h.slotLoc[t]] = v
			}
		}
	}
	if len(h.neighbours) == 0 {
		return
	}
	if h.tracer.WantsV(h.rank.ID) {
		h.tracer.SpanV(h.rank.ID, "gs/exchange", "gs", t0, h.rank.Time,
			map[string]any{"neighbours": len(h.neighbours), "words": words})
	}
	h.exchVTime.Record(h.rank.Time - t0)
}

// fold sums the call's shared values into the slot accumulators (one run of
// len(slotRep) per field), from +0 in ascending rank order: in[i] is
// neighbours[i]'s message. It runs at the exchange's rendezvous, on the
// network's driver, which replays it.
func (h *ParHandle) fold(in [][]float64) {
	nf, ns := len(h.fields), len(h.slotRep)
	vals := grow(&h.slotVal, nf*ns)
	clear(vals)
	add(vals, h.neighbours[:h.below], in[:h.below], nf, ns)
	for f, u := range h.fields {
		sv := vals[f*ns : (f+1)*ns]
		for s, idx := range h.slotRep {
			sv[s] += u[idx]
		}
	}
	add(vals, h.neighbours[h.below:], in[h.below:], nf, ns)
}

// add adds each of nbs' messages in turn into the slot accumulators vals
// (nf fields of ns slots).
func add(vals []float64, nbs []neighbour, in [][]float64, nf, ns int) {
	for ni := range nbs {
		idx, got := nbs[ni].slotIdx, in[ni]
		m := len(idx)
		for f := 0; f < nf; f++ {
			sv, w := vals[f*ns:(f+1)*ns], got[f*m:(f+1)*m]
			for i, s := range idx {
				sv[s] += w[i]
			}
		}
	}
}

// grow returns (*buf)[:n], reallocating *buf when it is shorter.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// holding is one holder of one gid.
type holding struct {
	g    int64
	rank int
}

// batch builds a route's records in one buffer, from words added grouped by
// destination: each run of one destination is one record.
type batch struct {
	recs  []comm.Record
	start []int // by record: where its words begin in words
	words []float64
}

func newBatch(recs, words int) batch {
	return batch{recs: make([]comm.Record, 0, recs), start: make([]int, 0, recs), words: make([]float64, 0, words)}
}

// add appends words to the record for rank to, which is the last record
// added to or a new one.
func (b *batch) add(to int, words ...float64) {
	if n := len(b.recs); n == 0 || b.recs[n-1].Rank != to {
		b.recs = append(b.recs, comm.Record{Rank: to})
		b.start = append(b.start, len(b.words))
	}
	b.words = append(b.words, words...)
}

// records returns the records, each Data its run of the buffer.
func (b *batch) records() []comm.Record {
	for i := range b.recs {
		end := len(b.words)
		if i+1 < len(b.recs) {
			end = b.start[i+1]
		}
		b.recs[i].Data = b.words[b.start[i]:end:end]
	}
	return b.recs
}
