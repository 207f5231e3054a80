// Package gs implements the gather–scatter utility of Sec. 6 of the paper
// (Tufo's gs_init / gs_op): the direct-stiffness residual assembly of the
// spectral element method as a single local-to-local transformation, in
// which nodal values shared by adjacent elements are combined in place with
// a commutative/associative operation (sum, min, max, mul) and written back
// to every copy. A vector mode applies the same topology to several fields
// at once. The serial Handle backs the shared-memory solvers; ParHandle
// runs the same operation across ranks of a comm network via pairwise
// neighbour exchange.
package gs

import (
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/instrument"
)

// Op is the reduction applied to shared nodal values.
type Op int

// Supported reductions.
const (
	Sum Op = iota
	Mul
	Min
	Max
)

func combine(op Op, a, b float64) float64 {
	switch op {
	case Sum:
		return a + b
	case Mul:
		return a * b
	case Min:
		if b < a {
			return b
		}
		return a
	case Max:
		if b > a {
			return b
		}
		return a
	}
	return a
}

// Handle is the serial gather–scatter operator for one connectivity.
type Handle struct {
	n      int
	groups [][]int32 // local indices sharing one global id (multiplicity > 1 only)
}

// Init builds a handle from the per-local-node global ids (the
// "global-node-numbers" argument of the paper's gs-init). Groups are
// ordered by their smallest local index and indices within a group ascend,
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
		if len(idxs) > 1 {
			h.groups = append(h.groups, idxs)
		}
	}
	return h
}

// Apply performs the gather–scatter on u in place: each group of local
// copies of a shared node is reduced with op and the result written back to
// all copies (the paper's gs-op).
func (h *Handle) Apply(u []float64, op Op) {
	for _, g := range h.groups {
		acc := u[g[0]]
		for _, i := range g[1:] {
			acc = combine(op, acc, u[i])
		}
		for _, i := range g {
			u[i] = acc
		}
	}
}

// ApplyFields is the vector mode: the same exchange applied to several
// fields (e.g. the d velocity components) in one pass over the topology.
func (h *Handle) ApplyFields(op Op, fields ...[]float64) {
	for _, g := range h.groups {
		for _, u := range fields {
			acc := u[g[0]]
			for _, i := range g[1:] {
				acc = combine(op, acc, u[i])
			}
			for _, i := range g {
				u[i] = acc
			}
		}
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
// exchanged pairwise with each neighbour, exactly the paper's single
// communication phase.
type ParHandle struct {
	local *Handle
	rank  *comm.Rank
	// For each neighbour rank: the shared global ids (sorted) plus the
	// precomputed gather/accumulate indices the steady-state Apply uses.
	neighbours []neighbour
	fromRanks  []int       // neighbour ranks, ascending (the RecvEach sources)
	recvBufs   [][]float64 // RecvEach destination scratch (pooled payloads)

	// Flat accumulator replacing the per-call map: every distinct shared
	// gid owns one slot. slotRep seeds the slot from the locally combined
	// value; the write-back scatters slot s to the local indices
	// slotLoc[slotPtr[s]:slotPtr[s+1]].
	slotVal []float64
	slotRep []int32
	slotPtr []int32
	slotLoc []int32

	// Exchange-volume instrumentation (nil = off): messages and 8-byte
	// words sent per Apply, plus the virtual time each exchange spans
	// (which a fault plan inflates: retries and stragglers land here).
	exchMsgs  *instrument.Counter
	exchWords *instrument.Counter
	exchVTime *instrument.Timer
	exchVHist *instrument.Histogram // per-Apply virtual time, all ranks merged
	tracer    *instrument.Tracer
}

type neighbour struct {
	rank    int
	gids    []int64   // sorted shared gids
	sendIdx []int32   // per gid: representative local index to gather from
	sendBuf []float64 // preallocated outgoing payload
	slotIdx []int32   // per gid: accumulator slot the reply folds into
}

const (
	tagSetupToOwner = 1000
	tagSetupFromOwn = 2000
	tagExchange     = 3000
)

// ParInit builds a distributed handle. Every rank calls it collectively
// with its local global ids. Neighbour discovery routes through hashed
// "owner" ranks (setup only); the recurring exchange is pairwise.
func ParInit(r *comm.Rank, gids []int64) *ParHandle {
	p := r.P()
	h := &ParHandle{local: Init(gids), rank: r}
	// Setup-only lookup tables; the steady-state Apply uses the flat index
	// arrays built at the end instead.
	repIdx := make(map[int64]int32, len(gids))
	allIdx := make(map[int64][]int32, len(gids))
	for i, g := range gids {
		if _, ok := repIdx[g]; !ok {
			repIdx[g] = int32(i)
		}
		allIdx[g] = append(allIdx[g], int32(i))
	}
	if p == 1 {
		return h
	}
	owner := func(g int64) int { return int(g % int64(p)) }
	// 1. Tell each owner which of its gids we hold (iterating gids, not the
	// map, so setup messages are deterministic).
	toOwner := make([][]float64, p)
	for i, g := range gids {
		if repIdx[g] != int32(i) {
			continue // not the first occurrence
		}
		o := owner(g)
		toOwner[o] = append(toOwner[o], float64(g))
	}
	for q := 0; q < p; q++ {
		if q == r.ID {
			continue
		}
		r.Send(q, tagSetupToOwner, toOwner[q])
	}
	holders := make(map[int64][]int) // for gids owned here
	record := func(src int, list []float64) {
		for _, gf := range list {
			g := int64(gf)
			holders[g] = append(holders[g], src)
		}
	}
	record(r.ID, toOwner[r.ID])
	for q := 0; q < p; q++ {
		if q == r.ID {
			continue
		}
		lst := r.Recv(q, tagSetupToOwner)
		record(q, lst)
		r.Free(lst)
	}
	// 2. Owners answer every holder with (gid, holder list) for shared gids.
	reply := make([][]float64, p)
	for g, hs := range holders {
		if len(hs) < 2 {
			continue
		}
		for _, dst := range hs {
			msg := []float64{float64(g), float64(len(hs))}
			for _, other := range hs {
				if other != dst {
					msg = append(msg, float64(other))
				}
			}
			reply[dst] = append(reply[dst], msg...)
		}
	}
	for q := 0; q < p; q++ {
		if q == r.ID {
			continue
		}
		r.Send(q, tagSetupFromOwn, reply[q])
	}
	shared := make(map[int][]int64) // neighbour rank -> shared gids
	parse := func(list []float64) {
		for i := 0; i < len(list); {
			g := int64(list[i])
			cnt := int(list[i+1])
			for k := 0; k < cnt-1; k++ {
				q := int(list[i+2+k])
				shared[q] = append(shared[q], g)
			}
			i += 1 + cnt
		}
	}
	parse(reply[r.ID])
	for q := 0; q < p; q++ {
		if q == r.ID {
			continue
		}
		lst := r.Recv(q, tagSetupFromOwn)
		parse(lst)
		r.Free(lst)
	}
	for q, gs := range shared {
		slices.Sort(gs)
		h.neighbours = append(h.neighbours, neighbour{rank: q, gids: gs})
	}
	// Deterministic neighbour order.
	slices.SortFunc(h.neighbours, func(a, b neighbour) int { return a.rank - b.rank })

	// Precompute the steady-state exchange: gather indices and payload
	// buffers per neighbour, and one accumulator slot per distinct shared
	// gid. Slots are assigned on first appearance in neighbour order; the
	// fold itself always runs in neighbour order seeded from the
	// representative copy, so the floating-point combine order — and with it
	// every assembled value — is exactly the sequential formulation's.
	slotOf := make(map[int64]int32)
	var sharedGids []int64
	for ni := range h.neighbours {
		nb := &h.neighbours[ni]
		nb.sendIdx = make([]int32, len(nb.gids))
		nb.sendBuf = make([]float64, len(nb.gids))
		nb.slotIdx = make([]int32, len(nb.gids))
		for i, g := range nb.gids {
			nb.sendIdx[i] = repIdx[g]
			s, ok := slotOf[g]
			if !ok {
				s = int32(len(sharedGids))
				slotOf[g] = s
				sharedGids = append(sharedGids, g)
			}
			nb.slotIdx[i] = s
		}
		h.fromRanks = append(h.fromRanks, nb.rank)
	}
	h.recvBufs = make([][]float64, len(h.neighbours))
	h.slotVal = make([]float64, len(sharedGids))
	h.slotRep = make([]int32, len(sharedGids))
	h.slotPtr = make([]int32, len(sharedGids)+1)
	for s, g := range sharedGids {
		h.slotRep[s] = repIdx[g]
		h.slotPtr[s+1] = h.slotPtr[s] + int32(len(allIdx[g]))
	}
	h.slotLoc = make([]int32, h.slotPtr[len(sharedGids)])
	for s, g := range sharedGids {
		copy(h.slotLoc[h.slotPtr[s]:], allIdx[g])
	}
	return h
}

// Attach wires exchange-volume counters (messages and words sent per
// Apply) into reg; a nil registry detaches.
func (h *ParHandle) Attach(reg *instrument.Registry) {
	h.exchMsgs = reg.Counter("gs/exchange.msgs")
	h.exchWords = reg.Counter("gs/exchange.words")
	h.exchVTime = reg.Timer("gs/exchange.vtime")
	h.exchVHist = reg.Histogram("gs/exchange.vtime.hist")
}

// AttachTracer makes every Apply emit a virtual-clock span on the owning
// rank's track covering the neighbour exchange; nil detaches.
func (h *ParHandle) AttachTracer(tr *instrument.Tracer) { h.tracer = tr }

// Apply performs the distributed gather–scatter on the local vector u.
// The steady-state exchange is allocation-free: payloads gather into
// buffers preallocated by ParInit, all sends post before any receive is
// waited on, and RecvEach consumes replies in arrival order — a slow
// neighbour never blocks the pickup of a fast one — while the fold into
// the fixed slot accumulators runs in neighbour order, keeping every
// assembled value bitwise identical to the sequential formulation.
func (h *ParHandle) Apply(u []float64, op Op) {
	// Local combine first.
	h.local.Apply(u, op)
	if len(h.neighbours) == 0 {
		return
	}
	t0 := h.rank.Time
	var words int
	// Pairwise exchange: send my combined value for each shared gid.
	for ni := range h.neighbours {
		nb := &h.neighbours[ni]
		for i, idx := range nb.sendIdx {
			nb.sendBuf[i] = u[idx]
		}
		h.rank.Send(nb.rank, tagExchange, nb.sendBuf)
		h.exchMsgs.Inc()
		h.exchWords.Add(int64(len(nb.sendBuf)))
		words += len(nb.sendBuf)
	}
	h.rank.RecvEach(h.fromRanks, tagExchange, h.recvBufs)
	// Accumulate neighbour contributions on top of the local combined
	// values (op is commutative/associative, so pairwise folding is exact
	// in the same sense as the paper's implementation).
	for s, idx := range h.slotRep {
		h.slotVal[s] = u[idx]
	}
	for ni := range h.neighbours {
		nb := &h.neighbours[ni]
		got := h.recvBufs[ni]
		for i, s := range nb.slotIdx {
			h.slotVal[s] = combine(op, h.slotVal[s], got[i])
		}
		h.rank.Free(got)
		h.recvBufs[ni] = nil
	}
	for s, v := range h.slotVal {
		for t := h.slotPtr[s]; t < h.slotPtr[s+1]; t++ {
			u[h.slotLoc[t]] = v
		}
	}
	if h.tracer.WantsV(h.rank.ID) {
		h.tracer.SpanV(h.rank.ID, "gs/exchange", "gs", t0, h.rank.Time,
			map[string]any{"neighbours": len(h.neighbours), "words": words})
	}
	h.exchVTime.Add(time.Duration((h.rank.Time - t0) * float64(time.Second)))
	h.exchVHist.Observe(h.rank.Time - t0)
}
