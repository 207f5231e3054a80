package comm

import (
	"fmt"
	"math/bits"
	"slices"
)

// Record is one payload of a route. Rank is its destination when it is
// handed to Route and its source when Route delivers it.
type Record struct {
	Rank int
	Data []float64
}

// Route delivers every rank's records, the third call of the rendezvous
// beside the allreduce and the exchange: a personalised all-to-all in which
// a rank may send any number of records to any rank, itself included. Every
// rank must call it, and receives the records sent to it grouped by source
// in ascending rank order, each source's in the order it sent them. The
// delivered Data are the senders' slices, and neither side may modify them.
//
// The last rank to arrive replays the crystal router (Fox et al., Solving
// Problems on Concurrent Processors, 1988): on P = 2^k ranks, at stage l
// every rank r sends one message to r XOR 2^l holding every record it holds
// whose destination differs from r in bit l, so each rank sends k messages
// and a record moves at most k times. On other P the ranks from the largest
// power of two below P up first hand their records to the rank that many
// below them, and get theirs back from it at the end. A message carries,
// per record, its destination, source and length beside its data; every
// message is clocked, counted, fault-drawn and traced as a Send would be.
func (r *Rank) Route(out []Record) []Record {
	c := &r.net.coll
	r.meet(call{kind: routeCall, records: out})
	in := c.routed[r.ID]
	c.routed[r.ID] = nil
	return in
}

// routed is one record of a route: its destination, source and data.
type routed struct {
	to, from int
	data     []float64
}

// labelRoute labels a route's messages in traces and loss panics: plus the
// stage, or plus 64 for the fold onto the lower ranks and 65 for the
// unfold.
const labelRoute = 1 << 22

// router is the replay's state: every record of the call, in order of
// source and then of sending, and which rank holds each. A rank's records
// are indices into recs, so delivering them in order is sorting them.
type router struct {
	recs  []routed
	held  [][]int32 // by rank: the records it holds
	spare [][]int32 // by rank: the next held list, built in reused storage
}

// route replays the deposited route and leaves each rank's delivery in
// coll.routed.
func (n *Network) route() {
	p, c := n.P, &n.coll
	rt := router{held: make([][]int32, p), spare: make([][]int32, p)}
	total := 0
	for _, cl := range c.calls {
		total += len(cl.records)
	}
	rt.recs = make([]routed, 0, total)
	for q, cl := range c.calls {
		rt.held[q] = make([]int32, 0, len(cl.records))
		for _, rec := range cl.records {
			if rec.Rank < 0 || rec.Rank >= p {
				panic(fmt.Sprintf("comm: rank %d routes a record to rank %d of %d", q, rec.Rank, p))
			}
			rt.held[q] = append(rt.held[q], int32(len(rt.recs)))
			rt.recs = append(rt.recs, routed{rec.Rank, q, rec.Data})
		}
	}
	// A record moves from a to b when its destination d has d&mask ==
	// want: every record (mask 0) in the fold, those on b's side of the
	// stage's bit in a stage, and those for b (mask all ones) in the unfold.
	lo := 1 << (bits.Len(uint(p)) - 1) // the largest power of two ≤ P
	for t := lo; t < p; t++ {
		rt.pass(n, t, t-lo, labelRoute+64, 0, 0)
	}
	for bit := 1; bit < lo; bit <<= 1 {
		tag := labelRoute + bits.TrailingZeros(uint(bit))
		for a := range lo {
			b := a ^ bit
			if b < a {
				continue
			}
			wa, wb := rt.words(a, bit, b&bit), rt.words(b, bit, a&bit)
			ta, fa := n.ranks[a].post(b, tag, wa)
			tb, fb := n.ranks[b].post(a, tag, wb)
			n.ranks[a].land(b, tag, wb, tb, fb)
			n.ranks[b].land(a, tag, wa, ta, fa)
			rt.swap(a, b, bit)
		}
	}
	for t := lo; t < p; t++ {
		rt.pass(n, t-lo, t, labelRoute+65, -1, t)
	}
	for q, list := range rt.held {
		slices.Sort(list)
		in := make([]Record, len(list))
		for k, i := range list {
			in[k] = Record{rt.recs[i].from, rt.recs[i].data}
		}
		c.routed[q] = in
	}
}

// words returns the size of the message carrying the records rank q holds
// whose destination d has d&mask == want.
func (rt *router) words(q, mask, want int) int {
	w := 0
	for _, i := range rt.held[q] {
		if rec := &rt.recs[i]; rec.to&mask == want {
			w += 3 + len(rec.data)
		}
	}
	return w
}

// pass sends one message from rank a to rank b carrying the records a
// holds whose destination d has d&mask == want, and moves them.
func (rt *router) pass(n *Network, a, b, tag, mask, want int) {
	w := rt.words(a, mask, want)
	t, f := n.ranks[a].post(b, tag, w)
	n.ranks[b].land(a, tag, w, t, f)
	keep := rt.spare[a][:0]
	for _, i := range rt.held[a] {
		if rt.recs[i].to&mask == want {
			rt.held[b] = append(rt.held[b], i)
		} else {
			keep = append(keep, i)
		}
	}
	rt.held[a], rt.spare[a] = keep, rt.held[a]
}

// swap trades the records of ranks a and b, which differ in bit: each ends
// on the rank whose bit its destination shares.
func (rt *router) swap(a, b, bit int) {
	na, nb := rt.spare[a][:0], rt.spare[b][:0]
	for _, list := range [2][]int32{rt.held[a], rt.held[b]} {
		for _, i := range list {
			if rt.recs[i].to&bit == b&bit {
				nb = append(nb, i)
			} else {
				na = append(na, i)
			}
		}
	}
	rt.held[a], rt.spare[a] = na, rt.held[a]
	rt.held[b], rt.spare[b] = nb, rt.held[b]
}
