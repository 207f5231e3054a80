package comm

import (
	"fmt"
	"math/bits"
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
// The driver replays the crystal router (Fox et al., Solving
// Problems on Concurrent Processors, 1988): on P = 2^k ranks, at stage l
// every rank r sends one message to r XOR 2^l holding every record it holds
// whose destination differs from r in bit l, so each rank sends k messages
// and a record moves at most k times. On other P the ranks from the largest
// power of two below P up first hand their records to the rank that many
// below them, and get theirs back from it at the end. A message carries,
// per record, its destination, source and length beside its data; every
// message is clocked, counted, fault-drawn and traced as a Send would be.
// The replay hands each record to its destination once and sizes each
// message from the records that cross it.
func (r *Rank) Route(out []Record) []Record {
	c := &r.net.coll
	r.meet(call{kind: routeCall, records: out})
	in := c.routed[r.ID]
	c.routed[r.ID] = nil
	return in
}

// labelRoute labels a route's messages in traces and loss panics: plus the
// stage, or plus 64 for the fold onto the lower ranks and 65 for the
// unfold.
const labelRoute = 1 << 22

// route replays the deposited route and, unless it fails, leaves each
// rank's delivery in coll.routed. With lo the largest power of two ≤ P and
// s̄, d̄ a record's source and destination below lo, the fold leaves the
// record on rank s̄, and before stage l it sits on the rank whose bits below
// l are d̄'s and whose other bits are s̄'s; it crosses stage l when s̄ and d̄
// differ in bit l. The fold sends a rank's whole output, the unfold the
// records addressed to the rank it sends to.
func (n *Network) route() {
	p, c := n.P, &n.coll
	lo := 1 << (bits.Len(uint(p)) - 1)
	k := bits.TrailingZeros(uint(lo))
	stage := make([]int, k*lo) // stage[l*lo+a]: the size of rank a's message at stage l
	sent, got := make([]int, p), make([]int, p)
	in := make([][]Record, p)
	for s, cl := range c.calls {
		for _, rec := range cl.records {
			d := rec.Rank
			if d < 0 || d >= p {
				panic(fmt.Sprintf("comm: rank %d routes a record to rank %d of %d", s, d, p))
			}
			in[d] = append(in[d], Record{s, rec.Data})
			w := 3 + len(rec.Data)
			sent[s] += w
			got[d] += w
			sb, db := s&(lo-1), d&(lo-1)
			for l := range k {
				if bit := 1 << l; (sb^db)&bit != 0 {
					at := db&(bit-1) | sb&^(bit-1)
					stage[l*lo+at] += w
				}
			}
		}
	}
	for t := lo; t < p; t++ {
		n.message(t, t-lo, labelRoute+64, sent[t])
	}
	for l := range k {
		for a := range lo {
			if b := a ^ 1<<l; b > a {
				n.pair(a, b, labelRoute+l, stage[l*lo+a], stage[l*lo+b])
			}
		}
	}
	for t := lo; t < p; t++ {
		n.message(t-lo, t, labelRoute+65, got[t])
	}
	c.routed = in
}
