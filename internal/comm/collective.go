package comm

import "fmt"

// Collectives, neighbour exchanges (exchange.go) and routes (route.go) meet
// once per call. Every rank deposits its call at the network's rendezvous
// and parks; once every rank is parked, the driver (driver.go) checks that
// every rank made the same call and replays the call's messages for all of
// them, through the clock halves a Send and a Recv use (post, land), each
// rank's messages in that rank's own order. A collective's schedule is
// recursive doubling for P = 2^k, a binomial reduce to rank 0 and a binomial
// broadcast from it otherwise, folding the vectors with op in the schedule's
// order. Clocks, traffic counters, fault draws, registry counters and trace
// events are therefore those of the message-passing schedule; only the host
// work differs: one park per rank instead of a hand-off per message. No
// replayed message enters a stream, and none takes a user's tag.

// Collective messages are labelled, in traces and loss panics, with the
// tags the schedule gives them: labelAllreduce plus the round of recursive
// doubling or plus the distance of a reduce round; labelBcast plus the
// distance of a broadcast round.
const (
	labelAllreduce = 1 << 20
	labelBcast     = 1 << 21
)

// rendezvous is where the ranks meet for one call. The replay runs on the
// driver while every rank is parked, so it owns the rendezvous, every rank's
// clock and every deposited buffer.
type rendezvous struct {
	calls  []call     // by rank: the call in progress
	routed [][]Record // by rank: what a route delivers to it
}

// callKind tells the three calls of the rendezvous apart.
type callKind uint8

const (
	allreduceCall callKind = iota
	exchangeCall
	routeCall
)

// call is one rank's deposit at the rendezvous: an allreduce's vector and
// op, an exchange and the number of fields it carries, or a route's records.
type call struct {
	kind    callKind
	data    []float64
	op      ReduceOp
	x       *Exchange
	fields  int
	records []Record
}

// same reports whether c and d are the same call on two ranks: allreduces
// of as many words, exchanges of one handle carrying as many fields, or
// routes.
func (c call) same(d call) bool {
	switch {
	case c.kind != d.kind:
		return false
	case c.kind == allreduceCall:
		return len(c.data) == len(d.data)
	case c.kind == exchangeCall:
		return c.x.id == d.x.id && c.fields == d.fields
	}
	return true
}

func (c call) String() string {
	switch c.kind {
	case allreduceCall:
		return fmt.Sprintf("an allreduce (%d words)", len(c.data))
	case exchangeCall:
		return fmt.Sprintf("exchange %d (%d fields)", c.x.id, c.fields)
	}
	return "a route"
}

// meet deposits the rank's call at the rendezvous and parks until the driver
// has replayed it. A replay that fails (mismatched calls, a message lost for
// good, a panicking op or fold) fails every rank with the same panic.
func (r *Rank) meet(cl call) {
	r.net.coll.calls[r.ID] = cl
	r.park(atCall)
}

// replay checks that every rank deposited the same call and runs it. A panic
// is recovered and returned, for the driver to fail every rank with.
func (n *Network) replay() (failure any) {
	defer func() { failure = recover() }()
	calls := n.coll.calls
	for q := 1; q < n.P; q++ {
		if !calls[q].same(calls[0]) {
			panic(fmt.Sprintf("comm: rank %d at %v, rank 0 at %v", q, calls[q], calls[0]))
		}
	}
	switch op, words := calls[0].op, len(calls[0].data); {
	case calls[0].kind == exchangeCall:
		n.exchange()
	case calls[0].kind == routeCall:
		n.route()
	case n.P&(n.P-1) == 0:
		n.doubling(op, words)
	default:
		n.reduceTree(op, words)
		n.bcastTree(words)
	}
	return nil
}

// message replays one message of words words from rank a to rank b: a
// posts it, b lands it.
func (n *Network) message(a, b, tag, words int) {
	t, f := n.ranks[a].post(b, tag, words)
	n.ranks[b].land(a, tag, words, t, f)
}

// pair replays a trade between ranks a and b, of wa words from a and wb
// from b: both post before either lands.
func (n *Network) pair(a, b, tag, wa, wb int) {
	ra, rb := n.ranks[a], n.ranks[b]
	ta, fa := ra.post(b, tag, wa)
	tb, fb := rb.post(a, tag, wb)
	ra.land(b, tag, wb, tb, fb)
	rb.land(a, tag, wa, ta, fa)
}

// ReduceOp combines two equal-length vectors elementwise into dst. It must
// be commutative: an allreduce folds in an order that depends on the rank
// count, and leaves the same bits on every rank.
type ReduceOp func(dst, src []float64)

// OpSum adds src into dst.
func OpSum(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// OpMax takes the elementwise maximum.
func OpMax(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Allreduce combines data across all ranks with op, leaving the result in
// data on every rank. Power-of-two rank counts use recursive doubling
// (log₂P rounds); general counts fall back to a binomial-tree reduce+bcast.
// Every message of the schedule is clocked, counted, fault-drawn and traced;
// the schedule is replayed at one rendezvous of the ranks.
func (r *Rank) Allreduce(data []float64, op ReduceOp) { r.collective(data, op, false) }

// Barrier synchronizes all ranks (allreduce of a scalar in the rank's
// scratch word, so it allocates nothing).
func (r *Rank) Barrier() {
	r.scalBuf[0] = 0
	r.collective(r.scalBuf[:], OpSum, true)
}

// collective runs one allreduce and records it, as an allreduce or as a
// barrier: its calls, messages, bytes and virtual time in the registry, and
// a span on the rank's track (a barrier's without the word count).
func (r *Rank) collective(data []float64, op ReduceOp, barrier bool) {
	in, tr := r.net.instr, r.net.tracer
	if in == nil && tr == nil {
		r.allreduce(data, op)
		return
	}
	t0, m0, b0 := r.Time, r.MsgsSent, r.BytesSent
	r.allreduce(data, op)
	msgs, bytes := r.MsgsSent-m0, r.BytesSent-b0
	if in != nil {
		c := &in.allreduce
		if barrier {
			c = &in.barrier
		}
		c.record(r.Time-t0, msgs, bytes)
	}
	if tr.WantsV(r.ID) {
		name, args := "barrier", map[string]any{"msgs": msgs, "bytes": bytes}
		if !barrier {
			name, args["words"] = "allreduce", len(data)
		}
		tr.SpanV(r.ID, name, "comm", t0, r.Time, args)
	}
}

// allreduce meets the other ranks at the rendezvous with data; a one-rank
// network has nothing to combine.
func (r *Rank) allreduce(data []float64, op ReduceOp) {
	if r.net.P > 1 {
		r.meet(call{kind: allreduceCall, data: data, op: op})
	}
}

// AllreduceScalar is a convenience for a single value. The scratch word
// lives on the rank (collectives never nest), so the per-iteration scalar
// reductions of a CG loop allocate nothing.
func (r *Rank) AllreduceScalar(v float64, op ReduceOp) float64 {
	r.scalBuf[0] = v
	r.Allreduce(r.scalBuf[:], op)
	return r.scalBuf[0]
}

// doubling replays recursive doubling (P = 2^k): in each round every pair
// exchanges, and both fold op(lower, upper). Both halves of a 2^(l+1)-rank
// block hold one value each before round l, so the replay folds each block
// once, on its lowest rank, and copies the result to every rank at the end.
func (n *Network) doubling(op ReduceOp, words int) {
	calls, p := n.coll.calls, n.P
	for dist, round := 1, 0; dist < p; dist, round = dist<<1, round+1 {
		for a := 0; a < p; a++ {
			if b := a ^ dist; b > a {
				n.pair(a, b, labelAllreduce+round, words, words)
			}
		}
		for a := 0; a < p; a += 2 * dist {
			op(calls[a].data, calls[a+dist].data)
		}
	}
	for _, cl := range calls[1:] {
		copy(cl.data, calls[0].data)
	}
}

// reduceTree replays the binomial reduce to rank 0: in round dist, every
// rank that is an odd multiple of dist sends its (final) vector to
// rank−dist, which folds it in.
func (n *Network) reduceTree(op ReduceOp, words int) {
	c, p := &n.coll, n.P
	for dist := 1; dist < p; dist <<= 1 {
		tag := labelAllreduce + dist
		for dst := 0; dst+dist < p; dst += 2 * dist {
			src := dst + dist
			n.message(src, dst, tag, words)
			op(c.calls[dst].data, c.calls[src].data)
		}
	}
}

// bcastTree replays the binomial broadcast of rank 0's vector (fan-out): in
// round dist, every rank that already holds it and is a multiple of 2·dist
// forwards it to rank+dist.
func (n *Network) bcastTree(words int) {
	c, p := &n.coll, n.P
	mask := 1
	for mask < p {
		mask <<= 1
	}
	for dist := mask >> 1; dist >= 1; dist >>= 1 {
		tag := labelBcast + dist
		for src := 0; src+dist < p; src += 2 * dist {
			dst := src + dist
			n.message(src, dst, tag, words)
			copy(c.calls[dst].data, c.calls[src].data)
		}
	}
}
