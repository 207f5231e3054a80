package comm

import (
	"fmt"
	"slices"
)

// Exchange is one rank's side of a neighbour exchange, the communication
// phase of the gather–scatter: each call sends one message to each of the
// rank's peers and receives one from each. Every rank of a P > 1 network
// meets at every call, a rank without peers too, at the rendezvous the
// collectives meet at (collective.go). Once every rank is parked there, the
// driver replays the call: every rank's posts, each rank's in its peer order, then every rank's
// lands and fold, each rank's in its peer order, handing the fold the words
// its peers sent, read in place from their Out buffers. Clocks, counters,
// fault draws and trace events are therefore those of the message-passing
// exchange in which every rank sends to all its peers before it receives,
// and receives in ascending rank order.
type Exchange struct {
	// Out[i] is the message for the i-th peer; the caller fills it before
	// each call.
	Out [][]float64

	peers []int                // ascending ranks
	tag   int                  // the messages' label in traces and loss panics
	fold  func(in [][]float64) // combines one call's messages; in[i] is from peers[i]
	id    int                  // the exchanges the rank built before this one

	in      [][]float64 // the fold's argument: the peers' Out buffers for this rank
	arrival []float64   // by peer: the virtual arrival time of the message posted to it
	flow    []string    // by peer: the message's trace flow id
	back    []int       // by peer: this rank's place in the peer's peers (nil until the first call)
}

// NewExchange builds the rank's side of a neighbour exchange with peers, in
// ascending rank order. Every rank builds its exchanges in the same order,
// which names each of them at the rendezvous. tag labels the messages in
// traces and loss panics. fold combines each call's messages, in[i] from
// peers[i]: it runs on the driver during the replay, while the owner is
// parked, and must neither keep nor modify in.
func (r *Rank) NewExchange(peers []int, tag int, fold func(in [][]float64)) *Exchange {
	for i, q := range peers {
		if q == r.ID || q < 0 || q >= r.net.P || i > 0 && q <= peers[i-1] {
			panic(fmt.Sprintf("comm: rank %d of %d cannot exchange with peers %v", r.ID, r.net.P, peers))
		}
	}
	k := len(peers)
	x := &Exchange{Out: make([][]float64, k), peers: peers, tag: tag, fold: fold, id: r.exchanges,
		in: make([][]float64, k), arrival: make([]float64, k), flow: make([]string, k)}
	r.exchanges++
	return x
}

// Exchange runs one call of x, whose messages carry fields runs of words
// each; every rank must pass the same count.
func (r *Rank) Exchange(x *Exchange, fields int) {
	r.meet(call{kind: exchangeCall, x: x, fields: fields})
}

// exchange replays the deposited exchange: every rank's posts, then every
// rank's lands and fold.
func (n *Network) exchange() {
	calls := n.coll.calls
	for a, cl := range calls {
		x, ra := cl.x, n.ranks[a]
		for i, b := range x.peers {
			x.arrival[i], x.flow[i] = ra.post(b, x.tag, len(x.Out[i]))
		}
	}
	for b, cl := range calls {
		x, rb := cl.x, n.ranks[b]
		if x.back == nil {
			n.link(b, x)
		}
		for j, a := range x.peers {
			src, i := calls[a].x, x.back[j]
			x.in[j] = src.Out[i]
			rb.land(a, x.tag, len(src.Out[i]), src.arrival[i], src.flow[i])
		}
		x.fold(x.in)
	}
}

// link finds, once, where each of rank b's peers posts its message to b:
// b's place in that peer's own peer list.
func (n *Network) link(b int, x *Exchange) {
	back := make([]int, len(x.peers))
	for j, a := range x.peers {
		i, ok := slices.BinarySearch(n.coll.calls[a].x.peers, b)
		if !ok {
			panic(fmt.Sprintf("comm: rank %d expects a message from rank %d at exchange %d, which sends it none", b, a, x.id))
		}
		back[j] = i
	}
	x.back = back
}
