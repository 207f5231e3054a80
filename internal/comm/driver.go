//go:build go1.23

// The build line lifts this file to Go 1.23 for iter.Pull; go.mod stays 1.22.

package comm

import (
	"fmt"
	"iter"
	"strings"
)

// wait is what a rank's body is doing while the driver runs the others.
type wait uint8

const (
	ready    wait = iota // to be resumed: not started, or released by the driver
	atCall               // parked at the rendezvous (meet)
	atRecv               // parked in Recv until its want stream holds a message
	returned             // its body returned or panicked
)

// Run executes body on every rank and returns the network's ranks, the same
// values on every call: a second Run continues from the clocks and counters
// the first one left. Each body is a coroutine (iter.Pull) driven by one loop
// on the caller's goroutine, which resumes the ready ranks in rank order,
// each until it parks or returns: at a rendezvous until every rank is there
// and the loop has replayed the call, in Recv until its stream holds a
// message. So the ranks share one processor and run in one order. A failed
// replay, no rank able to run (one returned while others wait at a call, or
// all wait for messages none sends) or a rank's unrecovered panic fails every
// parked rank with one panic; the first unrecovered panic leaves Run on the
// caller's goroutine once every rank has unwound. No coroutine outlives Run.
func (n *Network) Run(body func(r *Rank)) []*Rank {
	stops := make([]func(), n.P)
	for q, r := range n.ranks {
		r.next, stops[q] = iter.Pull(func(yield func(wait) bool) {
			r.yield = yield
			body(r)
		})
		r.wait = ready
	}
	defer func() { // unwinds the ranks a body's runtime.Goexit left parked
		for _, stop := range stops {
			func() { defer func() { _ = recover() }(); stop() }()
		}
	}()
	n.fail = nil
	var panicked any
	for {
		ran, calls, live := false, 0, 0
		for _, r := range n.ranks {
			if r.wait == atRecv && r.want.head < len(r.want.q) {
				r.wait = ready
			}
			if r.wait == ready {
				ran = true
				if p := r.resume(); p != nil && panicked == nil {
					panicked = p
					n.failAll(p)
				}
			}
			if r.wait == atCall {
				calls++
			}
			if r.wait != returned {
				live++
			}
		}
		switch {
		case calls == n.P:
			if f := n.replay(); f != nil {
				n.failAll(f)
			} else {
				for _, r := range n.ranks {
					r.wait = ready
				}
			}
		case ran:
		case live == 0:
			if panicked != nil {
				panic(panicked)
			}
			return n.ranks
		default:
			n.failAll(n.stuck())
		}
	}
}

// resume runs the rank's body until it parks or returns, and returns the
// panic the body ended with, if any.
func (r *Rank) resume() (panicked any) {
	r.wait = returned
	defer func() { panicked = recover() }()
	if w, ok := r.next(); ok {
		r.wait = w
	}
	return nil
}

// park hands the driver the rank's wait and returns once the driver resumes
// the rank. After the Run has failed, the rank panics with the failure.
func (r *Rank) park(w wait) {
	if r.net.fail == nil && !r.yield(w) {
		r.net.fail = "comm: Run ended before the rank returned"
	}
	if f := r.net.fail; f != nil {
		panic(f)
	}
}

// failAll records the Run's failure, unless it has one, and releases every
// parked rank to panic with it.
func (n *Network) failAll(f any) {
	if n.fail == nil {
		n.fail = f
	}
	for _, r := range n.ranks {
		if r.wait == atCall || r.wait == atRecv {
			r.wait = ready
		}
	}
}

// stuck names every rank's wait when no rank can run.
func (n *Network) stuck() string {
	waits := make([]string, n.P)
	for q, r := range n.ranks {
		waits[q] = fmt.Sprintf("rank %d returned", q)
		if r.wait == atCall {
			waits[q] = fmt.Sprintf("rank %d at %v", q, n.coll.calls[q])
		} else if r.wait == atRecv {
			waits[q] = fmt.Sprintf("rank %d in Recv from rank %d (tag %d)", q, r.want.from, r.want.tag)
		}
	}
	return "comm: no rank can run: " + strings.Join(waits, ", ")
}
