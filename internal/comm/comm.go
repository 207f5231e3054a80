// Package comm provides a simulated distributed-memory message-passing
// machine: P ranks exchange real data while a LogP-style α–β
// (latency–bandwidth) cost model advances per-rank virtual clocks. This
// substitutes for the paper's ASCI-Red NX/MPI layer: the distributed
// algorithms (gather–scatter, XXT coarse solver, collective trees) execute
// exactly as they would on real hardware — same messages, same data, same
// dependency structure — and the virtual clocks yield the communication-time
// curves of Fig. 6 without 2048 physical nodes. The ranks are coroutines
// driven by one loop on the caller's goroutine (driver.go), which resumes
// each in rank order until it parks. A run communicates in three calls, each
// of which the ranks park at one rendezvous for, where the driver replays the
// call's messages for all of them: the allreduce (and barrier), the
// gather–scatter's neighbour exchange, and the route, a crystal router's
// personalised all-to-all, whose records go straight to their destinations
// while its messages, sized from the records, drive the clocks. Each message
// is still clocked, counted, fault-drawn and traced, but none is queued.
// Point-to-point Send and Recv, which queue each (source, tag) stream at its
// receiver, are the message-passing schedules the tests hold the replays to.
package comm

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/instrument"
)

// Machine models the target platform: its network and the two sustained
// flop rates of one node. Matrix–matrix work is the tensor-product kernels
// of the spectral element operators; vector work is everything pointwise.
type Machine struct {
	P          int
	Latency    float64 // α: seconds per message
	ByteSec    float64 // β: seconds per byte
	MMFlopSec  float64 // seconds per matrix–matrix flop
	VecFlopSec float64 // seconds per vector flop
}

// ASCIRed returns p ASCI-Red nodes with the standard kernels on one
// processor each: the machine the simulated clock runs.
func ASCIRed(p int) Machine { return ASCIRedNode(p, false, false) }

// ASCIRedNode returns p nodes of ASCI-Red, the paper's machine (Sec. 6),
// described once: ~20 µs MPI latency, ~310 MB/s per link, and Table 3's
// sustained MFLOPS per processor for the standard or the tuned (perf.)
// kernels, on one processor or on both at 82 % parallel efficiency — the
// four machines of Table 4.
func ASCIRedNode(p int, perf, dual bool) Machine {
	mm, vec := 95e6, 35e6
	if perf {
		mm, vec = 113e6, 38e6
	}
	if dual {
		mm, vec = 2*0.82*mm, 2*0.82*vec
	}
	return Machine{P: p, Latency: 20e-6, ByteSec: 1 / 310e6, MMFlopSec: 1 / mm, VecFlopSec: 1 / vec}
}

type message struct {
	data    []float64
	arrival float64 // virtual arrival time at the receiver
	flow    string  // trace flow id binding send to receive ("" untraced)
}

// stream is the queue of one (source, tag) stream at its receiver, in send
// order: point-to-point Send and Recv, the message-passing oracles the tests
// hold the replays to. Every message of a run is a collective's, an
// exchange's or a route's, replayed at the call's rendezvous (collective.go,
// exchange.go, route.go), and never comes here. A receive waits on exactly
// the stream it names: no message is ever taken and set aside for a later
// receive. The queues are unbounded and Send never blocks: a bounded queue
// deadlocks real communication patterns — a sender blocked on a full queue
// whose receiver is itself blocked sending never progresses. A stream is a
// head-indexed slice: a receive advances head instead of reslicing, and once
// drained the slice rewinds to q[:0], so a stream reuses one backing array.
type stream struct {
	from, tag int
	q         []message
	head      int
}

// stream returns the rank's queue of (from, tag), creating it on first use.
func (r *Rank) stream(from, tag int) *stream {
	s := r.streams[[2]int{from, tag}]
	if s == nil {
		if r.streams == nil {
			r.streams = map[[2]int]*stream{}
		}
		s = &stream{from: from, tag: tag}
		r.streams[[2]int{from, tag}] = s
	}
	return s
}

// collectiveInstr groups the metrics of one collective kind.
type collectiveInstr struct {
	calls *instrument.Counter
	msgs  *instrument.Counter
	bytes *instrument.Counter
	vtime instrument.VTime // per-call virtual time: summed per rank, and its distribution
}

func (c *collectiveInstr) record(dt float64, msgs, bytes int64) {
	c.calls.Inc()
	c.msgs.Add(msgs)
	c.bytes.Add(bytes)
	c.vtime.Record(dt)
}

// netInstr holds the network's metric handles (nil Network.instr = off).
type netInstr struct {
	sendMsgs  *instrument.Counter
	sendBytes *instrument.Counter
	allreduce collectiveInstr
	barrier   collectiveInstr

	// Per-message virtual latency: every message of every rank, observed
	// by post.
	sendVLat *instrument.Histogram

	// Fault-injection bookkeeping (all zero without a plan).
	faultDrops   *instrument.Counter
	faultRetries *instrument.Counter
	faultPauses  *instrument.Counter
	faultStall   instrument.VTime // virtual time lost to faults, and each stall draw
}

// Network is an instantiated machine: use Run to execute an SPMD function.
// It owns its ranks: clocks, traffic and fault-draw counters and queued
// messages live as long as the network, so a program may be run in several
// batches (one Run each) and continue exactly where the last batch stopped.
// It is also the one place a distributed run attaches its registry and
// tracer: the components built on a rank (the gather–scatter, the coarse
// solve) take theirs from it.
type Network struct {
	Machine
	ranks  []*Rank
	coll   rendezvous
	fail   any // what fails every rank of the current Run; nil while none has failed
	reg    *instrument.Registry
	instr  *netInstr
	tracer *instrument.Tracer
	faults *fault.Plan
}

// NewNetwork allocates the communication structure for the machine.
func NewNetwork(m Machine) *Network {
	n := &Network{Machine: m, ranks: make([]*Rank, m.P), coll: rendezvous{calls: make([]call, m.P)}}
	for i := range n.ranks {
		n.ranks[i] = &Rank{ID: i, net: n}
	}
	return n
}

// Undelivered counts the messages sent and not yet received, over every
// rank. It is zero whenever a program is at rest between two matched
// exchanges; call it between Runs, not during one.
func (n *Network) Undelivered() int {
	total := 0
	for _, r := range n.ranks {
		for _, s := range r.streams {
			total += len(s.q) - s.head
		}
	}
	return total
}

// Attach wires per-message and per-collective counters (messages, bytes,
// summed per-rank virtual time) into reg, and hands reg to every component
// built on a rank after it (Rank.Registry). Call before Run; the handles are
// shared by all ranks.
func (n *Network) Attach(reg *instrument.Registry) {
	n.reg = reg
	if reg == nil {
		n.instr = nil
		return
	}
	col := func(name string) collectiveInstr {
		return collectiveInstr{
			calls: reg.Counter("comm/" + name + ".calls"),
			msgs:  reg.Counter("comm/" + name + ".msgs"),
			bytes: reg.Counter("comm/" + name + ".bytes"),
			vtime: reg.VTime("comm/" + name),
		}
	}
	n.instr = &netInstr{
		sendMsgs:     reg.Counter("comm/send.msgs"),
		sendBytes:    reg.Counter("comm/send.bytes"),
		sendVLat:     reg.Histogram("comm/send.vlat"),
		allreduce:    col("allreduce"),
		barrier:      col("barrier"),
		faultDrops:   reg.Counter("comm/fault.drops"),
		faultRetries: reg.Counter("comm/fault.retries"),
		faultPauses:  reg.Counter("comm/fault.pauses"),
		faultStall:   instrument.VTime{Timer: reg.Timer("comm/fault.stall"), Hist: reg.Histogram("comm/fault.stall.draws")},
	}
}

// SetFaults installs a fault plan: from now on every Send, Recv delivery,
// and Compute consults it (seeded deterministic stragglers, link jitter,
// message drops with timeout + bounded-retry recovery, and rank pauses).
// Call before Run; nil detaches and restores the exact fault-free
// arithmetic. The plan is normalized in place (retry protocol defaults).
func (n *Network) SetFaults(p *fault.Plan) {
	if p != nil {
		p.Normalize()
	}
	n.faults = p
}

// AttachTracer wires span emission into tr: every collective becomes a
// complete span on the calling rank's virtual-clock track, and every
// point-to-point message a send span plus a flow-event arrow to the
// receiving rank; components built on a rank after it trace on the same
// tracks (Rank.Tracer). Call before Run; nil detaches. The per-rank track
// names are registered on the tracer.
func (n *Network) AttachTracer(tr *instrument.Tracer) {
	n.tracer = tr
	if tr != nil {
		tr.SetProcessName(instrument.PidMachine, "simulated machine (virtual clock)")
		for p := 0; p < n.P; p++ {
			tr.SetThreadName(instrument.PidMachine, p, fmt.Sprintf("rank %d", p))
		}
	}
}

// Rank is the per-process handle passed to the SPMD body. Its clock state is
// the embedded ClockState, so a checkpoint captures every counter the rank
// keeps.
type Rank struct {
	ID  int
	net *Network
	ClockState

	streams map[[2]int]*stream  // where other ranks' Sends queue, by (source, tag)
	want    *stream             // the stream Recv waits on; nil when it waits on none
	next    func() (wait, bool) // resumes the rank's body until it parks (driver.go)
	yield   func(wait) bool     // parks the rank's body, from inside it
	wait    wait                // what the rank waits for while the driver runs the others

	scalBuf   [1]float64 // AllreduceScalar and Barrier scratch (collectives never nest)
	exchanges int        // the exchanges built on this rank (NewExchange)
}

// ClockState is the checkpointable slice of a rank's communication state:
// the virtual clock, the traffic counters, and the deterministic sequence
// counters that feed trace flow ids and fault draws. Restoring it makes a
// resumed rank continue exactly where the snapshot left off.
type ClockState struct {
	Time      float64 // virtual clock, seconds
	BytesSent int64
	MsgsSent  int64
	MMFlops   int64 // matrix–matrix flops charged by Compute
	VecFlops  int64 // vector flops charged by Compute

	// Fault bookkeeping (zero without a plan). Drops counts delivery
	// attempts the network lost; Retries the retransmissions that recovered
	// them (equal unless a message exhausted its retry budget, which
	// panics); Pauses the pause windows this rank waited out; StallSec the
	// total virtual time the faults cost this rank.
	Drops    int64
	Retries  int64
	Pauses   int64
	StallSec float64

	FlowSeq int64 // per-sender flow-id sequence (deterministic, no global state)
	SendSeq int64 // per-sender message sequence feeding the fault plan's draws
}

// Clock captures the rank's current clock state for a checkpoint.
func (r *Rank) Clock() ClockState { return r.ClockState }

// SetClock restores a checkpointed clock state.
func (r *Rank) SetClock(cs ClockState) { r.ClockState = cs }

// maybePause advances the clock past any pause window of the plan pl the
// rank's clock sits inside (the node-loss stand-in: the rank freezes, then
// resumes with its state intact). Every clock-advancing operation calls it
// first when the network has a fault plan.
func (r *Rank) maybePause(pl *fault.Plan) {
	end, hit := pl.PauseEnd(r.ID, r.Time)
	if !hit {
		return
	}
	t0 := r.Time
	r.Time = end
	r.Pauses++
	r.StallSec += end - t0
	if in := r.net.instr; in != nil {
		in.faultPauses.Inc()
		in.faultStall.Record(end - t0)
	}
	if tr := r.net.tracer; tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "fault/pause", "fault", t0, end, nil)
	}
}

// Send transmits data to rank `to` with the given tag; it and Recv are the
// message-passing schedules the tests hold the replays to. The sender's clock
// advances by the full message cost α + β·bytes (single-port model); the
// message carries its arrival time. Delivery is unbounded: Send never
// blocks, whatever the receiver's backlog.
//
// Under a fault plan, every delivery attempt may be dropped: a dropped
// attempt costs the sender the transmit time plus the retransmit timeout
// before the next try, bounded by the plan's MaxRetries (exhaustion panics
// — a lost message is a simulation-level failure, not a silent hang).
// Matching jitter rules add seeded extra latency. Without a plan the
// arithmetic is bitwise identical to the fault-free path.
func (r *Rank) Send(to, tag int, data []float64) {
	if to == r.ID {
		panic("comm: self-send")
	}
	arrival, flow := r.post(to, tag, len(data))
	// The payload copy keeps Send/Recv value semantics: the caller may
	// overwrite data immediately.
	s := r.net.ranks[to].stream(r.ID, tag)
	s.q = append(s.q, message{data: append([]float64(nil), data...), arrival: arrival, flow: flow})
}

// post is the clock half of a send of `words` words to rank `to`: it
// advances the sender's clock, draws the message's faults, counts and
// traces it, and returns its arrival time and trace flow id. Send hands the
// payload to the receiver's stream after it; the replay of a collective, an
// exchange or a route calls it alone, for each message of the call.
func (r *Rank) post(to, tag, words int) (arrival float64, flow string) {
	bytes := 8 * words
	base := r.net.Latency + float64(bytes)*r.net.ByteSec
	var extra float64
	if pl := r.net.faults; pl != nil {
		r.maybePause(pl)
		r.SendSeq++
		extra = pl.SendDelay(r.ID, to, r.SendSeq)
		if extra > 0 {
			r.StallSec += extra
			if in := r.net.instr; in != nil {
				in.faultStall.Record(extra)
			}
		}
		for attempt := 0; pl.DropAttempt(r.ID, to, r.SendSeq, attempt); attempt++ {
			if attempt >= pl.MaxRetries {
				panic(fmt.Sprintf("comm: message rank %d -> %d (tag %d) lost after %d attempts",
					r.ID, to, tag, attempt+1))
			}
			ta := r.Time
			r.Time += base + pl.RetryTimeout
			r.BytesSent += int64(bytes)
			r.MsgsSent++
			r.Drops++
			r.Retries++
			r.StallSec += base + pl.RetryTimeout
			if in := r.net.instr; in != nil {
				in.sendMsgs.Inc()
				in.sendBytes.Add(int64(bytes))
				in.faultDrops.Inc()
				in.faultRetries.Inc()
				in.faultStall.Record(base + pl.RetryTimeout)
			}
			if tr := r.net.tracer; tr.WantsV(r.ID) {
				tr.SpanV(r.ID, "fault/retry", "fault", ta, r.Time,
					map[string]any{"to": to, "tag": tag, "attempt": attempt + 1, "bytes": bytes})
			}
		}
	}
	t0 := r.Time
	r.Time += base + extra
	r.BytesSent += int64(bytes)
	r.MsgsSent++
	if in := r.net.instr; in != nil {
		in.sendMsgs.Inc()
		in.sendBytes.Add(int64(bytes))
		in.sendVLat.Observe(base + extra)
	}
	// A flow arrow needs both of its endpoints: under rank sampling the id
	// is generated only when sender and receiver tracks are both recorded,
	// so sampled traces keep every "s" matched by an "f" (ValidateChromeTrace
	// relies on this).
	if tr := r.net.tracer; tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "send", "comm", t0, r.Time,
			map[string]any{"to": to, "tag": tag, "bytes": bytes})
		if tr.WantsV(to) {
			r.FlowSeq++
			flow = fmt.Sprintf("%d.%d", r.ID, r.FlowSeq)
			tr.FlowV("s", r.ID, "msg", r.Time, flow)
		}
	}
	return r.Time, flow
}

// Recv parks the rank until the oldest unreceived message of the (from, tag)
// stream is there and returns its payload, advancing the receiver's clock to at
// least the message arrival time. Messages of one stream arrive in send
// order; streams are independent, so a rank may receive them in any order,
// and since land only max-advances the clock, on a fault-free machine the
// order a rank picks does not move its clock. The returned buffer is the
// receiver's.
func (r *Rank) Recv(from, tag int) []float64 {
	if from == r.ID || from < 0 || from >= r.net.P {
		panic(fmt.Sprintf("comm: rank %d cannot receive from rank %d of %d", r.ID, from, r.net.P))
	}
	s := r.stream(from, tag)
	for r.want = s; s.head == len(s.q); {
		r.park(atRecv)
	}
	r.want = nil
	m := s.q[s.head]
	s.q[s.head] = message{} // drop the payload reference once received
	if s.head++; s.head == len(s.q) {
		s.q, s.head = s.q[:0], 0
	}
	r.land(from, tag, len(m.data), m.arrival, m.flow)
	return m.data
}

// land is the clock half of a receive of `words` words from rank `from`:
// it advances the receiver's clock to the message arrival time and closes
// the trace flow arrow opened by the matching post. A receiver paused when
// the message lands picks it up once the pause window ends.
func (r *Rank) land(from, tag, words int, arrival float64, flow string) {
	if arrival > r.Time {
		r.Time = arrival
	}
	if pl := r.net.faults; pl != nil {
		r.maybePause(pl)
	}
	if tr := r.net.tracer; tr.WantsV(r.ID) {
		if flow != "" {
			tr.FlowV("f", r.ID, "msg", r.Time, flow)
		}
		tr.InstantV(r.ID, "recv", "comm", r.Time,
			map[string]any{"from": from, "tag": tag, "bytes": 8 * words})
	}
}

// Compute advances the virtual clock by the modeled time of mm
// matrix–matrix and vec vector floating-point operations, each class at its
// own rate. Under a fault plan, matching straggler windows multiply the
// cost; the excess appears as a fault span on the rank's track so the trace
// shows exactly where the straggler bit.
func (r *Rank) Compute(mm, vec int64) {
	r.MMFlops += mm
	r.VecFlops += vec
	dt := float64(mm)*r.net.MMFlopSec + float64(vec)*r.net.VecFlopSec
	if pl := r.net.faults; pl != nil {
		r.maybePause(pl)
		if f := pl.ComputeFactor(r.ID, r.Time); f != 1 {
			t0 := r.Time
			r.Time += dt * f
			extra := dt*f - dt
			r.StallSec += extra
			if in := r.net.instr; in != nil {
				in.faultStall.Record(extra)
			}
			if tr := r.net.tracer; extra > 0 && tr.WantsV(r.ID) {
				tr.SpanV(r.ID, "fault/straggler", "fault", t0+dt, r.Time,
					map[string]any{"factor": f})
			}
			return
		}
	}
	r.Time += dt
}

// P returns the number of ranks.
func (r *Rank) P() int { return r.net.P }

// Registry returns the registry attached to the rank's network (nil: off).
func (r *Rank) Registry() *instrument.Registry { return r.net.reg }

// Tracer returns the tracer attached to the rank's network (nil: off); the
// rank's spans go on its virtual-clock track.
func (r *Rank) Tracer() *instrument.Tracer { return r.net.tracer }

// MaxTime returns the maximum virtual clock across ranks (the modeled
// parallel completion time).
func MaxTime(ranks []*Rank) float64 {
	t := 0.0
	for _, r := range ranks {
		if r.Time > t {
			t = r.Time
		}
	}
	return t
}

// TotalBytes returns the total traffic volume.
func TotalBytes(ranks []*Rank) int64 {
	var b int64
	for _, r := range ranks {
		b += r.BytesSent
	}
	return b
}
