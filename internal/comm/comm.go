// Package comm provides a simulated distributed-memory message-passing
// machine: P ranks run as goroutines exchanging real data, queued at each
// receiver per (source, tag) stream and taken with one primitive, Recv,
// while a LogP-style α–β (latency–bandwidth) cost model advances per-rank
// virtual clocks. This substitutes for the paper's ASCI-Red NX/MPI layer:
// the distributed algorithms (gather–scatter, XXT coarse solver, collective
// trees) execute exactly as they would on real hardware — same messages,
// same data, same dependency structure — and the virtual clocks yield the
// communication-time curves of Fig. 6 without 2048 physical nodes.
package comm

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/instrument"
)

// Machine models the network of the target platform.
type Machine struct {
	P       int
	Latency float64 // α: seconds per message
	ByteSec float64 // β: seconds per byte
	FlopSec float64 // seconds per flop for modeled local compute
}

// ASCIRed returns a machine model with ASCI-Red-like constants: ~20 µs MPI
// latency, ~310 MB/s per-link bandwidth, and ~100 MFLOPS sustained
// per-processor compute (the Table 3 ballpark).
func ASCIRed(p int) Machine {
	return Machine{P: p, Latency: 20e-6, ByteSec: 1 / 310e6, FlopSec: 1 / 100e6}
}

type message struct {
	from, tag int
	data      []float64
	arrival   float64 // virtual arrival time at the receiver
	flow      string  // trace flow id binding send to receive ("" untraced)
}

// streamKey names one (source rank, tag) stream of messages at its receiver.
type streamKey struct{ from, tag int }

// stream is the queue of one (source, tag) stream, in send order. It is a
// head-indexed slice: take advances head instead of reslicing (`q = q[1:]`
// strands the backing array and re-allocates forever under sustained
// traffic), and once drained the slice rewinds to q[:0], so steady-state
// traffic reuses one backing array per stream.
type stream struct {
	q    []message
	head int
}

// inbox is the receive side of one rank. The simulated network queues each
// (source, tag) stream at its receiver, so a receive waits on exactly the
// stream it names: no message is ever taken and set aside for a later
// receive, and a backlog on other streams costs one map probe, not a scan
// (the gs setup all-to-all leaves ~P streams queued per rank). The queues
// are unbounded and Send never blocks: a bounded channel here deadlocks real
// communication patterns — a sender blocked on a full inbox whose receiver
// is itself blocked sending never progresses — and the simulated machine
// models a network that buffers at the receiver, not a rendezvous. Keys are
// never deleted: the tag set is small and fixed (per-round collective tags,
// the gs setup and exchange tags), so queue storage is reused across calls.
// Only the owning rank receives, so at most one stream is waited on at a
// time, and a send wakes the receiver only when it lands on that stream.
type inbox struct {
	mu      sync.Mutex
	ready   sync.Cond // L is &mu
	streams map[streamKey]*stream
	want    *stream // the stream the receiver waits on; nil when it is not waiting
}

// stream returns the queue of k, creating it on first use. Call with mu held.
func (b *inbox) stream(k streamKey) *stream {
	s := b.streams[k]
	if s == nil {
		s = &stream{}
		b.streams[k] = s
	}
	return s
}

func (b *inbox) put(m message) {
	b.mu.Lock()
	s := b.stream(streamKey{m.from, m.tag})
	s.q = append(s.q, m)
	wake := b.want == s
	b.mu.Unlock()
	if wake {
		b.ready.Signal()
	}
}

// take blocks until stream k holds a message and removes the oldest.
func (b *inbox) take(k streamKey) message {
	b.mu.Lock()
	s := b.stream(k)
	for s.head == len(s.q) {
		b.want = s
		b.ready.Wait()
	}
	b.want = nil
	m := s.q[s.head]
	s.q[s.head] = message{} // drop the payload reference once received
	s.head++
	if s.head == len(s.q) {
		s.q, s.head = s.q[:0], 0
	}
	b.mu.Unlock()
	return m
}

// queued counts the messages sent to this inbox and not yet received.
func (b *inbox) queued() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, s := range b.streams {
		n += len(s.q) - s.head
	}
	return n
}

// collectiveInstr groups the metrics of one collective kind.
type collectiveInstr struct {
	calls *instrument.Counter
	msgs  *instrument.Counter
	bytes *instrument.Counter
	vtime *instrument.Timer     // accumulated per-rank virtual time
	vhist *instrument.Histogram // per-call virtual time, all ranks merged
}

func (c *collectiveInstr) record(dt float64, msgs, bytes int64) {
	c.calls.Inc()
	c.msgs.Add(msgs)
	c.bytes.Add(bytes)
	c.vtime.Add(time.Duration(dt * float64(time.Second)))
	c.vhist.Observe(dt)
}

// netInstr holds the network's metric handles (nil Network.instr = off).
type netInstr struct {
	sendMsgs  *instrument.Counter
	sendBytes *instrument.Counter
	allreduce collectiveInstr
	barrier   collectiveInstr

	// Distribution rollups: per-message virtual latency and per-event fault
	// stall draws. Histograms observe lock-free, so every rank records every
	// message even at paper-scale P.
	sendVLat  *instrument.Histogram
	faultHist *instrument.Histogram

	// Fault-injection bookkeeping (all zero without a plan).
	faultDrops   *instrument.Counter
	faultRetries *instrument.Counter
	faultPauses  *instrument.Counter
	faultStall   *instrument.Timer // virtual time lost to faults
}

// stall records one fault-induced stall of dt virtual seconds.
func (in *netInstr) stall(dt float64) {
	in.faultStall.Add(time.Duration(dt * float64(time.Second)))
	in.faultHist.Observe(dt)
}

// Network is an instantiated machine: use Run to execute an SPMD function.
// It owns its ranks: clocks, traffic and fault-draw counters, buffer pools
// and queued messages live as long as the network, so a program may be run
// in several batches (one Run each) and continue exactly where the last
// batch stopped, and no goroutine outlives a Run.
type Network struct {
	Machine
	ranks  []*Rank
	instr  *netInstr
	tracer *instrument.Tracer
	faults *fault.Plan
}

// NewNetwork allocates the communication structure for the machine.
func NewNetwork(m Machine) *Network {
	n := &Network{Machine: m, ranks: make([]*Rank, m.P)}
	for i := range n.ranks {
		r := &Rank{ID: i, net: n, in: inbox{streams: make(map[streamKey]*stream)}}
		r.in.ready.L = &r.in.mu
		n.ranks[i] = r
	}
	return n
}

// Undelivered counts the messages sent and not yet received, over every
// rank. It is zero whenever a program is at rest between two matched
// exchanges; call it between Runs, not during one.
func (n *Network) Undelivered() int {
	total := 0
	for _, r := range n.ranks {
		total += r.in.queued()
	}
	return total
}

// Attach wires per-message and per-collective counters (messages, bytes,
// summed per-rank virtual time) into reg. Call before Run; the handles are
// shared by all ranks and recorded atomically.
func (n *Network) Attach(reg *instrument.Registry) {
	if reg == nil {
		n.instr = nil
		return
	}
	col := func(name string) collectiveInstr {
		return collectiveInstr{
			calls: reg.Counter("comm/" + name + ".calls"),
			msgs:  reg.Counter("comm/" + name + ".msgs"),
			bytes: reg.Counter("comm/" + name + ".bytes"),
			vtime: reg.Timer("comm/" + name + ".vtime"),
			vhist: reg.Histogram("comm/" + name + ".vtime.hist"),
		}
	}
	n.instr = &netInstr{
		sendMsgs:     reg.Counter("comm/send.msgs"),
		sendBytes:    reg.Counter("comm/send.bytes"),
		sendVLat:     reg.Histogram("comm/send.vlat"),
		faultHist:    reg.Histogram("comm/fault.stall.draws"),
		allreduce:    col("allreduce"),
		barrier:      col("barrier"),
		faultDrops:   reg.Counter("comm/fault.drops"),
		faultRetries: reg.Counter("comm/fault.retries"),
		faultPauses:  reg.Counter("comm/fault.pauses"),
		faultStall:   reg.Timer("comm/fault.stall"),
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
// receiving rank. Call before Run; nil detaches. The per-rank track names
// are registered on the tracer.
func (n *Network) AttachTracer(tr *instrument.Tracer) {
	n.tracer = tr
	if tr != nil {
		tr.SetProcessName(instrument.PidMachine, "simulated machine (virtual clock)")
		for p := 0; p < n.P; p++ {
			tr.SetThreadName(instrument.PidMachine, p, fmt.Sprintf("rank %d", p))
		}
	}
}

// Rank is the per-process handle passed to the SPMD body.
type Rank struct {
	ID  int
	net *Network

	Time      float64 // virtual clock, seconds
	BytesSent int64
	MsgsSent  int64
	Flops     int64

	// Fault bookkeeping (zero without a plan). Drops counts delivery
	// attempts the network lost; Retries the retransmissions that recovered
	// them (equal unless a message exhausted its retry budget, which
	// panics); Pauses the pause windows this rank waited out; StallSec the
	// total virtual time the faults cost this rank.
	Drops    int64
	Retries  int64
	Pauses   int64
	StallSec float64

	// in is where other ranks' Sends queue; it is the one field of a Rank
	// that other goroutines touch, under its own lock.
	in inbox

	// pool holds received payload buffers by power-of-two size class,
	// rank-local so no locking is needed: callers return consumed buffers
	// with Free, and this rank's next Send copies into one of them. A
	// steady-state exchange (gs, allreduce) therefore allocates nothing.
	// Deliberately not a sync.Pool: the GC may drain one at any time, which
	// would break the zero-allocation guarantee the hot-path tests pin.
	pool [payloadClasses][][]float64

	scalBuf [1]float64 // AllreduceScalar scratch (collectives never nest)
	flowSeq int64      // per-sender flow-id sequence (deterministic, no global state)
	sendSeq int64      // per-sender message sequence feeding the fault plan's draws
}

// payloadClasses bounds the pooled size classes at 2^(payloadClasses-1)
// words (larger payloads fall back to plain allocation).
const payloadClasses = 28

// classFor returns the power-of-two size class holding n words (n >= 1).
func classFor(n int) int { return bits.Len(uint(n - 1)) }

// getPayload returns a buffer of length n backed by a pooled power-of-two
// allocation (nil for n == 0).
func (r *Rank) getPayload(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := classFor(n)
	if c < payloadClasses {
		if fl := r.pool[c]; len(fl) > 0 {
			b := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			r.pool[c] = fl[:len(fl)-1]
			return b[:n]
		}
	}
	return make([]float64, n, 1<<c)
}

// Free returns a payload obtained from Recv to this rank's buffer pool, to
// be reused by a later Send. Calling it is optional — an unreturned buffer
// is simply garbage-collected — but the steady-state exchanges
// (gather–scatter, allreduce) free every payload they consume, which is what
// makes them allocation-free. The caller must not touch the slice
// afterwards. Nil and non-pooled slices are ignored.
func (r *Rank) Free(buf []float64) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return // not one of our power-of-two pooled buffers
	}
	cl := classFor(c)
	if cl >= payloadClasses {
		return
	}
	r.pool[cl] = append(r.pool[cl], buf[:0])
}

// ClockState is the checkpointable slice of a rank's communication state:
// the virtual clock, the traffic counters, and the deterministic sequence
// counters that feed trace flow ids and fault draws. Restoring it makes a
// resumed rank continue exactly where the snapshot left off.
type ClockState struct {
	Time      float64
	BytesSent int64
	MsgsSent  int64
	Flops     int64
	Drops     int64
	Retries   int64
	Pauses    int64
	StallSec  float64
	FlowSeq   int64
	SendSeq   int64
}

// Clock captures the rank's current clock state for a checkpoint.
func (r *Rank) Clock() ClockState {
	return ClockState{Time: r.Time, BytesSent: r.BytesSent, MsgsSent: r.MsgsSent,
		Flops: r.Flops, Drops: r.Drops, Retries: r.Retries, Pauses: r.Pauses,
		StallSec: r.StallSec, FlowSeq: r.flowSeq, SendSeq: r.sendSeq}
}

// SetClock restores a checkpointed clock state.
func (r *Rank) SetClock(cs ClockState) {
	r.Time, r.BytesSent, r.MsgsSent, r.Flops = cs.Time, cs.BytesSent, cs.MsgsSent, cs.Flops
	r.Drops, r.Retries, r.Pauses, r.StallSec = cs.Drops, cs.Retries, cs.Pauses, cs.StallSec
	r.flowSeq, r.sendSeq = cs.FlowSeq, cs.SendSeq
}

// maybePause advances the clock past any pause window the rank's clock sits
// inside (the node-loss stand-in: the rank freezes, then resumes with its
// state intact). Called at the start of every clock-advancing operation.
func (r *Rank) maybePause() {
	pl := r.net.faults
	if pl == nil {
		return
	}
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
		in.stall(end - t0)
	}
	if tr := r.net.tracer; tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "fault/pause", "fault", t0, end, nil)
	}
}

// Run executes body on every rank concurrently, one goroutine per rank,
// waits for all of them and returns the network's ranks (for clock/traffic
// inspection). The ranks are the same values on every call: a second Run
// continues from the clocks and counters the first one left.
func (n *Network) Run(body func(r *Rank)) []*Rank {
	var wg sync.WaitGroup
	wg.Add(n.P)
	for _, r := range n.ranks {
		go func(r *Rank) {
			defer wg.Done()
			body(r)
		}(r)
	}
	wg.Wait()
	return n.ranks
}

// Send transmits data to rank `to` with the given tag. The sender's clock
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
	r.maybePause()
	bytes := 8 * len(data)
	base := r.net.Latency + float64(bytes)*r.net.ByteSec
	var extra float64
	if pl := r.net.faults; pl != nil {
		r.sendSeq++
		extra = pl.SendDelay(r.ID, to, r.sendSeq)
		if extra > 0 {
			r.StallSec += extra
			if in := r.net.instr; in != nil {
				in.stall(extra)
			}
		}
		for attempt := 0; pl.DropAttempt(r.ID, to, r.sendSeq, attempt); attempt++ {
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
				in.stall(base + pl.RetryTimeout)
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
	var flow string
	if tr := r.net.tracer; tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "send", "comm", t0, r.Time,
			map[string]any{"to": to, "tag": tag, "bytes": bytes})
		if tr.WantsV(to) {
			r.flowSeq++
			flow = fmt.Sprintf("%d.%d", r.ID, r.flowSeq)
			tr.FlowV("s", r.ID, "msg", r.Time, flow)
		}
	}
	// The payload copy keeps Send/Recv value semantics (the caller may
	// overwrite data immediately); the buffer comes from the sender's pool so
	// sustained traffic recycles returned receive buffers instead of
	// allocating per message.
	cp := r.getPayload(len(data))
	copy(cp, data)
	r.net.ranks[to].in.put(message{from: r.ID, tag: tag, data: cp, arrival: r.Time, flow: flow})
}

// Recv blocks until the oldest unreceived message of the (from, tag) stream
// is there and returns its payload, advancing the receiver's clock to at
// least the message arrival time. Messages of one stream arrive in send
// order; streams are independent, so a rank may receive them in any order,
// and since deliver only max-advances the clock, on a fault-free machine the
// order a rank picks does not move its clock. The returned buffer may be
// handed back with Free once consumed; holding on to it is also fine.
func (r *Rank) Recv(from, tag int) []float64 {
	if from == r.ID || from < 0 || from >= r.net.P {
		panic(fmt.Sprintf("comm: rank %d cannot receive from rank %d of %d", r.ID, from, r.net.P))
	}
	return r.deliver(r.in.take(streamKey{from, tag}))
}

// deliver advances the receiver's clock to the message arrival time and
// closes the trace flow arrow opened by the matching Send. A receiver
// paused when the message lands picks it up once the pause window ends.
func (r *Rank) deliver(m message) []float64 {
	if m.arrival > r.Time {
		r.Time = m.arrival
	}
	r.maybePause()
	if tr := r.net.tracer; tr.WantsV(r.ID) {
		if m.flow != "" {
			tr.FlowV("f", r.ID, "msg", r.Time, m.flow)
		}
		tr.InstantV(r.ID, "recv", "comm", r.Time,
			map[string]any{"from": m.from, "tag": m.tag, "bytes": 8 * len(m.data)})
	}
	return m.data
}

// Compute advances the virtual clock by the modeled time of nflops local
// floating-point operations. Under a fault plan, matching straggler windows
// multiply the cost; the excess appears as a fault span on the rank's track
// so the trace shows exactly where the straggler bit.
func (r *Rank) Compute(nflops int64) {
	r.Flops += nflops
	dt := float64(nflops) * r.net.FlopSec
	if pl := r.net.faults; pl != nil {
		r.maybePause()
		if f := pl.ComputeFactor(r.ID, r.Time); f != 1 {
			t0 := r.Time
			r.Time += dt * f
			extra := dt*f - dt
			r.StallSec += extra
			if in := r.net.instr; in != nil {
				in.stall(extra)
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

// ---- Collectives ----

// tagBase offsets keep collective traffic distinct from user tags; user tags
// must stay below 1<<20.
const (
	tagAllreduce = 1 << 20
	tagBcast     = 1 << 21
)

// ReduceOp combines two equal-length vectors elementwise into dst.
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
func (r *Rank) Allreduce(data []float64, op ReduceOp) {
	in, tr := r.net.instr, r.net.tracer
	if in == nil && tr == nil {
		r.allreduce(data, op)
		return
	}
	t0, m0, b0 := r.Time, r.MsgsSent, r.BytesSent
	r.allreduce(data, op)
	if in != nil {
		in.allreduce.record(r.Time-t0, r.MsgsSent-m0, r.BytesSent-b0)
	}
	if tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "allreduce", "comm", t0, r.Time,
			map[string]any{"words": len(data), "msgs": r.MsgsSent - m0, "bytes": r.BytesSent - b0})
	}
}

func (r *Rank) allreduce(data []float64, op ReduceOp) {
	p := r.net.P
	if p == 1 {
		return
	}
	if p&(p-1) == 0 {
		for dist, round := 1, 0; dist < p; dist, round = dist<<1, round+1 {
			peer := r.ID ^ dist
			tag := tagAllreduce + round
			r.Send(peer, tag, data)
			got := r.Recv(peer, tag)
			op(data, got)
			r.Free(got)
		}
		return
	}
	r.reduceTree(data, op)
	r.bcastTree(data)
}

// reduceTree reduces to rank 0 along a binomial tree.
func (r *Rank) reduceTree(data []float64, op ReduceOp) {
	p := r.net.P
	for dist := 1; dist < p; dist <<= 1 {
		if r.ID&(2*dist-1) == 0 {
			src := r.ID + dist
			if src < p {
				got := r.Recv(src, tagAllreduce+dist)
				op(data, got)
				r.Free(got)
			}
		} else if r.ID&(dist-1) == 0 {
			r.Send(r.ID-dist, tagAllreduce+dist, data)
			return
		}
	}
}

// bcastTree broadcasts rank 0's data along a binomial tree (fan-out): in
// round dist, every rank that already holds the data and is a multiple of
// 2·dist forwards it to rank+dist.
func (r *Rank) bcastTree(data []float64) {
	p := r.net.P
	mask := 1
	for mask < p {
		mask <<= 1
	}
	received := r.ID == 0
	for dist := mask >> 1; dist >= 1; dist >>= 1 {
		switch {
		case received && r.ID%(2*dist) == 0 && r.ID+dist < p:
			r.Send(r.ID+dist, tagBcast+dist, data)
		case !received && r.ID%(2*dist) == dist:
			got := r.Recv(r.ID-dist, tagBcast+dist)
			copy(data, got)
			r.Free(got)
			received = true
		}
	}
	if !received {
		panic(fmt.Sprintf("comm: bcast failed to reach rank %d", r.ID))
	}
}

// Barrier synchronizes all ranks (allreduce of a scalar).
func (r *Rank) Barrier() {
	buf := []float64{0}
	in, tr := r.net.instr, r.net.tracer
	if in == nil && tr == nil {
		r.allreduce(buf, OpSum)
		return
	}
	t0, m0, b0 := r.Time, r.MsgsSent, r.BytesSent
	r.allreduce(buf, OpSum)
	if in != nil {
		in.barrier.record(r.Time-t0, r.MsgsSent-m0, r.BytesSent-b0)
	}
	if tr.WantsV(r.ID) {
		tr.SpanV(r.ID, "barrier", "comm", t0, r.Time,
			map[string]any{"msgs": r.MsgsSent - m0, "bytes": r.BytesSent - b0})
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
