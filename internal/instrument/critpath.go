package instrument

// critpath.go analyzes the virtual-clock span DAG of a recorded trace: the
// per-rank X spans are the nodes' work, and the s/f flow arrows (emitted by
// comm.Send/deliver) are the dependency edges between ranks. Walking the
// arrows backward from the last rank to finish yields the run's critical
// path — the single chain of local work and message waits that determines
// the modeled completion time — which is then attributed to phase ×
// category × rank. This is the measured counterpart of the paper's Sec. 7
// performance model: instead of predicting where P=1024 time goes, it reads
// it off the trace.
//
// The walk exploits an exactness property of the simulated machine: a
// receive gates its receiver if and only if the flow-finish timestamp
// equals the flow-start timestamp. The sender emits "s" at its clock after
// paying the send cost (= the message arrival time), and the receiver
// emits "f" at its clock after delivery, which is max(arrival, own time).
// Equality therefore means the receiver was waiting — float-exact, no
// epsilon. At such an arrow the path hops to the sender and continues
// behind its send span; everything between two gating receives is the
// rank's own (critical) local work.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// CPSegment is one hop of the critical path, forward in time. Wire
// segments cover a gating message's transmit cost on the sender's clock;
// local segments cover work (or modeled comm cost inside collectives) on
// one rank.
type CPSegment struct {
	Rank     int     `json:"rank"`
	T0       float64 `json:"t0"` // seconds, virtual
	T1       float64 `json:"t1"`
	Wire     bool    `json:"wire,omitempty"`
	Category string  `json:"category"` // allreduce, gs, send, coarse, schwarz/*, fault, compute
	Phase    string  `json:"phase"`    // convect, viscous, pressure, filter, or setup
	Step     int     `json:"step"`     // 0 = outside any step (setup)
}

// CPStep aggregates the critical path inside one time step.
type CPStep struct {
	Step       int                `json:"step"`
	Seconds    float64            `json:"seconds"`
	ByCategory map[string]float64 `json:"by_category"`
	ByPhase    map[string]float64 `json:"by_phase"`
	ByRank     map[int]float64    `json:"by_rank"`
}

// CPRank is one rank's share of the critical path: OnPath is the virtual
// time the path spent on the rank, Slack how much of the run's total it
// was off the path.
type CPRank struct {
	Rank    int     `json:"rank"`
	OnPath  float64 `json:"on_path"`
	Slack   float64 `json:"slack"`
	EndTime float64 `json:"end_time"` // rank's final clock
}

// CritPath is the analyzer's result.
type CritPath struct {
	TotalSeconds float64            `json:"total_seconds"` // modeled completion time (path length)
	EndRank      int                `json:"end_rank"`      // rank whose finish defines the total
	Ranks        int                `json:"ranks"`         // rank tracks present in the trace
	Hops         int                `json:"hops"`          // gating receives on the path
	ByCategory   map[string]float64 `json:"by_category"`
	ByPhase      map[string]float64 `json:"by_phase"`
	Steps        []CPStep           `json:"steps"`
	PerRank      []CPRank           `json:"per_rank"` // sorted by OnPath descending
	Segments     []CPSegment        `json:"segments,omitempty"`
}

// cpSpan is a parsed X span on a machine track.
type cpSpan struct {
	t0, t1 float64 // seconds
	prio   int     // attribution priority, 0 = not an attribution span
	label  string
}

// cpPhase is a parsed ns/* phase span.
type cpPhase struct {
	t0, t1 float64
	phase  string
	step   int
}

// cpFlow is a flow-finish on a rank, annotated with its start.
type cpFlow struct {
	ts     float64 // receiver timestamp (seconds)
	sTs    float64 // sender timestamp
	sRank  int
	gating bool // ts == sTs: the receiver was waiting on this message
}

// attrClass ranks a span for time attribution. Collectives win over the
// spans that contain them (an allreduce inside the Schwarz coarse solve is
// allreduce time, which is exactly the latency story the strong-scaling
// study tells); point-to-point sends and exchanges come next; preconditioner
// and fault windows claim what no comm span covers; the rest is compute.
func attrClass(name, cat string) (int, string) {
	switch name {
	case "allreduce", "bcast", "gather", "barrier":
		return 1, name
	case "gs/exchange":
		return 2, "gs"
	case "send":
		return 3, "send"
	}
	if cat == "fault" {
		return 4, "fault"
	}
	if name == "coarse/xxt.solve" {
		return 5, "coarse"
	}
	if cat == "precond" {
		return 6, name // schwarz/local, schwarz/coarse
	}
	return 0, ""
}

// rankTL is one rank's parsed timeline.
type rankTL struct {
	spans  []cpSpan // attribution spans sorted by t0
	maxDur float64  // longest attribution span (bounds overlap scans)
	phases []cpPhase
	flows  []cpFlow // sorted by ts
	sends  []cpSpan // send spans sorted by end time
	end    float64  // final clock (max span end)
}

// sendEndingAt returns the send span that ends where a flow arrow starts: a
// span is stored as (ts, dur), so its end reads back a rounding away from the
// arrow's time. The tolerance is far below the shortest send.
func (t *rankTL) sendEndingAt(ts float64) (cpSpan, bool) {
	tol := 1e-12 * (1 + ts)
	i := sort.Search(len(t.sends), func(i int) bool { return t.sends[i].t1 >= ts-tol })
	if i == len(t.sends) || t.sends[i].t1 > ts+tol {
		return cpSpan{}, false
	}
	return t.sends[i], true
}

// AnalyzeCriticalPath parses a Chrome trace produced by the simulated
// machine and walks its critical path. The trace may be rank-sampled: the
// walk then runs over the recorded tracks only (flow arrows exist only
// between sampled ranks), which bounds the true critical path from below.
func AnalyzeCriticalPath(data []byte) (*CritPath, error) {
	var top struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, fmt.Errorf("critpath: not a JSON trace: %w", err)
	}
	tls := make(map[int]*rankTL)
	tl := func(tid int) *rankTL {
		t, ok := tls[tid]
		if !ok {
			t = &rankTL{}
			tls[tid] = t
		}
		return t
	}
	// First pass: spans, phases, and flow starts.
	type flowStart struct {
		rank int
		ts   float64
	}
	starts := make(map[string]flowStart)
	type rawFlowEnd struct {
		rank int
		ts   float64
		id   string
	}
	var ends []rawFlowEnd
	for i, raw := range top.TraceEvents {
		var ev TraceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("critpath: event %d: %w", i, err)
		}
		if ev.Pid != PidMachine {
			continue
		}
		t := tl(ev.Tid)
		switch ev.Ph {
		case "X":
			t0, t1 := ev.Ts/1e6, (ev.Ts+ev.Dur)/1e6
			if t1 > t.end {
				t.end = t1
			}
			if prio, label := attrClass(ev.Name, ev.Cat); prio > 0 {
				t.spans = append(t.spans, cpSpan{t0: t0, t1: t1, prio: prio, label: label})
				if d := t1 - t0; d > t.maxDur {
					t.maxDur = d
				}
				if ev.Name == "send" {
					t.sends = append(t.sends, cpSpan{t0: t0, t1: t1, prio: 3, label: "send"})
				}
			}
			if ev.Cat == "ns" {
				step := 0
				if s, ok := ev.Args["step"].(float64); ok {
					step = int(s)
				}
				phase := ev.Name
				if len(phase) > 3 && phase[:3] == "ns/" {
					phase = phase[3:]
				}
				t.phases = append(t.phases, cpPhase{t0: t0, t1: t1, phase: phase, step: step})
			}
		case "s":
			starts[ev.ID] = flowStart{rank: ev.Tid, ts: ev.Ts / 1e6}
		case "f":
			ends = append(ends, rawFlowEnd{rank: ev.Tid, ts: ev.Ts / 1e6, id: ev.ID})
		}
	}
	if len(tls) == 0 {
		return nil, fmt.Errorf("critpath: no machine-rank events (pid %d) in trace", PidMachine)
	}
	for _, fe := range ends {
		st, ok := starts[fe.id]
		if !ok {
			return nil, fmt.Errorf("critpath: flow finish %q without start", fe.id)
		}
		t := tl(fe.rank)
		t.flows = append(t.flows, cpFlow{ts: fe.ts, sTs: st.ts, sRank: st.rank, gating: fe.ts == st.ts})
	}
	for _, t := range tls {
		sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].t0 < t.spans[j].t0 })
		sort.Slice(t.phases, func(i, j int) bool { return t.phases[i].t0 < t.phases[j].t0 })
		sort.Slice(t.flows, func(i, j int) bool { return t.flows[i].ts < t.flows[j].ts })
		sort.Slice(t.sends, func(i, j int) bool { return t.sends[i].t1 < t.sends[j].t1 })
	}

	// Walk backward from the rank that finishes last.
	endRank, endTime := -1, math.Inf(-1)
	ranksSorted := make([]int, 0, len(tls))
	for id, t := range tls {
		ranksSorted = append(ranksSorted, id)
		if t.end > endTime || (t.end == endTime && id < endRank) {
			endRank, endTime = id, t.end
		}
	}
	sort.Ints(ranksSorted)

	var segs []CPSegment // built backward, reversed at the end
	hops := 0
	rank, t := endRank, endTime
	for t > 0 {
		cur := tls[rank]
		// Latest gating receive at or before t.
		idx := sort.Search(len(cur.flows), func(i int) bool { return cur.flows[i].ts > t }) - 1
		for idx >= 0 && !cur.flows[idx].gating {
			idx--
		}
		if idx < 0 {
			segs = appendAttributed(segs, tls, rank, 0, t, false)
			break
		}
		f := cur.flows[idx]
		segs = appendAttributed(segs, tls, rank, f.ts, t, false)
		// Hop to the sender, crossing its send span (the wire time).
		sender := tls[f.sRank]
		send, ok := sender.sendEndingAt(f.sTs)
		if !ok || send.t0 >= f.ts {
			// No send span recorded (shouldn't happen) or no progress
			// possible; attribute the rest locally and stop.
			segs = appendAttributed(segs, tls, rank, 0, f.ts, false)
			break
		}
		segs = appendAttributed(segs, tls, f.sRank, send.t0, send.t1, true)
		hops++
		rank, t = f.sRank, send.t0
	}
	// Reverse into forward time order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}

	cp := &CritPath{
		TotalSeconds: endTime,
		EndRank:      endRank,
		Ranks:        len(tls),
		Hops:         hops,
		ByCategory:   map[string]float64{},
		ByPhase:      map[string]float64{},
		Segments:     segs,
	}
	stepAgg := map[int]*CPStep{}
	onPath := map[int]float64{}
	for _, s := range segs {
		d := s.T1 - s.T0
		if d <= 0 {
			continue
		}
		cp.ByCategory[s.Category] += d
		cp.ByPhase[s.Phase] += d
		onPath[s.Rank] += d
		st, ok := stepAgg[s.Step]
		if !ok {
			st = &CPStep{Step: s.Step,
				ByCategory: map[string]float64{}, ByPhase: map[string]float64{}, ByRank: map[int]float64{}}
			stepAgg[s.Step] = st
		}
		st.Seconds += d
		st.ByCategory[s.Category] += d
		st.ByPhase[s.Phase] += d
		st.ByRank[s.Rank] += d
	}
	stepIDs := make([]int, 0, len(stepAgg))
	for id := range stepAgg {
		stepIDs = append(stepIDs, id)
	}
	sort.Ints(stepIDs)
	for _, id := range stepIDs {
		cp.Steps = append(cp.Steps, *stepAgg[id])
	}
	for _, id := range ranksSorted {
		cp.PerRank = append(cp.PerRank, CPRank{
			Rank: id, OnPath: onPath[id], Slack: endTime - onPath[id], EndTime: tls[id].end,
		})
	}
	sort.SliceStable(cp.PerRank, func(i, j int) bool { return cp.PerRank[i].OnPath > cp.PerRank[j].OnPath })
	return cp, nil
}

// appendAttributed splits [a, b] on rank by attribution span coverage and
// phase windows and appends the resulting segments (backward order is fine
// — the caller reverses once at the end).
func appendAttributed(segs []CPSegment, tls map[int]*rankTL, rank int, a, b float64, wire bool) []CPSegment {
	if b <= a {
		return segs
	}
	t := tls[rank]
	// Candidate attribution spans overlapping [a, b]: spans are sorted by
	// t0 and nested, so scanning left is bounded by the longest span.
	var cands []cpSpan
	hi := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].t0 >= b })
	for i := hi - 1; i >= 0 && t.spans[i].t0+t.maxDur > a; i-- {
		if sp := t.spans[i]; sp.t1 > a {
			cands = append(cands, sp)
		}
	}
	// Elementary intervals between all span boundaries inside [a, b].
	cuts := []float64{a, b}
	for _, sp := range cands {
		if sp.t0 > a && sp.t0 < b {
			cuts = append(cuts, sp.t0)
		}
		if sp.t1 > a && sp.t1 < b {
			cuts = append(cuts, sp.t1)
		}
	}
	sort.Float64s(cuts)
	// Emit backward in time: the caller builds the whole path backward and
	// reverses once, which restores forward order inside each stretch too.
	for i := len(cuts) - 2; i >= 0; i-- {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		mid := lo + (hi-lo)/2
		cat := "compute"
		best := int(^uint(0) >> 1)
		for _, sp := range cands {
			if sp.t0 <= mid && mid < sp.t1 && sp.prio < best {
				best, cat = sp.prio, sp.label
			}
		}
		phase, step := phaseAt(t, mid)
		segs = append(segs, CPSegment{Rank: rank, T0: lo, T1: hi, Wire: wire,
			Category: cat, Phase: phase, Step: step})
	}
	return segs
}

// phaseAt finds the ns phase window covering time ts on a rank ("setup"
// outside any step).
func phaseAt(t *rankTL, ts float64) (string, int) {
	idx := sort.Search(len(t.phases), func(i int) bool { return t.phases[i].t0 > ts }) - 1
	// Phase spans partition each step but steps abut; scan left a little in
	// case of zero-length phases sharing a start.
	for i := idx; i >= 0 && i > idx-4; i-- {
		if ph := t.phases[i]; ph.t0 <= ts && ts < ph.t1 {
			return ph.phase, ph.step
		}
	}
	return "setup", 0
}
