package instrument

// trace.go is the event layer of the instrumentation package: where the
// Timer/Counter/Gauge registry answers "how much per phase in aggregate",
// the Tracer answers "when": it records spans and instants stamped with
// either the real wall clock or a simulated rank's virtual clock, and
// serializes them as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing. The same nil-receiver contract applies: every method
// no-ops on a nil *Tracer, so traced code holds possibly-nil pointers and
// pays one branch per event when tracing is off.
//
// Track layout: process PidWall (pid 0) carries wall-clock spans of the
// real solver process as B/E begin–end pairs (one thread, tid 0); process
// PidMachine (pid 1) carries the simulated machine, one thread (track) per
// rank, with complete "X" spans whose timestamps are the per-rank virtual
// clocks in microseconds. Message traffic appears as flow events ("s" at
// the sender, "f" at the receiver) so Perfetto draws the arrows of the
// communication timeline. The two clocks share one time axis but never mix
// on one track.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Track process ids.
const (
	// PidWall is the wall-clock process: spans of the real solver process.
	PidWall = 0
	// PidMachine is the simulated machine: one thread (tid) per rank,
	// timestamped by the per-rank virtual clocks.
	PidMachine = 1
)

// TraceEvent is one Chrome trace-event. Ts and Dur are microseconds.
type TraceEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer collects trace events. The nil *Tracer is the disabled default:
// every method returns immediately.
type Tracer struct {
	mu      sync.Mutex
	events  []TraceEvent
	names   []TraceEvent // metadata (process/thread name) events
	noWall  bool
	sampled map[int]bool // nil: every virtual rank track is recorded
	t0      time.Time
}

// NewTracer returns an enabled, empty tracer with the wall-clock epoch at
// the call instant.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// DisableWallClock stops the tracer reading the real clock: wall-clock
// spans get zero timestamps and virtual events drop their wall-time args.
// Traces of a deterministic simulated run then serialize bit-identically
// across runs (the determinism regression tests rely on this).
func (t *Tracer) DisableWallClock() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.noWall = true
	t.mu.Unlock()
}

// SampleVRanks restricts the virtual-machine tracks (PidMachine) to the
// given rank ids: SpanV/InstantV/FlowV calls for other ranks are dropped,
// as are their thread-name metadata events. Aggregate instrumentation
// (registry histograms, timers) is unaffected — this is what makes
// paper-scale runs traceable: every rank still contributes to the merged
// rollups while only the sampled ranks pay the per-event trace cost.
// Call before the simulated machine starts; nil or empty restores full
// tracing.
func (t *Tracer) SampleVRanks(ranks []int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(ranks) == 0 {
		t.sampled = nil
		return
	}
	t.sampled = make(map[int]bool, len(ranks))
	for _, r := range ranks {
		t.sampled[r] = true
	}
}

// WantsV reports whether virtual events for rank tid will be recorded.
// This is the hot-path guard: callers check it before building an args map,
// so unsampled ranks pay one branch and zero allocations per would-be
// event. Nil tracers want nothing; a tracer without sampling wants every
// rank. The sampling set is fixed before the ranks start, so the read is
// unsynchronized by design.
func (t *Tracer) WantsV(tid int) bool {
	if t == nil {
		return false
	}
	return t.sampled == nil || t.sampled[tid]
}

// wallUS returns microseconds since the tracer epoch (0 when disabled).
// Caller holds no lock; noWall is only written before concurrent use.
func (t *Tracer) wallUS() float64 {
	if t.noWall {
		return 0
	}
	return float64(time.Since(t.t0)) / float64(time.Microsecond)
}

func (t *Tracer) emit(ev TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Span is an open wall-clock section started with Begin. The zero Span
// no-ops on End.
type Span struct {
	t        *Tracer
	pid, tid int
	name     string
}

// Begin opens a wall-clock span (a "B" event) on the given track and
// returns the handle that closes it. Nil tracers return the no-op Span.
func (t *Tracer) Begin(pid, tid int, name, cat string) Span {
	if t == nil {
		return Span{}
	}
	t.emit(TraceEvent{Name: name, Cat: cat, Ph: "B", Ts: t.wallUS(), Pid: pid, Tid: tid})
	return Span{t: t, pid: pid, tid: tid, name: name}
}

// End closes the span (an "E" event).
func (s Span) End() { s.EndWith(nil) }

// EndWith closes the span attaching args to the end event.
func (s Span) EndWith(args map[string]any) {
	if s.t == nil {
		return
	}
	s.t.emit(TraceEvent{Name: s.name, Ph: "E", Ts: s.t.wallUS(), Pid: s.pid, Tid: s.tid, Args: args})
}

// SpanV records a complete ("X") span on the virtual-machine track of rank
// tid, with start/end in virtual seconds. When the wall clock is enabled
// the emission instant is attached as args["wall_us"], so every virtual
// event is stamped with both clocks.
func (t *Tracer) SpanV(tid int, name, cat string, t0, t1 float64, args map[string]any) {
	if !t.WantsV(tid) {
		return
	}
	if !t.noWall {
		if args == nil {
			args = map[string]any{}
		}
		args["wall_us"] = t.wallUS()
	}
	t.emit(TraceEvent{Name: name, Cat: cat, Ph: "X", Ts: t0 * 1e6, Dur: (t1 - t0) * 1e6,
		Pid: PidMachine, Tid: tid, Args: args})
}

// InstantV records an instant ("i") event on rank tid's virtual track.
func (t *Tracer) InstantV(tid int, name, cat string, ts float64, args map[string]any) {
	if !t.WantsV(tid) {
		return
	}
	if !t.noWall {
		if args == nil {
			args = map[string]any{}
		}
		args["wall_us"] = t.wallUS()
	}
	t.emit(TraceEvent{Name: name, Cat: cat, Ph: "i", Ts: ts * 1e6,
		Pid: PidMachine, Tid: tid, Args: args})
}

// FlowV records a flow event (ph "s" for start at the sender, "f" for
// finish at the receiver) binding two rank tracks with the shared id.
func (t *Tracer) FlowV(ph string, tid int, name string, ts float64, id string) {
	if !t.WantsV(tid) {
		return
	}
	t.emit(TraceEvent{Name: name, Cat: "msg", Ph: ph, Ts: ts * 1e6,
		Pid: PidMachine, Tid: tid, ID: id})
}

// SetProcessName attaches a metadata name to a pid track group.
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names = append(t.names, TraceEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}})
	t.mu.Unlock()
}

// SetThreadName attaches a metadata name to one track. Machine-rank tracks
// excluded by SampleVRanks are dropped, so a sampled trace names exactly
// the tracks it carries.
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	if pid == PidMachine && !t.WantsV(tid) {
		return
	}
	t.mu.Lock()
	t.names = append(t.names, TraceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}})
	t.mu.Unlock()
}

// Events returns the recorded events in serialization order: grouped by
// track (pid, then tid), within a track sorted by timestamp; ties keep
// emission order except that longer "X" spans precede shorter ones so
// nesting renders correctly. Each track's events come from one goroutine
// (a rank, or the main solver loop), so this order — and therefore the
// serialized trace of a deterministic simulated run — is reproducible.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	evs := append([]TraceEvent(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Ph == "X" && b.Ph == "X" && a.Dur != b.Dur {
			return a.Dur > b.Dur // enclosing span first
		}
		return false
	})
	return evs
}

// Len returns the number of recorded events (metadata excluded).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// chromeTrace is the serialized top-level object.
type chromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON serializes the trace as Chrome trace-event JSON (metadata
// events first, then the track-ordered events).
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("instrument: WriteJSON on nil Tracer")
	}
	t.mu.Lock()
	meta := append([]TraceEvent(nil), t.names...)
	t.mu.Unlock()
	all := append(meta, t.Events()...)
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: all, DisplayTimeUnit: "ms"})
}

// ValidateChromeTrace checks that data is a structurally valid Chrome
// trace: a traceEvents array whose events all carry ph/ts/pid, balanced
// B/E pairs per track, non-negative X durations, flows closed in both
// directions (every start has its finish and every finish its start), and
// per-track non-decreasing timestamps. minMachineRanks requires at least
// that many distinct rank tracks under PidMachine. It is shared by the trace
// tests and the cmd/tracecheck CI gate.
//
// Flow closure holds for every trace the tree writes, rank-sampled ones
// included: comm opens an arrow only when both endpoint tracks are recorded,
// and the distributed stepper fails a batch that leaves a message
// undelivered. An open start is a send whose delivery never bound to it.
func ValidateChromeTrace(data []byte, minMachineRanks int) error {
	var top struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &top); err != nil {
		return fmt.Errorf("trace: not a JSON object: %w", err)
	}
	if top.TraceEvents == nil {
		return fmt.Errorf("trace: missing traceEvents array")
	}
	type track struct{ pid, tid int }
	stacks := make(map[track][]string)
	lastTs := make(map[track]float64)
	flowStart := make(map[string]bool)
	flowEnd := make(map[string]bool)
	machineRanks := make(map[int]bool)
	for i, raw := range top.TraceEvents {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		for _, req := range []string{"ph", "ts", "pid"} {
			if _, ok := fields[req]; !ok {
				return fmt.Errorf("trace: event %d: missing required field %q", i, req)
			}
		}
		var ev TraceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		if ev.Ph == "M" {
			continue
		}
		tr := track{ev.Pid, ev.Tid}
		if prev, ok := lastTs[tr]; ok && ev.Ts < prev {
			return fmt.Errorf("trace: event %d (%s %q): timestamp %g decreases below %g on track pid=%d tid=%d",
				i, ev.Ph, ev.Name, ev.Ts, prev, ev.Pid, ev.Tid)
		}
		lastTs[tr] = ev.Ts
		if ev.Pid == PidMachine {
			machineRanks[ev.Tid] = true
		}
		switch ev.Ph {
		case "B":
			stacks[tr] = append(stacks[tr], ev.Name)
		case "E":
			st := stacks[tr]
			if len(st) == 0 {
				return fmt.Errorf("trace: event %d: E %q with no open B on track pid=%d tid=%d", i, ev.Name, ev.Pid, ev.Tid)
			}
			if open := st[len(st)-1]; ev.Name != "" && open != "" && ev.Name != open {
				return fmt.Errorf("trace: event %d: E %q closes B %q", i, ev.Name, open)
			}
			stacks[tr] = st[:len(st)-1]
		case "X":
			if _, ok := fields["dur"]; ok && ev.Dur < 0 {
				return fmt.Errorf("trace: event %d: X %q with negative dur %g", i, ev.Name, ev.Dur)
			}
		case "s":
			if ev.ID == "" {
				return fmt.Errorf("trace: event %d: flow start without id", i)
			}
			flowStart[ev.ID] = true
		case "f":
			if ev.ID == "" {
				return fmt.Errorf("trace: event %d: flow finish without id", i)
			}
			flowEnd[ev.ID] = true
		case "i", "I":
			// instant: nothing beyond the common checks
		default:
			return fmt.Errorf("trace: event %d: unknown phase %q", i, ev.Ph)
		}
	}
	for tr, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("trace: track pid=%d tid=%d: %d unclosed B events (first %q)",
				tr.pid, tr.tid, len(st), st[0])
		}
	}
	for id := range flowEnd {
		if !flowStart[id] {
			return fmt.Errorf("trace: flow finish %q without matching start", id)
		}
	}
	for id := range flowStart {
		if !flowEnd[id] {
			return fmt.Errorf("trace: flow start %q without matching finish (dropped send/recv binding)", id)
		}
	}
	if len(machineRanks) < minMachineRanks {
		return fmt.Errorf("trace: %d rank tracks under pid %d, want >= %d",
			len(machineRanks), PidMachine, minMachineRanks)
	}
	return nil
}

// CountCategory returns how many events in a Chrome trace carry category
// cat (e.g. "fault" for the fault-injection spans). It shares the trace
// format with ValidateChromeTrace but does no structural checking.
func CountCategory(data []byte, cat string) (int, error) {
	var top struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &top); err != nil {
		return 0, fmt.Errorf("trace: not a JSON object: %w", err)
	}
	n := 0
	for i, raw := range top.TraceEvents {
		var ev TraceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if ev.Cat == cat {
			n++
		}
	}
	return n, nil
}

// TimeSeries is an append-only per-step record collector serialized as
// JSON Lines (one record per line). The nil *TimeSeries no-ops, matching
// the Timer/Counter/Gauge contract.
type TimeSeries struct {
	mu   sync.Mutex
	recs []any
}

// NewTimeSeries returns an enabled, empty collector.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// Append adds one record.
func (s *TimeSeries) Append(rec any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

// Len returns the number of records.
func (s *TimeSeries) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Records returns a snapshot of the collected records.
func (s *TimeSeries) Records() []any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]any(nil), s.recs...)
}

// WriteJSONL writes one JSON object per line.
func (s *TimeSeries) WriteJSONL(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("instrument: WriteJSONL on nil TimeSeries")
	}
	enc := json.NewEncoder(w)
	for _, rec := range s.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
