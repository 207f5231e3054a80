// Package instrument is the solver-wide metrics layer: named wall-clock
// timers, monotonic counters, and last/min/max/mean gauges that the hot
// layers (ns stepping, CG, Schwarz, the XXT coarse solver, the simulated
// comm network, and the gather–scatter) thread through their phases so a
// run can report the per-phase breakdowns of the paper's Sec. 7 —
// compute vs. communication time, iteration counts, projection savings —
// instead of a single end-to-end wall clock.
//
// The default is off and costs (almost) nothing: every handle type
// no-ops on a nil receiver, so instrumented code holds plain possibly-nil
// pointers and pays one predictable branch per event when no Registry is
// attached. Every method is safe for concurrent use: a run records from one
// goroutine, but a scrape of its registry (/metrics, /stats) may read it
// meanwhile. Counters and timers are atomic adds; a gauge or a histogram
// takes its own lock, so each of its reports shows one state.
package instrument

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Timer accumulates elapsed time and an event count under one name.
// The zero registry handle (nil *Timer) is a no-op.
type Timer struct {
	name  string
	ns    atomic.Int64
	count atomic.Int64
}

// Begin returns the start instant of a timed section. On a nil timer it
// returns the zero time without reading the clock.
func (t *Timer) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// End closes a section opened with Begin, accumulating the elapsed time.
func (t *Timer) End(start time.Time) {
	if t == nil {
		return
	}
	t.ns.Add(int64(time.Since(start)))
	t.count.Add(1)
}

// Add accumulates an externally-measured duration (one event). This is also
// how virtual (modeled) clocks are recorded: convert seconds to a Duration.
func (t *Timer) Add(d time.Duration) {
	if t == nil {
		return
	}
	t.ns.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated time.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Count returns the number of recorded sections.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// VTime records intervals of a modelled (virtual) clock, in seconds: each
// one as an event of Timer and, when Hist is not nil, a sample of Hist. The
// collectives, the gather–scatter exchange and the coarse solve all record
// their virtual time through it. The zero value no-ops.
type VTime struct {
	Timer *Timer
	Hist  *Histogram
}

// Record records one interval of dt virtual seconds.
func (v VTime) Record(dt float64) {
	v.Timer.Add(time.Duration(dt * float64(time.Second)))
	v.Hist.Observe(dt)
}

// Counter is a monotonically increasing integer (iterations, messages,
// words exchanged). Nil receivers no-op.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge records a sampled value, keeping last/min/max and the mean over
// all samples (projection basis size, residual savings). Nil receivers
// no-op.
type Gauge struct {
	name string
	mu   sync.Mutex
	last float64
	min  float64
	max  float64
	sum  float64
	n    int64
}

// Set records one sample.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.n == 0 || v < g.min {
		g.min = v
	}
	if g.n == 0 || v > g.max {
		g.max = v
	}
	g.last = v
	g.sum += v
	g.n++
	g.mu.Unlock()
}

// Mean returns the mean of all samples (0 before any Set).
func (g *Gauge) Mean() float64 {
	if g == nil {
		return 0
	}
	return g.stat().Mean
}

// stat returns the gauge's state, read under its lock.
func (g *Gauge) stat() GaugeStat {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GaugeStat{Name: g.name, Last: g.last, Min: g.min, Max: g.max}
	if g.n > 0 {
		st.Mean = g.sum / float64(g.n)
	}
	return st
}

// RunMeta identifies the run a report came from: the case and machine
// configuration that make a stats artifact self-describing and diffable
// across runs. Attach it with Registry.SetMeta; it is serialized ahead of
// the metric sections.
type RunMeta struct {
	Case        string `json:"case,omitempty"`
	Ranks       int    `json:"ranks,omitempty"`
	Elements    int    `json:"elements,omitempty"`
	Order       int    `json:"order,omitempty"`
	Steps       int    `json:"steps,omitempty"`
	PIters      int    `json:"piters,omitempty"`
	FaultSeed   int64  `json:"fault_seed,omitempty"`
	TraceSample int    `json:"trace_sample,omitempty"`

	// Pressure preconditioner: the resolved variant and how it was chosen
	// ("forced", "default", "table", "trial").
	Precond       string `json:"precond,omitempty"`
	PrecondSource string `json:"precond_source,omitempty"`
}

// Registry is a collection of named metrics. The nil *Registry is the
// disabled default: its lookup methods return nil handles, which no-op.
type Registry struct {
	mu         sync.Mutex
	timers     map[string]*Timer
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	meta       *RunMeta
}

// New returns an enabled, empty registry.
func New() *Registry {
	return &Registry{
		timers:     make(map[string]*Timer),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// SetMeta attaches run metadata to the registry (no-op on nil).
func (r *Registry) SetMeta(m RunMeta) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.meta = &m
	r.mu.Unlock()
}

// Timer returns (creating if needed) the named timer; nil on a nil registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{name: name}
		r.timers[name] = t
	}
	return t
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; nil on a nil
// registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(name)
		r.histograms[name] = h
	}
	return h
}

// VTime returns the recorder of the timer name+".vtime" and the histogram
// name+".vtime.hist"; the zero VTime on a nil registry.
func (r *Registry) VTime(name string) VTime {
	return VTime{Timer: r.Timer(name + ".vtime"), Hist: r.Histogram(name + ".vtime.hist")}
}

// TimerStat is one timer's snapshot.
type TimerStat struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// CounterStat is one counter's snapshot.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeStat is one gauge's snapshot.
type GaugeStat struct {
	Name string  `json:"name"`
	Last float64 `json:"last"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// Report is a structured snapshot of a registry, sorted by name.
type Report struct {
	Meta       *RunMeta        `json:"meta,omitempty"`
	Timers     []TimerStat     `json:"timers"`
	Counters   []CounterStat   `json:"counters"`
	Gauges     []GaugeStat     `json:"gauges"`
	Histograms []HistogramStat `json:"histograms,omitempty"`
}

// Report snapshots the registry. A nil registry yields an empty report.
func (r *Registry) Report() Report {
	var rep Report
	if r == nil {
		return rep
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, t := range r.timers {
		rep.Timers = append(rep.Timers, TimerStat{
			Name: name, Seconds: t.Total().Seconds(), Count: t.Count(),
		})
	}
	for name, c := range r.counters {
		rep.Counters = append(rep.Counters, CounterStat{Name: name, Value: c.Value()})
	}
	if r.meta != nil {
		m := *r.meta
		rep.Meta = &m
	}
	for _, h := range r.histograms {
		rep.Histograms = append(rep.Histograms, h.Stat())
	}
	for _, g := range r.gauges {
		rep.Gauges = append(rep.Gauges, g.stat())
	}
	sort.Slice(rep.Timers, func(i, j int) bool { return rep.Timers[i].Name < rep.Timers[j].Name })
	sort.Slice(rep.Counters, func(i, j int) bool { return rep.Counters[i].Name < rep.Counters[j].Name })
	sort.Slice(rep.Gauges, func(i, j int) bool { return rep.Gauges[i].Name < rep.Gauges[j].Name })
	sort.Slice(rep.Histograms, func(i, j int) bool { return rep.Histograms[i].Name < rep.Histograms[j].Name })
	return rep
}

// String renders the report as an aligned text table. Timer shares are
// relative to the sum of top-level phase timers (names without '/' beyond
// the first segment get no special treatment — shares are of total timer
// time).
func (rep Report) String() string {
	var b strings.Builder
	if m := rep.Meta; m != nil {
		fmt.Fprintf(&b, "run: case=%s ranks=%d elements=%d order=%d steps=%d",
			m.Case, m.Ranks, m.Elements, m.Order, m.Steps)
		if m.PIters > 0 {
			fmt.Fprintf(&b, " piters=%d", m.PIters)
		}
		if m.FaultSeed != 0 {
			fmt.Fprintf(&b, " fault_seed=%d", m.FaultSeed)
		}
		if m.TraceSample > 0 {
			fmt.Fprintf(&b, " trace_sample=%d", m.TraceSample)
		}
		b.WriteString("\n\n")
	}
	if len(rep.Timers) > 0 {
		var total float64
		for _, t := range rep.Timers {
			total += t.Seconds
		}
		fmt.Fprintf(&b, "%-34s %12s %10s %7s\n", "timer", "seconds", "count", "share")
		for _, t := range rep.Timers {
			share := 0.0
			if total > 0 {
				share = 100 * t.Seconds / total
			}
			fmt.Fprintf(&b, "%-34s %12.4f %10d %6.1f%%\n", t.Name, t.Seconds, t.Count, share)
		}
	}
	if len(rep.Counters) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-34s %12s\n", "counter", "value")
		for _, c := range rep.Counters {
			fmt.Fprintf(&b, "%-34s %12d\n", c.Name, c.Value)
		}
	}
	if len(rep.Gauges) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-34s %10s %10s %10s %10s\n", "gauge", "last", "min", "max", "mean")
		for _, g := range rep.Gauges {
			fmt.Fprintf(&b, "%-34s %10.4g %10.4g %10.4g %10.4g\n", g.Name, g.Last, g.Min, g.Max, g.Mean)
		}
	}
	if len(rep.Histograms) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-34s %10s %10s %10s %10s %10s %10s\n",
			"histogram", "count", "min", "p50", "p90", "p99", "max")
		for _, h := range rep.Histograms {
			fmt.Fprintf(&b, "%-34s %10d %10.4g %10.4g %10.4g %10.4g %10.4g\n",
				h.Name, h.Count, h.Min, h.P50, h.P90, h.P99, h.Max)
		}
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (rep Report) JSON() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// WritePrometheus renders a Report in the Prometheus text exposition
// format (version 0.0.4). Registry names become a "name" label on a small
// set of metric families, so arbitrary slash-and-dot metric names survive
// the Prometheus data model; histograms are exposed as summaries with
// p50/p90/p99 quantiles plus _sum and _count.
func WritePrometheus(w io.Writer, rep Report) error {
	write := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if len(rep.Timers) > 0 {
		if err := write("# HELP semflow_timer_seconds Accumulated time per named timer.\n# TYPE semflow_timer_seconds counter\n"); err != nil {
			return err
		}
		for _, t := range rep.Timers {
			if err := write("semflow_timer_seconds{name=%q} %g\nsemflow_timer_count{name=%q} %d\n",
				t.Name, t.Seconds, t.Name, t.Count); err != nil {
				return err
			}
		}
	}
	if len(rep.Counters) > 0 {
		if err := write("# HELP semflow_counter Monotonic event counters.\n# TYPE semflow_counter counter\n"); err != nil {
			return err
		}
		for _, c := range rep.Counters {
			if err := write("semflow_counter{name=%q} %d\n", c.Name, c.Value); err != nil {
				return err
			}
		}
	}
	if len(rep.Gauges) > 0 {
		if err := write("# HELP semflow_gauge Last sampled value per named gauge.\n# TYPE semflow_gauge gauge\n"); err != nil {
			return err
		}
		for _, g := range rep.Gauges {
			if err := write("semflow_gauge{name=%q} %g\nsemflow_gauge_mean{name=%q} %g\n",
				g.Name, g.Last, g.Name, g.Mean); err != nil {
				return err
			}
		}
	}
	if len(rep.Histograms) > 0 {
		if err := write("# HELP semflow_histogram Distribution summaries (log-bucketed estimates).\n# TYPE semflow_histogram summary\n"); err != nil {
			return err
		}
		for _, h := range rep.Histograms {
			n := h.Name
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
				if err := write("semflow_histogram{name=%q,quantile=%q} %g\n", n, q.q, q.v); err != nil {
					return err
				}
			}
			if err := write("semflow_histogram_sum{name=%q} %g\nsemflow_histogram_count{name=%q} %d\n",
				n, h.Sum, n, h.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
