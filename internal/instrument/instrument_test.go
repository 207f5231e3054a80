package instrument

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	tm := r.Timer("a")
	c := r.Counter("b")
	g := r.Gauge("c")
	if tm != nil || c != nil || g != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// All recording calls must be safe no-ops on nil handles.
	tm.End(tm.Begin())
	tm.Add(time.Second)
	c.Inc()
	c.Add(5)
	g.Set(3)
	if tm.Total() != 0 || tm.Count() != 0 || c.Value() != 0 || g.Mean() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	rep := r.Report()
	if len(rep.Timers)+len(rep.Counters)+len(rep.Gauges) != 0 {
		t.Fatal("nil registry report not empty")
	}
}

func TestTimerAccumulates(t *testing.T) {
	r := New()
	tm := r.Timer("phase")
	if r.Timer("phase") != tm {
		t.Fatal("Timer must return the same handle per name")
	}
	tm.Add(10 * time.Millisecond)
	tm.Add(5 * time.Millisecond)
	if tm.Total() != 15*time.Millisecond || tm.Count() != 2 {
		t.Fatalf("total %v count %d", tm.Total(), tm.Count())
	}
	start := tm.Begin()
	if start.IsZero() {
		t.Fatal("Begin on a live timer must read the clock")
	}
	tm.End(start)
	if tm.Count() != 3 {
		t.Fatal("End must count the section")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("iters")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter %d", c.Value())
	}
	g := r.Gauge("basis")
	for _, v := range []float64{4, 2, 6} {
		g.Set(v)
	}
	if gs := r.Report().Gauges[0]; gs.Last != 6 || gs.Mean != 4 || g.Mean() != 4 {
		t.Fatalf("gauge %+v, mean %g", gs, g.Mean())
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Timer("t").Add(time.Nanosecond)
				r.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter %d want 8000", got)
	}
	if got := r.Timer("t").Count(); got != 8000 {
		t.Fatalf("timer count %d want 8000", got)
	}
}

func TestReportSortedAndRendered(t *testing.T) {
	r := New()
	r.Timer("b/two").Add(time.Second)
	r.Timer("a/one").Add(3 * time.Second)
	r.Counter("z").Add(7)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(2.5)
	rep := r.Report()
	if rep.Timers[0].Name != "a/one" || rep.Counters[0].Name != "a" {
		t.Fatal("report not sorted by name")
	}
	if rep.Timers[0].Seconds != 3 || rep.Timers[0].Count != 1 {
		t.Fatalf("timer stat %+v", rep.Timers[0])
	}
	s := rep.String()
	for _, want := range []string{"a/one", "b/two", "75.0%", "z", "2.5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, s)
		}
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Timers) != 2 || back.Timers[1].Name != "b/two" {
		t.Fatal("JSON round-trip lost data")
	}
}

func TestWritePrometheusEscapesLabels(t *testing.T) {
	rep := Report{
		Counters: []CounterStat{{Name: `weird"name\x`, Value: 3}},
	}
	var b strings.Builder
	if err := WritePrometheus(&b, rep); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("semflow_counter{name=%q} 3\n", `weird"name\x`)
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}
