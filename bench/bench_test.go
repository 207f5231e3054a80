package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/instrument"
)

// benchmarkJSON mirrors BENCHMARK.json: exactly these keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps the lists in spec.go and the driver's
// BENCHMARK.json identical, and both inside the driver's grammar.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Command) < 2 || doc.Command[0] != "bash" || doc.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v, want bash bench/run.sh", doc.Command)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", doc.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the name grammar", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go (2..8 allowed)", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, doc.Workloads[i], w)
		}
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) || len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go (1..16 allowed)", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Bound == nil || d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || *d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, d, m)
		}
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the unit grammar", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit s, better lower`)
	}

	if len(doc.PerLayer) != len(perLayer) || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (1..128 allowed)", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, d, m)
		}
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the unit grammar", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("%s: per-layer names are <module>.<metric>", m.Name)
		}
	}
}

// TestTinyWorkloads runs both passes of every workload at -scale tiny with
// validation on: the benchmark keeps compiling against the layers' public
// functions, every pass is correct, and every metric it must print exists.
// The cheapest traced pass runs twice: with one seed, every metric marked
// exact must read the same both times.
func TestTinyWorkloads(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, ".bench_build", "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 1, trace: traced, tiny: true, root: root}
			if !traced {
				o.clk = startRefClock()
			}
			rep, err := runners[w.Name](o)
			o.clk.stop()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !rep.ok || rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed\n%s", w.Name, traced, rep.ok, rep.failed, rep.attempted, strings.Join(rep.notes, "\n"))
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			for _, m := range list {
				v, ok := rep.metrics[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: no finite %s (got %v, present %v)", w.Name, traced, m.Name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be zero", w.Name, m.Name, v)
				}
			}
			if !traced {
				continue
			}
			if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s: traced pass wrote no trace file: %v", w.Name, err)
			}
			if w.Name != "channel2d" {
				continue
			}
			again, err := runners[w.Name](o)
			if err != nil {
				t.Fatalf("%s, second traced pass: %v", w.Name, err)
			}
			for _, m := range perLayer {
				if m.Exact && rep.metrics[m.Name] != again.metrics[m.Name] {
					t.Errorf("%s is marked exact but read %v then %v", m.Name, rep.metrics[m.Name], again.metrics[m.Name])
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if got := blockRate([]time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 6 * time.Second}, 1); got != 1 {
		t.Errorf("blockRate = %g, want the median 1 (one slow block does not move it)", got)
	}
}

// TestRefClock: on a host that ran twice slower than the reference for its
// first second and at reference speed afterwards, the reference clock
// counts the first second as half a second.
func TestRefClock(t *testing.T) {
	c := &refClock{epoch: time.Now()}
	for i := 0; i < 80; i++ {
		c.at = append(c.at, 0.0125+0.025*float64(i))
		k := refKernelMS
		if i < 40 {
			k *= 2
		}
		if i == 10 || i == 60 {
			k *= 50 // a sample that lost its processor
		}
		c.kernelMS = append(c.kernelMS, k)
	}
	c.build()
	at := func(s float64) time.Time { return c.epoch.Add(time.Duration(s * float64(time.Second))) }
	for _, tc := range []struct{ t0, t1, want float64 }{
		{0, 0.9, 0.45}, {0.2, 0.3, 0.05}, {1.1, 1.9, 0.8}, {1.5, 3, 1.5}, {0, 2, 1.5},
	} {
		if got := c.seconds(interval{at(tc.t0), at(tc.t1)}); math.Abs(got-tc.want) > 0.02 {
			t.Errorf("[%g, %g] s of wall time read %g s on the reference clock, want %g", tc.t0, tc.t1, got, tc.want)
		}
	}
	var wall *refClock
	if got := wall.seconds(interval{at(1), at(3)}); got != 2 {
		t.Errorf("the nil clock is the wall clock: read %g, want 2", got)
	}
	if med, lo, hi := c.slowdown(); med < 1 || med > 2 || lo != 1 || hi != 100 {
		t.Errorf("slowdown = %g (%g to %g)", med, lo, hi)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := instrument.NewTracer()
	trk := newTrack(tr, 0, "main")
	trk.begin("a/outer")
	time.Sleep(2 * time.Millisecond)
	trk.span("b/inner", 1, func() { time.Sleep(3 * time.Millisecond) })
	trk.end(1)
	st := selfTimes(tr)
	outer, inner := st["a/outer"], st["b/inner"]
	if outer == nil || inner == nil || outer.Count != 1 || inner.Count != 1 {
		t.Fatalf("spans missing: %+v", st)
	}
	if d := outer.Total - inner.Total - outer.Self; math.Abs(d) > 1e-9 {
		t.Errorf("self time %g is not total %g minus child %g", outer.Self, outer.Total, inner.Total)
	}
	if outer.Self < 1.5e-3 || inner.Self < 2.5e-3 {
		t.Errorf("self times too small: outer %g inner %g", outer.Self, inner.Self)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := instrument.ValidateChromeTrace(buf.Bytes(), 0); err != nil {
		t.Error(err)
	}
	if !strings.Contains(buf.String(), `"parent":"a/outer"`) {
		t.Error("inner span does not name its parent")
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	exact := metricSpec{Name: "comm.msgs_per_step", Better: "lower", Exact: true}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
		ok   bool
	}{
		{lower, []float64{10}, []float64{10.5}, "unchanged", true},
		{lower, []float64{10}, []float64{11.5}, "REGRESSED", false},
		{lower, []float64{10}, []float64{8}, "improved", true},
		{higher, []float64{100}, []float64{85}, "REGRESSED", false},
		{higher, []float64{100}, []float64{120}, "improved", true},
		{lower, []float64{8, 10, 12, 14}, []float64{9, 10, 11, 15}, "unresolved", true},
		{exact, []float64{1234.5}, []float64{1234.5}, "identical", true},
		{exact, []float64{1234.5}, []float64{1234.6}, "DIFFERS", false},
	} {
		got, ok := verdict(c.m, c.a, c.b)
		if !strings.HasPrefix(got, c.want) || ok != c.ok {
			t.Errorf("%s %v -> %v: verdict %q ok=%v, want %q ok=%v", c.m.Name, c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}
