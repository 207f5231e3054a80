package instrument

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestNilHistogramNoOps(t *testing.T) {
	var r *Registry
	h := r.Histogram("x")
	if h != nil {
		t.Fatalf("nil registry returned non-nil histogram")
	}
	h.Observe(1.5) // must not panic
	if st := h.Stat(); st.Count != 0 || st.Sum != 0 || st.Min != 0 || st.Max != 0 ||
		st.Mean != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram reported non-zero stats")
	}
}

func TestHistogramSummaryStats(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	for _, v := range []float64{1e-6, 2e-6, 4e-6, 8e-6, 16e-6} {
		h.Observe(v)
	}
	st := h.Stat()
	if st.Count != 5 {
		t.Fatalf("count = %d, want 5", st.Count)
	}
	if got, want := st.Sum, 31e-6; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	if st.Min != 1e-6 || st.Max != 16e-6 {
		t.Fatalf("min/max = %g/%g, want 1e-6/16e-6", st.Min, st.Max)
	}
	if got, want := st.Mean, 31e-6/5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
}

// Quantiles are bucket estimates: within one bucket width (~19%) of truth,
// exact at the extremes.
func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("q")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %g, want exact min 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("p100 = %g, want exact max 1000", got)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 500}, {0.9, 900}, {0.99, 990},
	} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.2 {
			t.Errorf("p%g = %g, want within 20%% of %g", 100*tc.q, got, tc.want)
		}
	}
}

func TestHistogramZeroAndExtremeValues(t *testing.T) {
	r := New()
	h := r.Histogram("edge")
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.NaN())
	h.Observe(1e-300) // far below range: clamps to lowest bucket
	h.Observe(1e300)  // far above range: clamps to highest bucket
	if n := h.Stat().Count; n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	// Quantiles stay clamped to observed extremes and never return Inf/NaN.
	for _, q := range []float64{0, 0.5, 0.9, 1} {
		v := h.Quantile(q)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Quantile(%g) = %g", q, v)
		}
	}
}

// TestHistogramMerge: two ranks looking the same name up get one handle, so
// their samples land in one distribution — the merge every rank's phase
// times rely on.
func TestHistogramMerge(t *testing.T) {
	r := New()
	a, b := r.Histogram("m"), r.Histogram("m")
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Observe(float64(i))
	}
	m := r.Histogram("m")
	st := m.Stat()
	if st.Count != 200 {
		t.Fatalf("merged count = %d, want 200", st.Count)
	}
	if st.Min != 1 || st.Max != 200 {
		t.Fatalf("merged min/max = %g/%g, want 1/200", st.Min, st.Max)
	}
	if got, want := st.Sum, 200.0*201/2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("merged sum = %g, want %g", got, want)
	}
	// The quantiles equal those of a histogram that observed everything
	// from one place.
	direct := r.Histogram("direct")
	for i := 1; i <= 200; i++ {
		direct.Observe(float64(i))
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		if m.Quantile(q) != direct.Quantile(q) {
			t.Errorf("Quantile(%g): merged %g != direct %g", q, m.Quantile(q), direct.Quantile(q))
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := New()
	h := r.Histogram("conc")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per + i + 1))
			}
		}(w)
	}
	wg.Wait()
	st := h.Stat()
	if st.Count != workers*per {
		t.Fatalf("count = %d, want %d", st.Count, workers*per)
	}
	want := float64(workers*per) * float64(workers*per+1) / 2
	if math.Abs(st.Sum-want) > 1e-6*want {
		t.Fatalf("sum = %g, want %g", st.Sum, want)
	}
	if st.Min != 1 || st.Max != float64(workers*per) {
		t.Fatalf("min/max = %g/%g", st.Min, st.Max)
	}
}

// Observe is on the per-message hot path of every simulated rank; it must
// never allocate. Checked both via AllocsPerRun and a MemStats delta (the
// latter catches allocations AllocsPerRun's averaging could round away).
func TestHistogramObserveZeroAlloc(t *testing.T) {
	r := New()
	h := r.Histogram("hot")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3.7e-5) }); n != 0 {
		t.Fatalf("Observe allocates %v allocs/op, want 0", n)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 100000; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d > 50 { // slack for runtime noise
		t.Fatalf("100k Observes performed %d mallocs, want ~0", d)
	}
}

func TestReportWithHistogramsGoldenAndJSON(t *testing.T) {
	r := New()
	r.SetMeta(RunMeta{Case: "channel", Ranks: 4, Elements: 8, Order: 5, Steps: 2})
	r.Timer("ns/step").Add(1e9)
	r.Counter("comm/msgs").Add(42)
	hb := r.Histogram("b/lat")
	ha := r.Histogram("a/lat")
	for i := 1; i <= 4; i++ {
		ha.Observe(float64(i))
		hb.Observe(2 * float64(i))
	}
	rep := r.Report()

	// Golden ordering: meta header first, then sections, histograms sorted
	// by name.
	s := rep.String()
	if !strings.HasPrefix(s, "run: case=channel ranks=4 elements=8 order=5 steps=2") {
		t.Fatalf("String() missing meta header:\n%s", s)
	}
	ia, ib := strings.Index(s, "a/lat"), strings.Index(s, "b/lat")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("histograms missing or unsorted in String():\n%s", s)
	}
	if strings.Index(s, "histogram") < strings.Index(s, "counter") {
		t.Fatalf("histogram section should follow counters:\n%s", s)
	}

	// JSON round-trip preserves meta, summary stats, and the full bucket
	// vector.
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Meta == nil || *back.Meta != *rep.Meta {
		t.Fatalf("meta did not round-trip: %+v", back.Meta)
	}
	if len(back.Histograms) != 2 {
		t.Fatalf("histograms did not round-trip: %d", len(back.Histograms))
	}
	for i, h := range back.Histograms {
		orig := rep.Histograms[i]
		if h.Name != orig.Name || h.Count != orig.Count || h.Sum != orig.Sum ||
			h.Min != orig.Min || h.Max != orig.Max ||
			h.P50 != orig.P50 || h.P90 != orig.P90 || h.P99 != orig.P99 {
			t.Fatalf("histogram %d summary mismatch: %+v vs %+v", i, h, orig)
		}
		if len(h.Buckets) != len(orig.Buckets) {
			t.Fatalf("histogram %d buckets lost: %d vs %d", i, len(h.Buckets), len(orig.Buckets))
		}
		var n int64
		for j, bk := range h.Buckets {
			if bk != orig.Buckets[j] {
				t.Fatalf("bucket %d mismatch: %+v vs %+v", j, bk, orig.Buckets[j])
			}
			n += bk.Count
		}
		if n != h.Count {
			t.Fatalf("bucket counts sum to %d, want %d", n, h.Count)
		}
	}
}

func TestBucketBoundsConsistent(t *testing.T) {
	// Every representable positive sample must land in a bucket whose
	// [lower, upper) interval contains it.
	for _, v := range []float64{1e-18, 3.3e-7, 1, 1.5, 2, 3.999, 1e6, 7.7e11} {
		i := bucketIndex(v)
		if i < 1 || i >= histBuckets {
			t.Fatalf("bucketIndex(%g) = %d out of range", v, i)
		}
		lo, hi := bucketLower(i), bucketUpper(i)
		if v < lo || v >= hi {
			t.Errorf("v=%g in bucket %d with bounds [%g,%g)", v, i, lo, hi)
		}
	}
}

// TestHistogramKeepsItsBits pins, through Report, what a histogram makes of
// signed zeros, a subnormal, NaN, +Inf and out-of-range samples, bit for
// bit: NaN enters the sum and displaces min and max until a later sample
// displaces it, a zero never displaces an equal zero of the other sign, and
// every value out of range lands in an end bucket.
func TestHistogramKeepsItsBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name                               string
		samples                            []float64
		count                              int64
		sum, min, max, mean, p50, p90, p99 uint64 // float64 bits
		buckets                            []HistBucket
	}{{
		name:    "specials",
		samples: []float64{0, negZero, 5e-324, 1, math.NaN(), math.Inf(1), 1e12, 1e-30},
		count:   8,
		sum:     0x7ff8000000000001, min: 0x39b4484bfeebc2a0, max: 0x7ff0000000000000,
		mean: 0x7ff8000000000001, p50: 0x3bf1e3779b97f4a8, p90: 0x4270000000000000, p99: 0x4270000000000000,
		buckets: []HistBucket{{0, 3}, {0x1p-64, 2}, {1, 1}, {0x1.cp39, 1}, {0x1p40, 1}},
	}, {
		name:    "zeros",
		samples: []float64{negZero, 0},
		count:   2,
		sum:     0, min: 0x8000000000000000, max: 0x8000000000000000,
		mean: 0, p50: 0, p90: 0, p99: 0,
		buckets: []HistBucket{{0, 2}},
	}} {
		r := New()
		h := r.Histogram(tc.name)
		for _, v := range tc.samples {
			h.Observe(v)
		}
		st := r.Report().Histograms[0]
		if st.Count != tc.count {
			t.Errorf("%s: count = %d, want %d", tc.name, st.Count, tc.count)
		}
		for _, f := range []struct {
			what      string
			got, want uint64
		}{
			{"sum", math.Float64bits(st.Sum), tc.sum},
			{"min", math.Float64bits(st.Min), tc.min},
			{"max", math.Float64bits(st.Max), tc.max},
			{"mean", math.Float64bits(st.Mean), tc.mean},
			{"p50", math.Float64bits(st.P50), tc.p50},
			{"p90", math.Float64bits(st.P90), tc.p90},
			{"p99", math.Float64bits(st.P99), tc.p99},
		} {
			if f.got != f.want {
				t.Errorf("%s: %s bits = %#x, want %#x", tc.name, f.what, f.got, f.want)
			}
		}
		if len(st.Buckets) != len(tc.buckets) {
			t.Fatalf("%s: buckets = %+v, want %+v", tc.name, st.Buckets, tc.buckets)
		}
		for i, b := range st.Buckets {
			if math.Float64bits(b.Lower) != math.Float64bits(tc.buckets[i].Lower) || b.Count != tc.buckets[i].Count {
				t.Errorf("%s: bucket %d = %+v, want %+v", tc.name, i, b, tc.buckets[i])
			}
		}
	}
}

// TestHistogramReportIsConsistent takes reports while another goroutine
// observes, as a /metrics or /stats scrape does during a run. Each report
// must show one state of the histogram: a count that is the sum of its
// buckets, and quantiles in order between its min and max.
func TestHistogramReportIsConsistent(t *testing.T) {
	r := New()
	h := r.Histogram("scrape")
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Observe(float64(1 + i%1000))
			if i == 0 {
				close(started)
			}
		}
	}()
	<-started
	const reports = 2000
	bad, first := 0, ""
	for k := 0; k < reports; k++ {
		st := r.Report().Histograms[0]
		var n int64
		for _, b := range st.Buckets {
			n += b.Count
		}
		ordered := st.Count == 0 ||
			st.Min <= st.P50 && st.P50 <= st.P90 && st.P90 <= st.P99 && st.P99 <= st.Max
		if n != st.Count || !ordered {
			if bad++; bad == 1 {
				first = fmt.Sprintf("count %d, buckets sum to %d, min %g p50 %g p90 %g p99 %g max %g",
					st.Count, n, st.Min, st.P50, st.P90, st.P99, st.Max)
			}
		}
	}
	close(stop)
	<-done
	if bad > 0 {
		t.Fatalf("%d of %d reports inconsistent; the first: %s", bad, reports, first)
	}
}

// BenchmarkHistogramObserve times one Observe, the per-message cost of
// comm/send.vlat.
func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("observe")
	for i := 0; i < b.N; i++ {
		h.Observe(float64(1 + i%1000))
	}
}
