package instrument

import (
	"encoding/json"
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
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram reported non-zero stats")
	}
}

func TestHistogramSummaryStats(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	for _, v := range []float64{1e-6, 2e-6, 4e-6, 8e-6, 16e-6} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 31e-6; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	if h.Min() != 1e-6 || h.Max() != 16e-6 {
		t.Fatalf("min/max = %g/%g, want 1e-6/16e-6", h.Min(), h.Max())
	}
	if got, want := h.Mean(), 31e-6/5; math.Abs(got-want) > 1e-12 {
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
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
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
	if m.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", m.Count())
	}
	if m.Min() != 1 || m.Max() != 200 {
		t.Fatalf("merged min/max = %g/%g, want 1/200", m.Min(), m.Max())
	}
	if got, want := m.Sum(), 200.0*201/2; math.Abs(got-want) > 1e-9 {
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
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	want := float64(workers*per) * float64(workers*per+1) / 2
	if math.Abs(h.Sum()-want) > 1e-6*want {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	if h.Min() != 1 || h.Max() != float64(workers*per) {
		t.Fatalf("min/max = %g/%g", h.Min(), h.Max())
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
