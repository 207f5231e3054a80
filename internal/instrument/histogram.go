package instrument

// histogram.go adds the distribution member of the metrics family: where a
// Timer answers "how much in total" and a Gauge "last/min/max/mean", the
// Histogram answers "how is it distributed" — message virtual latencies,
// per-step phase times, CG iteration counts, fault stall draws. It is built
// for the simulated machine's hot paths and for paper-scale rank counts:
//
//   - Observe is allocation-free: one uncontended lock around five plain
//     updates. A run records from one goroutine (the driver that steps every
//     simulated rank), so the lock serves the scrapes that read a histogram
//     during a run, and each of them sees one consistent state;
//   - buckets are log-spaced (a fixed number of sub-buckets per power of
//     two), so one fixed 4 KB layout covers twelve decades — microsecond
//     latencies and kilo-iteration counts land in the same type with ~19 %
//     relative resolution;
//   - histograms sharing a Registry name are the merge: every rank Observes
//     into the same handle — so a P=1024 run needs no per-rank trace tracks
//     to report per-phase distributions over all ranks.
//
// The nil-receiver no-op contract of the package applies.

import (
	"math"
	"sync"
	"time"
)

// Bucket geometry: histSubBits sub-buckets per power of two, covering
// 2^histExpLo .. 2^histExpHi. Values outside clamp to the end buckets; zero
// and negative values count in a dedicated underflow slot (index 0).
const (
	histSubBits = 2 // 4 sub-buckets per octave: ~19% relative width
	histSubs    = 1 << histSubBits
	histExpLo   = -64 // 2^-64 ~ 5.4e-20: below any virtual latency
	histExpHi   = 40  // 2^40 ~ 1.1e12: above any count or seconds value
	histBuckets = (histExpHi-histExpLo)*histSubs + 2
)

// Histogram is a log-bucketed distribution of non-negative float64 samples.
// All methods are safe for concurrent use; Observe is allocation-free.
// Handles come from Registry.Histogram; a nil handle (disabled
// instrumentation) no-ops.
type Histogram struct {
	name    string
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64 // +Inf before any Observe
	max     float64 // -Inf before any Observe
	buckets [histBuckets]int64
}

func newHistogram(name string) *Histogram {
	return &Histogram{name: name, min: math.Inf(1), max: math.Inf(-1)}
}

// bucketIndex maps a sample to its bucket. Index 0 holds v <= 0 (and NaN);
// the rest are log-spaced with histSubs sub-buckets per octave, read
// straight off the float64 exponent and mantissa top bits.
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023 // unbiased; subnormals collapse to the floor
	sub := int(bits >> (52 - histSubBits) & (histSubs - 1))
	i := (exp-histExpLo)*histSubs + sub + 1
	if i < 1 {
		return 1
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketLower returns the lower bound of bucket i (i >= 1).
func bucketLower(i int) float64 {
	i--
	exp := histExpLo + i/histSubs
	sub := i % histSubs
	return math.Ldexp(1+float64(sub)/histSubs, exp)
}

// bucketUpper returns the exclusive upper bound of bucket i (i >= 1).
func bucketUpper(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return bucketLower(i + 1)
}

// Observe records one sample. Allocation-free, nil no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	// Negated comparisons, not the min/max builtins: a NaN sample displaces
	// min and max until the next sample displaces it, and a zero never
	// displaces an equal zero of the other sign.
	if !(h.min <= v) {
		h.min = v
	}
	if !(h.max >= v) {
		h.max = v
	}
	h.mu.Unlock()
}

// ObserveSince records the wall-clock seconds elapsed since start,
// matching Timer.Begin/End sections. Nil receivers return before reading
// the clock.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) from the
// bucket counts: the geometric midpoint of the bucket holding the q-th
// sample, clamped to the observed min/max so p0/p100 are exact. Estimates
// are deterministic functions of the bucket counts, so they do not depend on
// the order the samples arrived in.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantile(q)
}

// quantile is Quantile under h.mu.
func (h *Histogram) quantile(q float64) float64 {
	n := h.count
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			var v float64
			if i > 0 {
				lo, hi := bucketLower(i), bucketUpper(i)
				if math.IsInf(hi, 1) {
					v = lo
				} else {
					v = math.Sqrt(lo * hi)
				}
			}
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// HistBucket is one non-empty bucket in a snapshot: Lower is the bucket's
// inclusive lower bound (0 for the underflow bucket).
type HistBucket struct {
	Lower float64 `json:"lower"`
	Count int64   `json:"count"`
}

// HistogramStat is one histogram's snapshot: summary statistics, the
// standard quantiles, and the non-empty buckets (so a JSON report
// round-trips the full distribution, not just the summary).
type HistogramStat struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Mean    float64      `json:"mean"`
	P50     float64      `json:"p50"`
	P90     float64      `json:"p90"`
	P99     float64      `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Stat returns the histogram's state, read under one lock: its count is
// the sum of its buckets and its quantiles lie between its min and max.
// Min, max and mean read 0 before any Observe.
func (h *Histogram) Stat() HistogramStat {
	if h == nil {
		return HistogramStat{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HistogramStat{
		Name: h.name, Count: h.count, Sum: h.sum,
		P50: h.quantile(0.5), P90: h.quantile(0.9), P99: h.quantile(0.99),
	}
	if h.count > 0 {
		st.Min, st.Max, st.Mean = h.min, h.max, h.sum/float64(h.count)
	}
	for i, c := range h.buckets {
		if c != 0 {
			lo := 0.0
			if i > 0 {
				lo = bucketLower(i)
			}
			st.Buckets = append(st.Buckets, HistBucket{Lower: lo, Count: c})
		}
	}
	return st
}
