package instrument

// histogram.go adds the distribution member of the metrics family: where a
// Timer answers "how much in total" and a Gauge "last/min/max/mean", the
// Histogram answers "how is it distributed" — message virtual latencies,
// per-step phase times, CG iteration counts, fault stall draws. It is built
// for the simulated machine's hot paths and for paper-scale rank counts:
//
//   - Observe is allocation-free and lock-free (atomic bucket counters), so
//     a P=1024 run where every rank records every message costs nothing but
//     a few atomic adds per event;
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
	"sync/atomic"
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
// All methods are safe for concurrent use; Observe is lock-free and
// allocation-free. Handles come from Registry.Histogram; a nil handle
// (disabled instrumentation) no-ops.
type Histogram struct {
	name    string
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits; init +Inf
	maxBits atomic.Uint64 // float64 bits; init -Inf
	buckets [histBuckets]atomic.Int64
}

func newHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
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

// Observe records one sample. Lock-free, allocation-free, nil no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
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

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min returns the smallest sample (0 before any Observe).
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest sample (0 before any Observe).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Mean returns the arithmetic mean (0 before any Observe).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
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
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			var v float64
			if i == 0 {
				v = 0
			} else {
				lo, hi := bucketLower(i), bucketUpper(i)
				if math.IsInf(hi, 1) {
					v = lo
				} else {
					v = math.Sqrt(lo * hi)
				}
			}
			if min := h.Min(); v < min {
				v = min
			}
			if max := h.Max(); v > max {
				v = max
			}
			return v
		}
	}
	return h.Max()
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

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramStat {
	st := HistogramStat{
		Name: h.name, Count: h.Count(), Sum: h.Sum(),
		Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
		P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
	}
	for i := 0; i < histBuckets; i++ {
		if c := h.buckets[i].Load(); c != 0 {
			lo := 0.0
			if i > 0 {
				lo = bucketLower(i)
			}
			st.Buckets = append(st.Buckets, HistBucket{Lower: lo, Count: c})
		}
	}
	return st
}
