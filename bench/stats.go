package main

import (
	"math"
	"sort"
	"time"
)

func sorted(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := sorted(x)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// percentile is the nearest-rank percentile (p in (0,100]).
func percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := sorted(x)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles reproduces Python's statistics.quantiles(x, n=4) (exclusive
// method), the rule the driver applies to the ten-seed spread.
func quartiles(x []float64) (q1, q2, q3 float64) {
	s := sorted(x)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(x []float64) float64 {
	q1, _, q3 := quartiles(x)
	med := median(x)
	if med == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}

// blockRate is the median completion rate (operations per second) over
// consecutive blocks of `block` completions. done holds completion offsets
// from the window start, in completion order. The median over blocks keeps
// one scheduler stall or GC pause from moving the whole-window rate.
func blockRate(done []time.Duration, block int) float64 {
	if block < 1 {
		block = 1
	}
	var rates []float64
	prev := time.Duration(0)
	for i := block; i <= len(done); i += block {
		dt := done[i-1] - prev
		if dt > 0 {
			rates = append(rates, float64(block)/dt.Seconds())
		}
		prev = done[i-1]
	}
	if len(rates) == 0 {
		if n := len(done); n > 0 && done[n-1] > 0 {
			return float64(n) / done[n-1].Seconds()
		}
		return 0
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
