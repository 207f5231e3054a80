package main

// refclock.go is the clock of the untraced pass. The benchmark runs on two
// virtual CPUs of a shared host whose speed swings by up to a factor of two
// over seconds to minutes (README.md, "The reference clock"): ten runs of
// one workload spread by 20–35 % on the wall clock, whatever quantile of the
// run one takes. A small calibration kernel therefore runs in this process
// every calPeriod, on the pass's one processor (passProcs), and every
// end-to-end duration is read on a clock that advances by refKernelMS for
// every kernel time measured around that moment: seconds on the reference
// machine at its quiet speed, not seconds on whatever the host was doing just
// then. The kernel belongs to the benchmark, so the program under test
// cannot move it, and a program that gets faster gets faster on this clock
// by the same share.

import (
	"sort"
	"time"
)

const (
	calPeriod = 25 * time.Millisecond
	calCalls  = 25 // kernel calls per sample, ≈ 1 ms on the quiet reference machine
	calSmooth = 2  // the rate at a sample is the median over this many on each side: ±50 ms

	// refKernelMS is what one kernel call takes on the reference machine
	// (2 vCPU Xeon 2.1 GHz, Go 1.24) when the host is quiet: the fastest
	// whole-run median seen there, sampled as here between the slices of a
	// workload. It only fixes the unit.
	refKernelMS = 0.0415
)

// interval is a stretch of wall-clock time.
type interval struct{ t0, t1 time.Time }

func since(t0 time.Time) interval { return interval{t0, time.Now()} }

// calKernel is the work whose speed stands for the machine's: 72 products
// of a 6×6 by a 6×36 matrix (the r-direction product of tensor.Apply3D at
// N=5 on 72 elements, 250 KB of operands) in 2×4 register tiles, eight
// accumulator chains, as la's blocked kernels run them. The shape of the
// loop matters: where the linker happens to put it moves this one by 1 %,
// the same product as a plain triple loop by 16 %, and that would move every
// end-to-end figure of an unrelated change by as much.
type calKernel struct{ a, b, c []float64 }

func newCalKernel() *calKernel {
	k := &calKernel{a: make([]float64, 36), b: make([]float64, 72*216), c: make([]float64, 72*216)}
	for i := range k.a {
		k.a[i] = float64(i%7) * 0.1
	}
	for i := range k.b {
		k.b[i] = float64(i%13) * 0.01
	}
	return k
}

func (k *calKernel) run() {
	const n, m = 6, 36
	a := k.a
	for e := 0; e < 72; e++ {
		b, c := k.b[e*n*m:(e+1)*n*m], k.c[e*n*m:(e+1)*n*m]
		for i := 0; i < n; i += 2 {
			a0, a1 := a[i*n:(i+1)*n], a[(i+1)*n:(i+2)*n]
			for j := 0; j < m; j += 4 {
				var c00, c01, c02, c03, c10, c11, c12, c13 float64
				for l := 0; l < n; l++ {
					bl := b[l*m+j : l*m+j+4]
					x0, x1 := a0[l], a1[l]
					c00 += x0 * bl[0]
					c01 += x0 * bl[1]
					c02 += x0 * bl[2]
					c03 += x0 * bl[3]
					c10 += x1 * bl[0]
					c11 += x1 * bl[1]
					c12 += x1 * bl[2]
					c13 += x1 * bl[3]
				}
				r0, r1 := c[i*m+j:i*m+j+4], c[(i+1)*m+j:(i+1)*m+j+4]
				r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
				r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
			}
		}
	}
	sink += k.c[0]
}

// refClock samples the machine's speed until stop and then converts wall
// time into reference-machine time. A nil *refClock is the wall clock.
type refClock struct {
	epoch      time.Time
	at         []float64 // wall seconds since epoch, middle of each sample
	kernelMS   []float64 // measured ms per kernel call
	ref        []float64 // after stop: reference seconds since epoch at at[i]
	quit, done chan struct{}
}

func startRefClock() *refClock {
	c := &refClock{epoch: time.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	c.at = make([]float64, 0, 8192)
	c.kernelMS = make([]float64, 0, 8192)
	k := newCalKernel()
	k.run() // touch the operands outside the first sample
	go func() {
		defer close(c.done)
		tick := time.NewTicker(calPeriod)
		defer tick.Stop()
		for {
			t0 := time.Now()
			for i := 0; i < calCalls; i++ {
				k.run()
			}
			d := time.Since(t0)
			c.at = append(c.at, (t0.Sub(c.epoch) + d/2).Seconds())
			c.kernelMS = append(c.kernelMS, ms(d)/calCalls)
			select {
			case <-c.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

// stop ends the sampling and builds the conversion. It may be called again.
func (c *refClock) stop() {
	if c == nil || c.ref != nil {
		return
	}
	close(c.quit)
	<-c.done
	c.build()
}

// build integrates the samples into the clock: its rate at a sample is
// refKernelMS over the median kernel time of the samples within calSmooth
// of it (one sample that lost its processor for a few milliseconds does not
// count), and the clock is the trapezoid integral of that rate.
func (c *refClock) build() {
	n := len(c.at)
	rate := make([]float64, n)
	for i := range rate {
		lo, hi := max(0, i-calSmooth), min(n, i+calSmooth+1)
		rate[i] = refKernelMS / median(c.kernelMS[lo:hi])
	}
	c.ref = make([]float64, n)
	c.ref[0] = c.at[0] * rate[0]
	for i := 1; i < n; i++ {
		c.ref[i] = c.ref[i-1] + (c.at[i]-c.at[i-1])*(rate[i-1]+rate[i])/2
	}
}

// reading is the reference clock at wall time t: linear between samples,
// at the last sample's rate beyond them.
func (c *refClock) reading(t time.Time) float64 {
	w := t.Sub(c.epoch).Seconds()
	n := len(c.at)
	i := sort.SearchFloat64s(c.at, w) // first sample at or after w
	switch {
	case n == 1 || i == 0:
		return c.ref[0] * w / c.at[0]
	case i == n:
		i = n - 1
	}
	slope := (c.ref[i] - c.ref[i-1]) / (c.at[i] - c.at[i-1])
	return c.ref[i-1] + (w-c.at[i-1])*slope
}

// seconds is the length of iv on the reference clock (after stop), or on
// the wall clock for a nil receiver.
func (c *refClock) seconds(iv interval) float64 {
	if c == nil {
		return iv.t1.Sub(iv.t0).Seconds()
	}
	return c.reading(iv.t1) - c.reading(iv.t0)
}

// slowdown is how many times slower than the reference machine the host
// ran: the median over the samples, and the extremes.
func (c *refClock) slowdown() (med, lo, hi float64) {
	s := sorted(c.kernelMS)
	return median(s) / refKernelMS, s[0] / refKernelMS, s[len(s)-1] / refKernelMS
}
