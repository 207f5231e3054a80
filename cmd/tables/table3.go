package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/la"
)

// table3 reproduces the matrix-matrix kernel study: MFLOPS for each
// (n1 x n2) x (n2 x n3) calling configuration of an order N=15 simulation,
// across the kernel variants: Go analogues of the paper's hand-unrolled f2/f3
// kernels, the scalar loops a compiler gives, and, where the CPU has AVX2 or
// AVX-512, the assembly micro-kernels that stand in for the lkm/ghm/csm
// library DGEMMs.
func table3(quick bool) error {
	shapes := [][3]int{
		{14, 2, 14}, {2, 14, 2}, {16, 14, 16}, {16, 14, 196}, {256, 14, 16},
		{14, 16, 14}, {16, 16, 16}, {16, 16, 256}, {196, 16, 14}, {256, 16, 16},
	}
	minTime := 0.2
	if quick {
		minTime = 0.05
	}
	fmt.Println("Table 3: MFLOPS for (n1 x n2) x (n2 x n3) matrix-matrix kernels")
	fmt.Printf("%4s %4s %4s |", "n1", "n2", "n3")
	for _, k := range la.Kernels {
		fmt.Printf(" %8s", k)
	}
	fmt.Printf(" | %8s\n", "Mul")
	rng := rand.New(rand.NewSource(1))
	wins := make([]int, len(la.Kernels)) // shapes on which each kernel is fastest
	lo, hi := math.Inf(1), 0.0           // last column over the best of the others, per shape
	for _, s := range shapes {
		n1, n2, n3 := s[0], s[1], s[2]
		a := randSlice(rng, n1*n2)
		b := randSlice(rng, n2*n3)
		c := make([]float64, n1*n3)
		mflops := func(mul func()) float64 {
			flops := 2 * float64(n1) * float64(n2) * float64(n3)
			mul() // warm up, then time
			var reps int
			t0 := time.Now()
			for time.Since(t0).Seconds() < minTime {
				for i := 0; i < 100; i++ {
					mul()
				}
				reps += 100
			}
			return flops * float64(reps) / time.Since(t0).Seconds() / 1e6
		}
		fmt.Printf("%4d %4d %4d |", n1, n2, n3)
		rates := make([]float64, len(la.Kernels))
		best := 0
		for i, k := range la.Kernels {
			rates[i] = mflops(func() { la.MatMul(k, c, a, b, n1, n2, n3) })
			fmt.Printf(" %8.0f", rates[i])
			if rates[i] > rates[best] {
				best = i
			}
		}
		wins[best]++
		last := len(rates) - 1
		r := rates[last] / slices.Max(rates[:last])
		lo, hi = min(lo, r), max(hi, r)
		// The last column is la.Mul itself, what the solver gets for this
		// shape, timed in the same loop as the kernels.
		fmt.Printf(" | %8.0f\n", mflops(func() { la.Mul(c, a, b, n1, n2, n3) }))
	}
	fmt.Println("\nThe paper's table has no kernel winning every shape: the unrolled")
	fmt.Println("f2/f3 take the small and odd shapes, the library DGEMMs the large")
	fmt.Println("regular ones. Measured here, shapes won per kernel:")
	for i, k := range la.Kernels {
		fmt.Printf("  %-8s %d of %d\n", k, wins[i], len(shapes))
	}
	last := la.Kernels[len(la.Kernels)-1]
	fmt.Printf("%s runs at %.1f-%.1fx the best other kernel of each shape.\n", last, lo, hi)
	switch last {
	case la.KernelAVX512:
		fmt.Println("avx512 is the tuned-library stand-in and Mul is that kernel on this")
		fmt.Println("machine: the last two columns differ by timing noise only. Its tiles")
		fmt.Println("follow the row length n3: 4 rows of one zmm each for n3 <= 8, a zmm")
		fmt.Println("and a masked zmm for n3 <= 16, wider rows in 16-column chunks, one")
		fmt.Println("ymm for a last chunk of 1-4 columns, the last 1-2 rows in 2-row")
		fmt.Println("tiles; opmasked loads and stores take every tail. Multiply then add,")
		fmt.Println("no FMA, so bitwise naive, as is avx2 (2x8 tiles), the kernel Mul runs")
		fmt.Println("on CPUs without AVX-512F.")
	case la.KernelAVX2:
		fmt.Println("avx2 is the tuned-library stand-in (2x8 tiles vectorised across the")
		fmt.Println("output columns, multiply then add, no FMA, so bitwise naive) and Mul")
		fmt.Println("is that kernel on this machine: the last two columns differ by")
		fmt.Println("timing noise only.")
	default:
		fmt.Println("No AVX2 kernel on this machine or in this build: Mul is the static")
		fmt.Println("shape rule over the kernels bitwise-identical to naive (blocked")
		fmt.Println("where its 2x4 tiles have work, ikj otherwise).")
	}
	return nil
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
