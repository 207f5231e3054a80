package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/la"
)

// table3 reproduces the matrix-matrix kernel study: MFLOPS for each
// (n1 x n2) x (n2 x n3) calling configuration of an order N=15 simulation,
// across the kernel variants (the Go analogues of the paper's lkm/ghm/csm
// library DGEMMs and hand-unrolled f2/f3 kernels).
func table3(quick bool) {
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
		for _, k := range la.Kernels {
			fmt.Printf(" %8.0f", mflops(func() { la.MatMul(k, c, a, b, n1, n2, n3) }))
		}
		// The last column is la.Mul itself, what the solver gets for this
		// shape, timed in the same loop as the five kernels.
		fmt.Printf(" | %8.0f\n", mflops(func() { la.Mul(c, a, b, n1, n2, n3) }))
	}
	fmt.Println("\nExpected shape (paper): no single kernel wins every shape; the")
	fmt.Println("unrolled variants win at small/odd shapes, the blocked/library")
	fmt.Println("style kernels win at the large regular shapes. The Mul column is")
	fmt.Println("la.Mul's static shape rule, which picks only among the kernels")
	fmt.Println("that are bitwise-identical to naive (ikj, blocked).")
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
