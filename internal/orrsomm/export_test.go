package orrsomm

// SolveToCap is Solve without the stalled-iteration stop (200 iterations at
// n = 128), for the external tests.
func SolveToCap(re, alpha float64, n int, sigma complex128) (*Result, error) {
	return solve(re, alpha, n, sigma, false)
}
