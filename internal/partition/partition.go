// Package partition distributes spectral elements to processors. The
// paper's production code uses recursive spectral bisection (Pothen, Simon
// & Liou 1990) on the element adjacency graph to minimize the number of
// vertices shared between processors (Sec. 6); a recursive coordinate
// bisection baseline is provided for comparison.
package partition

import (
	"math"
	"sort"

	"repro/internal/la"
)

// RSB partitions the undirected graph (adjacency lists) into p parts by
// recursive spectral bisection: at each level the subset is split at the
// median of the Fiedler vector of the induced subgraph Laplacian. The
// returned slice maps vertex -> part in [0, p).
func RSB(adj [][]int, p int) []int {
	n := len(adj)
	part := make([]int, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var split func(set []int, base, parts int)
	split = func(set []int, base, parts int) {
		if parts <= 1 || len(set) <= 1 {
			for _, v := range set {
				part[v] = base
			}
			return
		}
		pl := parts / 2
		pr := parts - pl
		target := len(set) * pl / parts
		if target == 0 {
			target = 1
		}
		order := fiedlerOrder(adj, set)
		left := order[:target]
		right := order[target:]
		split(left, base, pl)
		split(right, base+pl, pr)
	}
	split(all, 0, p)
	return part
}

// fiedlerOrder returns the subset ordered by the Fiedler vector of the
// induced subgraph Laplacian (computed by Lanczos with deflation of the
// constant vector); disconnected pieces sort before/after naturally because
// indicator-like vectors dominate the low spectrum.
func fiedlerOrder(adj [][]int, set []int) []int {
	n := len(set)
	local := make(map[int]int, n)
	for i, v := range set {
		local[v] = i
	}
	deg := make([]float64, n)
	nbrs := make([][]int, n)
	for i, v := range set {
		for _, w := range adj[v] {
			if j, ok := local[w]; ok {
				nbrs[i] = append(nbrs[i], j)
				deg[i]++
			}
		}
	}
	apply := func(out, in []float64) {
		for i := range out {
			s := deg[i] * in[i]
			for _, j := range nbrs[i] {
				s -= in[j]
			}
			out[i] = s
		}
	}
	f := fiedlerVector(apply, n)
	order := make([]int, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return f[idx[a]] < f[idx[b]] })
	for i, li := range idx {
		order[i] = set[li]
	}
	return order
}

// fiedlerVector approximates the second-smallest eigenvector of the
// operator by Lanczos with full reorthogonalization against both the
// constant vector and previous Lanczos vectors.
func fiedlerVector(apply func(out, in []float64), n int) []float64 {
	if n <= 2 {
		f := make([]float64, n)
		for i := range f {
			f[i] = float64(i)
		}
		return f
	}
	m := 40
	if m > n-1 {
		m = n - 1
	}
	vs := make([][]float64, 0, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m)
	// Deterministic pseudo-random start, deflated of constants.
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(3*i + 1)) // arbitrary but reproducible
	}
	deflate := func(x []float64) {
		var mean float64
		for _, xv := range x {
			mean += xv
		}
		mean /= float64(n)
		for i := range x {
			x[i] -= mean
		}
	}
	deflate(v)
	normalize := func(x []float64) float64 {
		nrm := la.Nrm2(x)
		if nrm > 0 {
			la.Scale(1/nrm, x)
		}
		return nrm
	}
	normalize(v)
	w := make([]float64, n)
	for it := 0; it < m; it++ {
		vs = append(vs, append([]float64(nil), v...))
		apply(w, v)
		deflate(w)
		a := dot(w, v)
		alpha = append(alpha, a)
		// w = w - a v - beta_prev v_prev, then full reorth.
		la.Axpy(-a, v, w)
		if it > 0 {
			la.Axpy(-beta[it-1], vs[it-1], w)
		}
		for _, u := range vs {
			la.Axpy(-dot(w, u), u, w)
		}
		b := normalize(w)
		if b < 1e-12 {
			break
		}
		beta = append(beta, b)
		copy(v, w)
	}
	k := len(alpha)
	// Solve the k x k tridiagonal eigenproblem.
	tri := make([]float64, k*k)
	for i := 0; i < k; i++ {
		tri[i*k+i] = alpha[i]
		if i+1 < k && i < len(beta) {
			tri[i*k+i+1] = beta[i]
			tri[(i+1)*k+i] = beta[i]
		}
	}
	wv, z, err := la.SymEig(tri, k)
	if err != nil {
		// Fall back to the start vector ordering.
		return vs[0]
	}
	_ = wv
	// Smallest Ritz pair (eigenvalues ascending).
	f := make([]float64, n)
	for i := 0; i < k; i++ {
		la.Axpy(z[i*k+0], vs[i], f)
	}
	return f
}

// dot is the sequential inner product Σ x[i]·y[i], one add chain in
// increasing i. The Lanczos iteration uses it rather than la.Dot so that a
// partition, and with it the distributed runs' cuts and message patterns,
// does not depend on la's reduction order; partitioning is set-up only.
func dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// RCB partitions by recursive coordinate bisection: split along the longest
// coordinate extent at the median.
func RCB(coords [][3]float64, p int) []int {
	n := len(coords)
	part := make([]int, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var split func(set []int, base, parts int)
	split = func(set []int, base, parts int) {
		if parts <= 1 || len(set) <= 1 {
			for _, v := range set {
				part[v] = base
			}
			return
		}
		// Longest extent dimension.
		var mins, maxs [3]float64
		for d := 0; d < 3; d++ {
			mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
		}
		for _, v := range set {
			for d := 0; d < 3; d++ {
				mins[d] = math.Min(mins[d], coords[v][d])
				maxs[d] = math.Max(maxs[d], coords[v][d])
			}
		}
		dim := 0
		for d := 1; d < 3; d++ {
			if maxs[d]-mins[d] > maxs[dim]-mins[dim] {
				dim = d
			}
		}
		sorted := append([]int(nil), set...)
		sort.SliceStable(sorted, func(a, b int) bool {
			return coords[sorted[a]][dim] < coords[sorted[b]][dim]
		})
		pl := parts / 2
		pr := parts - pl
		target := len(set) * pl / parts
		if target == 0 {
			target = 1
		}
		split(sorted[:target], base, pl)
		split(sorted[target:], base+pl, pr)
	}
	split(all, 0, p)
	return part
}

// CutEdges counts graph edges whose endpoints land in different parts (a
// proxy for the shared-vertex communication volume the RSB scheme
// minimizes).
func CutEdges(adj [][]int, part []int) int {
	cut := 0
	for v, ns := range adj {
		for _, w := range ns {
			if w > v && part[v] != part[w] {
				cut++
			}
		}
	}
	return cut
}

// Sizes returns the number of vertices per part.
func Sizes(part []int, p int) []int {
	s := make([]int, p)
	for _, v := range part {
		s[v]++
	}
	return s
}
