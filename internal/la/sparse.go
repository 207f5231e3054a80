package la

import "sort"

// COO is a coordinate-format sparse matrix builder. Duplicate entries are
// summed when converted to CSR, which matches the additive assembly of
// finite/spectral element stiffness matrices.
type COO struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewCOO returns an empty builder for an r x c sparse matrix.
func NewCOO(r, c int) *COO {
	return &COO{Rows: r, Cols: c}
}

// Add appends entry (i, j, v).
func (m *COO) Add(i, j int, v float64) {
	m.I = append(m.I, i)
	m.J = append(m.J, j)
	m.V = append(m.V, v)
}

// ToCSR converts to compressed sparse row format, summing duplicates and
// dropping explicit zeros produced by cancellation only if drop is true.
func (m *COO) ToCSR() *CSR {
	n := m.Rows
	count := make([]int, n+1)
	for _, i := range m.I {
		count[i+1]++
	}
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	ptr := make([]int, n+1)
	copy(ptr, count)
	colIdx := make([]int, len(m.I))
	vals := make([]float64, len(m.I))
	next := make([]int, n)
	for i := 0; i < n; i++ {
		next[i] = ptr[i]
	}
	for k, i := range m.I {
		p := next[i]
		colIdx[p] = m.J[k]
		vals[p] = m.V[k]
		next[i]++
	}
	// Sort each row by column and merge duplicates.
	outPtr := make([]int, n+1)
	outCol := colIdx[:0:0]
	outVal := vals[:0:0]
	type cv struct {
		c int
		v float64
	}
	var row []cv
	for i := 0; i < n; i++ {
		row = row[:0]
		for p := ptr[i]; p < ptr[i+1]; p++ {
			row = append(row, cv{colIdx[p], vals[p]})
		}
		sort.Slice(row, func(a, b int) bool { return row[a].c < row[b].c })
		for k := 0; k < len(row); {
			c := row[k].c
			v := row[k].v
			k++
			for k < len(row) && row[k].c == c {
				v += row[k].v
				k++
			}
			outCol = append(outCol, c)
			outVal = append(outVal, v)
		}
		outPtr[i+1] = len(outCol)
	}
	return &CSR{Rows: n, Cols: m.Cols, Ptr: outPtr, Col: outCol, Val: outVal}
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	Rows, Cols int
	Ptr        []int
	Col        []int
	Val        []float64
}

// MulVec computes y = A*x.
func (m *CSR) MulVec(y, x []float64) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			s += m.Val[p] * x[m.Col[p]]
		}
		y[i] = s
	}
}

// At returns element (i, j), zero if not stored.
func (m *CSR) At(i, j int) float64 {
	for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
		if m.Col[p] == j {
			return m.Val[p]
		}
	}
	return 0
}

// Diag returns a copy of the diagonal.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Permute returns P A Pᵀ for the permutation perm, where perm[newIdx] =
// oldIdx; i.e. row/column newIdx of the result is row/column perm[newIdx]
// of A.
func (m *CSR) Permute(perm []int) *CSR {
	n := m.Rows
	inv := make([]int, n)
	for newI, oldI := range perm {
		inv[oldI] = newI
	}
	b := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			b.Add(inv[i], inv[m.Col[p]], m.Val[p])
		}
	}
	return b.ToCSR()
}
