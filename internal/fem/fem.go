// Package fem supplies the low-order finite element building blocks that
// the paper's Schwarz preconditioner rests on (Sec. 5, Fig. 5): bilinear
// quadrilateral and trilinear hexahedral Laplacian element matrices, a
// global low-order Laplacian assembled on the GLL subgrid of a spectral
// element mesh (the FEM-based local solves of Table 2), 1D linear-element
// stiffness/lumped-mass pairs on arbitrary node sets (the separable
// operators fed to the fast diagonalization method), and the coarse-grid
// operator A₀ on the spectral element vertex mesh.
package fem

import (
	"math"
	"slices"

	"repro/internal/la"
	"repro/internal/mesh"
)

var gauss2 = [2]float64{-1 / math.Sqrt(3.0), 1 / math.Sqrt(3.0)}

// QuadStiffness returns the 4x4 Laplacian stiffness matrix of a bilinear
// quadrilateral with corner coordinates xy in tensor order
// ((-,-),(+,-),(-,+),(+,+)), integrated with 2x2 Gauss quadrature.
func QuadStiffness(xy [4][2]float64) [16]float64 {
	var ke [16]float64
	for _, gr := range gauss2 {
		for _, gss := range gauss2 {
			// Shape function derivatives on the reference square.
			dNr := [4]float64{-(1 - gss) / 4, (1 - gss) / 4, -(1 + gss) / 4, (1 + gss) / 4}
			dNs := [4]float64{-(1 - gr) / 4, -(1 + gr) / 4, (1 - gr) / 4, (1 + gr) / 4}
			var xr, xs, yr, ys float64
			for a := 0; a < 4; a++ {
				xr += dNr[a] * xy[a][0]
				xs += dNs[a] * xy[a][0]
				yr += dNr[a] * xy[a][1]
				ys += dNs[a] * xy[a][1]
			}
			jac := xr*ys - xs*yr
			// Physical derivatives of shape functions.
			var dNx, dNy [4]float64
			for a := 0; a < 4; a++ {
				dNx[a] = (dNr[a]*ys - dNs[a]*yr) / jac
				dNy[a] = (-dNr[a]*xs + dNs[a]*xr) / jac
			}
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					ke[a*4+b] += (dNx[a]*dNx[b] + dNy[a]*dNy[b]) * jac
				}
			}
		}
	}
	return ke
}

// HexStiffness returns the 8x8 Laplacian stiffness matrix of a trilinear
// hexahedron with corners in tensor order, via 2x2x2 Gauss quadrature.
func HexStiffness(xyz [8][3]float64) [64]float64 {
	var ke [64]float64
	sign := func(a, bit int) float64 {
		if a&bit != 0 {
			return 1
		}
		return -1
	}
	for _, gr := range gauss2 {
		for _, gss := range gauss2 {
			for _, gt := range gauss2 {
				var dNr, dNs, dNt [8]float64
				for a := 0; a < 8; a++ {
					sr, ss, st := sign(a, 1), sign(a, 2), sign(a, 4)
					fr, fs, ft := 1+sr*gr, 1+ss*gss, 1+st*gt
					dNr[a] = sr * fs * ft / 8
					dNs[a] = fr * ss * ft / 8
					dNt[a] = fr * fs * st / 8
				}
				var j [9]float64 // rows: d(x,y,z)/d(r,s,t) columns... j[c*3+d] = dx_c/dref_d
				for a := 0; a < 8; a++ {
					for c := 0; c < 3; c++ {
						j[c*3+0] += dNr[a] * xyz[a][c]
						j[c*3+1] += dNs[a] * xyz[a][c]
						j[c*3+2] += dNt[a] * xyz[a][c]
					}
				}
				det := j[0]*(j[4]*j[8]-j[5]*j[7]) - j[1]*(j[3]*j[8]-j[5]*j[6]) + j[2]*(j[3]*j[7]-j[4]*j[6])
				// Inverse Jacobian (dref_d/dx_c).
				var inv [9]float64
				inv[0] = (j[4]*j[8] - j[5]*j[7]) / det
				inv[1] = (j[2]*j[7] - j[1]*j[8]) / det
				inv[2] = (j[1]*j[5] - j[2]*j[4]) / det
				inv[3] = (j[5]*j[6] - j[3]*j[8]) / det
				inv[4] = (j[0]*j[8] - j[2]*j[6]) / det
				inv[5] = (j[2]*j[3] - j[0]*j[5]) / det
				inv[6] = (j[3]*j[7] - j[4]*j[6]) / det
				inv[7] = (j[1]*j[6] - j[0]*j[7]) / det
				inv[8] = (j[0]*j[4] - j[1]*j[3]) / det
				var dNx, dNy, dNz [8]float64
				for a := 0; a < 8; a++ {
					dNx[a] = inv[0]*dNr[a] + inv[1]*dNs[a] + inv[2]*dNt[a]
					dNy[a] = inv[3]*dNr[a] + inv[4]*dNs[a] + inv[5]*dNt[a]
					dNz[a] = inv[6]*dNr[a] + inv[7]*dNs[a] + inv[8]*dNt[a]
				}
				for a := 0; a < 8; a++ {
					for b := 0; b < 8; b++ {
						ke[a*8+b] += (dNx[a]*dNx[b] + dNy[a]*dNy[b] + dNz[a]*dNz[b]) * det
					}
				}
			}
		}
	}
	return ke
}

// Line1D returns the 1D linear-element stiffness matrix (dense n x n) and
// lumped mass diagonal on the node set x (ascending). These are the Â, B̂
// pairs fed to the fast diagonalization method on the extended subdomain
// grids.
func Line1D(x []float64) (a []float64, bDiag []float64) {
	n := len(x)
	a = make([]float64, n*n)
	bDiag = make([]float64, n)
	for e := 0; e+1 < n; e++ {
		h := x[e+1] - x[e]
		k := 1 / h
		a[e*n+e] += k
		a[e*n+e+1] -= k
		a[(e+1)*n+e] -= k
		a[(e+1)*n+e+1] += k
		bDiag[e] += h / 2
		bDiag[e+1] += h / 2
	}
	return a, bDiag
}

// Restrict returns the principal submatrix of a dense n x n matrix on the
// index set idx.
func Restrict(a []float64, n int, idx []int) []float64 {
	m := len(idx)
	out := make([]float64, m*m)
	for i, gi := range idx {
		for j, gj := range idx {
			out[i*m+j] = a[gi*n+gj]
		}
	}
	return out
}

// AssembleGLL2D assembles the global bilinear-FEM Laplacian on the GLL
// subgrid of a 2D spectral element mesh, over global node ids. No boundary
// conditions are applied; callers restrict to their free node sets.
func AssembleGLL2D(m *mesh.Mesh) *la.CSR {
	b := la.NewCOO(m.NGlobal, m.NGlobal)
	np1 := m.N + 1
	for e := 0; e < m.K; e++ {
		base := e * m.Np
		for j := 0; j < m.N; j++ {
			for i := 0; i < m.N; i++ {
				l00 := base + j*np1 + i
				l10 := l00 + 1
				l01 := l00 + np1
				l11 := l01 + 1
				locs := [4]int{l00, l10, l01, l11}
				var xy [4][2]float64
				for a, l := range locs {
					xy[a] = [2]float64{m.X[l], m.Y[l]}
				}
				ke := QuadStiffness(xy)
				for a := 0; a < 4; a++ {
					for c := 0; c < 4; c++ {
						b.Add(int(m.GID[locs[a]]), int(m.GID[locs[c]]), ke[a*4+c])
					}
				}
			}
		}
	}
	return b.ToCSR()
}

// AssembleCoarse assembles the coarse-grid operator A₀: the low-order FEM
// Laplacian on the spectral element vertex mesh (bilinear quads in 2D,
// trilinear hexes in 3D), over compressed vertex ids.
func AssembleCoarse(m *mesh.Mesh) *la.CSR {
	b := la.NewCOO(m.NVert, m.NVert)
	if m.Dim == 2 {
		for e := 0; e < m.K; e++ {
			vs := m.ElemVert[e]
			var xy [4][2]float64
			for a := 0; a < 4; a++ {
				p := m.ElemCorner(e, a) // element-local corner (periodic-safe)
				xy[a] = [2]float64{p[0], p[1]}
			}
			ke := QuadStiffness(xy)
			for a := 0; a < 4; a++ {
				for c := 0; c < 4; c++ {
					b.Add(vs[a], vs[c], ke[a*4+c])
				}
			}
		}
		return b.ToCSR()
	}
	for e := 0; e < m.K; e++ {
		vs := m.ElemVert[e]
		var xyz [8][3]float64
		for a := 0; a < 8; a++ {
			xyz[a] = m.ElemCorner(e, a) // element-local corner (periodic-safe)
		}
		ke := HexStiffness(xyz)
		for a := 0; a < 8; a++ {
			for c := 0; c < 8; c++ {
				b.Add(vs[a], vs[c], ke[a*8+c])
			}
		}
	}
	return b.ToCSR()
}

// NodeAdjacency returns, per global node, its distinct neighbouring global
// nodes under the low-order (GLL-subgrid) connectivity of the mesh, in
// ascending order. Used to grow the overlapping subdomains of the Schwarz
// method by graph distance, so the order fixes each subdomain's index order.
func NodeAdjacency(m *mesh.Mesh) [][]int32 {
	adj := make([][]int32, m.NGlobal)
	np1 := m.N + 1
	for e := 0; e < m.K; e++ {
		base := e * m.Np
		for l := 0; l < m.Np; l++ {
			for a, stride := 0, 1; a < m.Dim; a, stride = a+1, stride*np1 {
				if l/stride%np1 < m.N {
					ga, gb := int32(m.GID[base+l]), int32(m.GID[base+l+stride])
					adj[ga] = append(adj[ga], gb)
					adj[gb] = append(adj[gb], ga)
				}
			}
		}
	}
	for g, nb := range adj {
		slices.Sort(nb)
		adj[g] = slices.Compact(nb)
	}
	return adj
}
