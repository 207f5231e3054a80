package mesh_test

// numbering_test.go holds Discretize's global numbering to the all-bins
// geometric matching it started from: every local node, interior or not, is
// looked up in the 27 bins around its wrapped coordinates and joins the first
// id within tolerance, or takes a fresh one in loop order.

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/session"
)

// oracleNumbering is the all-bins numbering: it returns the id of every
// local node and the number of ids.
func oracleNumbering(m *mesh.Mesh) ([]int64, int) {
	type key struct{ a, b, c int64 }
	var scale float64
	for i := range m.X {
		scale = math.Max(scale, math.Abs(m.X[i]))
		scale = math.Max(scale, math.Abs(m.Y[i]))
		scale = math.Max(scale, math.Abs(m.Zc[i]))
	}
	if scale == 0 {
		scale = 1
	}
	tol := scale * 1e-8
	inv := 1 / tol
	bins := make(map[key][]int32)
	var coords [][3]float64
	gid := make([]int64, m.K*m.Np)
	wrap := m.PeriodicWrap()
	for li := range gid {
		p := [3]float64{m.X[li], m.Y[li], m.Zc[li]}
		if wrap != nil {
			p = wrap(p)
		}
		qa := int64(math.Floor(p[0] * inv))
		qb := int64(math.Floor(p[1] * inv))
		qc := int64(math.Floor(p[2] * inv))
		found := int32(-1)
	search:
		for da := int64(-1); da <= 1; da++ {
			for db := int64(-1); db <= 1; db++ {
				for dc := int64(-1); dc <= 1; dc++ {
					for _, g := range bins[key{qa + da, qb + db, qc + dc}] {
						q := coords[g]
						if math.Abs(q[0]-p[0]) < tol && math.Abs(q[1]-p[1]) < tol && math.Abs(q[2]-p[2]) < tol {
							found = g
							break search
						}
					}
				}
			}
		}
		if found < 0 {
			found = int32(len(coords))
			coords = append(coords, p)
			k := key{qa, qb, qc}
			bins[k] = append(bins[k], found)
		}
		gid[li] = int64(found)
	}
	return gid, len(coords)
}

func TestNumberingMatchesAllBinsOracle(t *testing.T) {
	type mesher func(n int) (*mesh.Mesh, error)
	named := func(name string) mesher {
		return func(n int) (*mesh.Mesh, error) {
			cfg, _, err := session.Config{Case: name, N: n}.Problem()
			return cfg.Mesh, err
		}
	}
	spec := func(s *mesh.Spec) mesher {
		return func(n int) (*mesh.Mesh, error) { return mesh.Discretize(s, n) }
	}
	cases := []struct {
		name string
		make mesher
	}{
		{"channel", named("channel")},
		{"hairpin", named("hairpin")},
		{"shearlayer", named("shearlayer")},
		{"convection", named("convection")},
		{"cylinder O-grid", spec(mesh.CylinderOGrid(mesh.CylinderOGridSpec{NTheta: 16, NLayer: 6, R: 0.5, H: 4, WallRatio: 8}))},
		{"deformed Box3D", spec(mesh.Box3D(mesh.Box3DSpec{
			Nx: 3, Ny: 2, Nz: 2, X1: 3, Y1: 2, Z1: 1, GradeZ: mesh.GeomGrading(3),
			Deform: func(x, y, z float64) (float64, float64, float64) {
				return x + 0.1*math.Sin(y)*z, y + 0.05*math.Sin(x), z + 0.1*math.Sin(x)*math.Sin(y)
			},
		}))},
		{"doubly periodic Box2D", spec(mesh.Box2D(mesh.Box2DSpec{
			Nx: 4, Ny: 2, X0: -1, X1: 1, Y0: 0, Y1: 3, PeriodicX: true, PeriodicY: true,
		}))},
		// Scale 1 and 2: every element face lies on a bin edge, a multiple
		// of 2·tol = 2e-8·scale, and straddle puts the copies of a shared
		// node 1e-12·scale to either side of it.
		{"doubly periodic Box2D on bin edges", spec(straddle(mesh.Box2D(mesh.Box2DSpec{
			Nx: 4, Ny: 2, X0: -1, X1: 1, Y0: -0.5, Y1: 0.5, PeriodicX: true, PeriodicY: true,
		}), 1, 4, 2))},
		{"Box3D on bin edges", spec(straddle(mesh.Box3D(mesh.Box3DSpec{
			Nx: 4, Ny: 2, Nz: 2, X0: -2, X1: 0, Y0: -1, Y1: 1, Z0: 0, Z1: 1,
		}), 2, 4, 2))},
	}
	for _, c := range cases {
		for _, n := range []int{4, 7} {
			m, err := c.make(n)
			if err != nil {
				t.Fatalf("%s N=%d: %v", c.name, n, err)
			}
			gid, ng := oracleNumbering(m)
			if m.NGlobal != ng {
				t.Errorf("%s N=%d: NGlobal %d, oracle %d", c.name, n, m.NGlobal, ng)
			}
			for i := range gid {
				if m.GID[i] != gid[i] {
					t.Errorf("%s N=%d: GID[%d] = %d, oracle %d", c.name, n, i, m.GID[i], gid[i])
					break
				}
			}
		}
	}
}

// straddle moves every node of the nx × ny (× nz) box s by 1e-12·scale
// along each axis, up or down with the parity of its element's grid index,
// so the two copies of a node two elements share lie on either side of
// where the unmoved node was, a bin edge when s is placed on one.
func straddle(s *mesh.Spec, scale float64, nx, ny int) *mesh.Spec {
	for e := range s.Elems {
		el := &s.Elems[e]
		d := 1e-12 * scale
		if (e%nx+e/nx%ny+e/(nx*ny))%2 == 1 {
			d = -d
		}
		f := el.Map
		el.Map = func(r, sc, t float64) (float64, float64, float64) {
			x, y, z := f(r, sc, t)
			if s.Dim == 3 {
				z += d
			}
			return x + d, y + d, z
		}
	}
	return s
}
