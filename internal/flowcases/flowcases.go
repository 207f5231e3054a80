// Package flowcases configures the canonical flow problems of the paper's
// evaluation: the doubly-periodic shear-layer roll-up of Fig. 3 (Brown &
// Minion's test), the Tollmien–Schlichting channel of Table 1, a
// buoyancy-driven convection cell standing in for the GFFC spherical
// convection of Fig. 4, and the impulsively-started boundary-layer box with
// a hemispherical roughness element standing in for the hairpin-vortex
// production run of Figs. 7–8 and Table 4.
// It holds each case's physics, a *Spec over a per-case config, and the
// diagnostics of a running solver; session.Config.Problem maps case names
// and a run's knobs onto the specs.
package flowcases

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/ns"
	"repro/internal/orrsomm"
)

// ShearLayerConfig selects a Fig. 3 case.
type ShearLayerConfig struct {
	Nel   int     // elements per direction (paper: 16 or 32)
	N     int     // polynomial order (paper: 8, 16, 32)
	Rho   float64 // shear layer thickness parameter (30 thick, 100 thin)
	Re    float64 // 1e5 thick, 4e4 thin
	Dt    float64 // paper: 0.002
	Alpha float64 // filter strength (0 none, 0.3 partial, 1 full)
}

// InitFunc is an initial velocity field. Specs return the problem as an
// (ns.Config, InitFunc) pair so the serial solver (ns.New + SetVelocity)
// and the distributed stepper (parrun.NavierStokes) run the exact same
// case from the exact same initial condition.
type InitFunc = func(x, y, z float64) (u, v, w float64)

// ShearLayerSpec builds the Fig. 3 problem definition without constructing
// a solver.
func ShearLayerSpec(c ShearLayerConfig) (ns.Config, InitFunc, error) {
	if c.Dt == 0 {
		c.Dt = 0.002
	}
	spec := mesh.Box2D(mesh.Box2DSpec{
		Nx: c.Nel, Ny: c.Nel, X0: 0, X1: 1, Y0: 0, Y1: 1,
		PeriodicX: true, PeriodicY: true,
	})
	m, err := mesh.Discretize(spec, c.N)
	if err != nil {
		return ns.Config{}, nil, err
	}
	// Production filter setting: ramp over the top ~20% of modes (at least
	// two), reaching strength alpha at mode N — the robust variant of the
	// Fischer–Mullen filter for strongly under-resolved runs.
	cutoff := c.N - c.N/5
	if cutoff > c.N-2 {
		cutoff = c.N - 2
	}
	cfg := ns.Config{
		Mesh: m, Re: c.Re, Dt: c.Dt,
		FilterAlpha: c.Alpha, FilterCutoff: cutoff,
		ProjectionL: 20, PTol: 1e-7, SubCFL: 0.25,
	}
	rho := c.Rho
	init := func(x, y, z float64) (float64, float64, float64) {
		var u float64
		if y <= 0.5 {
			u = math.Tanh(rho * (y - 0.25))
		} else {
			u = math.Tanh(rho * (0.75 - y))
		}
		return u, 0.05 * math.Sin(2*math.Pi*x), 0
	}
	return cfg, init, nil
}

// ShearLayer builds the doubly periodic shear layer solver with the paper's
// initial condition.
func ShearLayer(c ShearLayerConfig) (*ns.Solver, error) {
	cfg, init, err := ShearLayerSpec(c)
	if err != nil {
		return nil, err
	}
	return NewSolver(cfg, init)
}

// NewSolver builds a problem's shared-memory solver (nil init: at rest).
func NewSolver(cfg ns.Config, init InitFunc) (*ns.Solver, error) {
	s, err := ns.New(cfg)
	if err == nil && init != nil {
		s.SetVelocity(init)
	}
	return s, err
}

// Vorticity returns the z-vorticity ω = ∂v/∂x - ∂u/∂y of the current
// velocity (element-local, C0-averaged).
func Vorticity(s *ns.Solver) []float64 {
	d := s.Disc()
	n := len(s.Velocity(0))
	gx := make([]float64, n)
	gy := make([]float64, n)
	w := make([]float64, n)
	d.Grad([][]float64{gx, gy}, s.Velocity(1))
	copy(w, gx)
	d.Grad([][]float64{gx, gy}, s.Velocity(0))
	for i := range w {
		w[i] -= gy[i]
	}
	d.DirectStiffnessAverage(w)
	return w
}

// FieldRange returns (min, max) of a field.
func FieldRange(f []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range f {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// KineticEnergy returns ½∫|u|² dΩ.
func KineticEnergy(s *ns.Solver) float64 {
	d := s.Disc()
	var e float64
	for c := 0; c < s.M.Dim; c++ {
		u := s.Velocity(c)
		n := d.L2Norm(u)
		e += 0.5 * n * n
	}
	return e
}

// ChannelConfig selects a Table 1 configuration.
type ChannelConfig struct {
	Re      float64 // paper: 7500
	Alpha   float64 // streamwise wavenumber (paper: 1)
	N       int     // polynomial order
	KX, KY  int     // element grid (paper: K = 15, e.g. 5 x 3); 0 is 5 along, 3 across
	Dt      float64
	Order   int     // 2 or 3
	Filter  float64 // filter strength (Table 1's α)
	Eps     float64 // perturbation amplitude (paper: 1e-5)
	Workers int     // ignored; kept only because the frozen bench/ harness sets it
	Precond string  // pressure preconditioner variant ("" = schwarz)
}

// ChannelSpec builds the Table 1 problem definition without constructing a
// solver.
func ChannelSpec(c ChannelConfig) (ns.Config, InitFunc, *orrsomm.Result, error) {
	c.KX, c.KY = cmp.Or(c.KX, 5), cmp.Or(c.KY, 3) // each on its own
	if c.Eps == 0 {
		c.Eps = 1e-5
	}
	osr, err := orrsomm.Solve(c.Re, c.Alpha, 128, complex(0.25, 0.002))
	if err != nil {
		return ns.Config{}, nil, nil, fmt.Errorf("flowcases: OS reference: %w", err)
	}
	lx := 2 * math.Pi / c.Alpha
	spec := mesh.Box2D(mesh.Box2DSpec{
		Nx: c.KX, Ny: c.KY, X0: 0, X1: lx, Y0: -1, Y1: 1, PeriodicX: true,
	})
	m, err := mesh.Discretize(spec, c.N)
	if err != nil {
		return ns.Config{}, nil, nil, err
	}
	re := c.Re
	cfg := ns.Config{
		Mesh: m, Re: re, Dt: c.Dt, Order: c.Order, FilterAlpha: c.Filter,
		ProjectionL: 20, PTol: 1e-9, VTol: 1e-11,
		PressurePrecond: c.Precond,
		DirichletMask:   func(x, y, z float64) bool { return true }, // walls
		DirichletVal: func(x, y, z, t float64) (float64, float64, float64) {
			return 0, 0, 0
		},
		// Pressure-gradient forcing that sustains the laminar base flow.
		Forcing: func(x, y, z, t float64) (float64, float64, float64) {
			return 2 / re, 0, 0
		},
	}
	eps, wave := c.Eps, osr.Wave(m.Y)
	init := func(x, y, z float64) (float64, float64, float64) {
		up, vp := wave.Velocity(x, y, 0, eps)
		return orrsomm.BaseFlow(y) + up, vp, 0
	}
	return cfg, init, osr, nil
}

// Channel builds the TS-wave channel problem and returns the solver along
// with the Orr–Sommerfeld reference solution.
func Channel(c ChannelConfig) (*ns.Solver, *orrsomm.Result, error) {
	cfg, init, osr, err := ChannelSpec(c)
	if err != nil {
		return nil, nil, err
	}
	s, err := NewSolver(cfg, init)
	return s, osr, err
}

// PerturbationEnergy returns ∫ (u-U_base)² + v² dΩ for the channel problem.
func PerturbationEnergy(s *ns.Solver) float64 {
	d := s.Disc()
	m := s.M
	n := len(s.Velocity(0))
	du := make([]float64, n)
	for i := 0; i < n; i++ {
		du[i] = s.Velocity(0)[i] - orrsomm.BaseFlow(m.Y[i])
	}
	eu := d.L2Norm(du)
	ev := d.L2Norm(s.Velocity(1))
	return eu*eu + ev*ev
}

// MeasuredGrowthRate runs the channel solver from t0 to t1 and returns the
// fitted amplitude growth rate ½·d(ln E)/dt over that window.
func MeasuredGrowthRate(s *ns.Solver, steps int) (float64, error) {
	e0 := PerturbationEnergy(s)
	t0 := s.Time()
	for i := 0; i < steps; i++ {
		if _, err := s.Step(); err != nil {
			return 0, err
		}
	}
	e1 := PerturbationEnergy(s)
	t1 := s.Time()
	if e0 <= 0 || e1 <= 0 {
		return 0, fmt.Errorf("flowcases: non-positive perturbation energy")
	}
	return 0.5 * math.Log(e1/e0) / (t1 - t0), nil
}

// ConvectionConfig is the Fig. 4 stand-in: a buoyancy-driven convection
// cell whose successive pressure systems exercise the projection method.
type ConvectionConfig struct {
	Nel, N      int
	Ra          float64 // Rayleigh-like buoyancy strength
	Dt          float64
	ProjectionL int // pressure projection basis size (0 = off)
}

// ConvectionSpec builds the problem definition of a closed 2D box heated
// from below (Boussinesq) without constructing a solver; the velocity starts
// at rest.
func ConvectionSpec(c ConvectionConfig) (ns.Config, error) {
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: c.Nel, Ny: c.Nel, X0: 0, X1: 2, Y0: 0, Y1: 1})
	m, err := mesh.Discretize(spec, c.N)
	if err != nil {
		return ns.Config{}, err
	}
	pr := 1.0
	return ns.Config{
		Mesh: m, Re: 1 / pr, Dt: c.Dt,
		ProjectionL: c.ProjectionL, PTol: 1e-8,
		DirichletMask: func(x, y, z float64) bool { return true },
		DirichletVal: func(x, y, z, t float64) (float64, float64, float64) {
			return 0, 0, 0
		},
		Scalar: &ns.ScalarConfig{
			Diffusivity: 1,
			Buoyancy:    [3]float64{0, c.Ra, 0},
			DirichletMask: func(x, y, z float64) bool {
				return y < 1e-12 || y > 1-1e-12 // top and bottom walls
			},
			DirichletVal: func(x, y, z, t float64) float64 {
				if y < 0.5 {
					return 1 // hot floor
				}
				return 0
			},
			Initial: func(x, y, z float64) float64 {
				// Conduction profile plus a symmetry-breaking perturbation.
				return (1 - y) + 0.01*math.Sin(math.Pi*x)*math.Sin(math.Pi*y)
			},
		},
	}, nil
}

// Convection builds the convection-cell solver.
func Convection(c ConvectionConfig) (*ns.Solver, error) {
	cfg, err := ConvectionSpec(c)
	if err != nil {
		return nil, err
	}
	return ns.New(cfg)
}

// HairpinConfig is the Figs. 7–8 / Table 4 stand-in: an impulsively started
// boundary layer over a wall with a hemispherical roughness element.
type HairpinConfig struct {
	Nx, Ny, Nz int
	N          int
	Re         float64 // based on the roughness radius
	Dt         float64
	Workers    int // ignored; kept only because the frozen bench/ harness sets it
	FilterA    float64
	Precond    string // pressure preconditioner variant ("" = schwarz)
}

// HairpinSpec builds the Figs. 7–8 problem definition without constructing
// a solver.
func HairpinSpec(c HairpinConfig) (ns.Config, InitFunc, error) {
	const r = 1.0         // roughness radius sets the unit
	const delta = 1.2 * r // boundary layer thickness, as in the paper
	lx, ly, lz := 12*r, 6*r, 4*r
	spec := mesh.HemisphereBox(mesh.HemisphereBoxSpec{
		Nx: c.Nx, Ny: c.Ny, Nz: c.Nz,
		Lx: lx, Ly: ly, Lz: lz,
		Cx: 3 * r, Cy: 3 * r,
		Radius: r, Height: 0.8 * r,
		WallRatio: 3,
	})
	m, err := mesh.Discretize(spec, c.N)
	if err != nil {
		return ns.Config{}, nil, err
	}
	blasius := func(z float64) float64 {
		eta := z / delta
		if eta >= 1 {
			return 1
		}
		// Polynomial Blasius approximation (Pohlhausen).
		return 2*eta - 2*eta*eta*eta + eta*eta*eta*eta
	}
	cfg := ns.Config{
		Mesh: m, Re: c.Re, Dt: c.Dt,
		FilterAlpha: c.FilterA, ProjectionL: 20, PTol: 1e-6, VTol: 1e-8,
		PressurePrecond: c.Precond,
		// Dirichlet on inflow (x=0), floor (z=0 including the bump, which
		// lifts it to at most 0.8) and top; outflow (x=Lx) and the spanwise
		// sides are left natural.
		DirichletMask: func(x, y, z float64) bool {
			return x < 1e-9 || z > lz-1e-9 || z < 0.85
		},
		DirichletVal: func(x, y, z, t float64) (float64, float64, float64) {
			if z > lz-1e-9 || x < 1e-9 {
				return blasius(z), 0, 0 // free stream / inflow profile
			}
			return 0, 0, 0 // no-slip floor
		},
	}
	init := func(x, y, z float64) (float64, float64, float64) {
		return blasius(z), 0, 0
	}
	return cfg, init, nil
}

// Hairpin builds the 3D roughness-element boundary-layer problem.
func Hairpin(c HairpinConfig) (*ns.Solver, error) {
	cfg, init, err := HairpinSpec(c)
	if err != nil {
		return nil, err
	}
	return NewSolver(cfg, init)
}
