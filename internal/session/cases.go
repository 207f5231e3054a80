package session

// cases.go is the case table: each named flow of the paper's evaluation,
// described once, by its physics (the flowcases config its spec reads: Re,
// Δt, ρ or Ra, the mesh) and the knobs a Config that leaves them unset gets
// (N, Nel, KX × KY, ProjectionL, Alpha). semflowd's submits and semflow's
// flags start from it through Config, cmd/tables' experiments through the
// physics functions, each overriding only what it varies.

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"repro/internal/flowcases"
	"repro/internal/ns"
)

// ShearLayer is the shearlayer case's physics: Fig. 3's thick layer.
func ShearLayer() flowcases.ShearLayerConfig {
	return flowcases.ShearLayerConfig{Rho: 30, Re: 1e5, Dt: 0.002}
}

// Channel is the channel case's physics: Table 1's Tollmien–Schlichting
// channel (wavenumber 1) under the second-order splitting.
func Channel() flowcases.ChannelConfig {
	return flowcases.ChannelConfig{Re: 7500, Alpha: 1, Dt: 0.003125, Order: 2}
}

// Convection is the convection case's physics, Fig. 4's stand-in.
func Convection() flowcases.ConvectionConfig { return flowcases.ConvectionConfig{Ra: 1e4, Dt: 0.002} }

// Hairpin is the hairpin case's physics, the Figs. 7–8 stand-in.
func Hairpin() flowcases.HairpinConfig {
	return flowcases.HairpinConfig{Nx: 6, Ny: 4, Nz: 3, Re: 1600, Dt: 0.05}
}

// caseEntry is one named case: its defaults, and the problem a resolved
// config builds from its physics.
type caseEntry struct {
	defaults Config
	build    func(c Config) (ns.Config, flowcases.InitFunc, error)
}

// namedCases is the table. The channel runs unfiltered, as Table 1 does; the
// other three are filtered at α = 0.3.
var namedCases = map[string]caseEntry{
	"shearlayer": {Config{N: 8, Nel: 8, ProjectionL: 20, Alpha: strength(0.3)},
		func(c Config) (ns.Config, flowcases.InitFunc, error) {
			p := ShearLayer()
			p.Nel, p.N = c.Nel, c.N
			return flowcases.ShearLayerSpec(p)
		}},
	"channel": {Config{N: 8, KX: 5, KY: 3, ProjectionL: 20, Alpha: strength(0)},
		func(c Config) (ns.Config, flowcases.InitFunc, error) {
			p := Channel()
			p.N, p.KX, p.KY = c.N, c.KX, c.KY
			cfg, init, _, err := flowcases.ChannelSpec(p)
			return cfg, init, err
		}},
	"convection": {Config{N: 8, Nel: 8, ProjectionL: 20, Alpha: strength(0.3)},
		func(c Config) (ns.Config, flowcases.InitFunc, error) {
			p := Convection()
			p.Nel, p.N = c.Nel, c.N
			cfg, err := flowcases.ConvectionSpec(p)
			return cfg, nil, err // the cell starts at rest
		}},
	"hairpin": {Config{N: 8, ProjectionL: 20, Alpha: strength(0.3)},
		func(c Config) (ns.Config, flowcases.InitFunc, error) {
			p := Hairpin()
			p.N = c.N
			return flowcases.HairpinSpec(p)
		}},
}

// strength is a filter strength as Config.Alpha holds it, set.
func strength(a float64) *float64 { return &a }

// CaseNames lists the named cases, sorted.
func CaseNames() []string {
	names := make([]string, 0, len(namedCases))
	for name := range namedCases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Resolve returns the config with every knob it leaves unset taken from its
// case's entry in the table: what the run is, and what a job's config.json
// records. An unknown case is an error.
func (c Config) Resolve() (Config, error) {
	e, ok := namedCases[c.Case]
	if !ok {
		return c, fmt.Errorf("session: unknown case %q (have %s)", c.Case, strings.Join(CaseNames(), ", "))
	}
	d := e.defaults
	c.N, c.Nel = cmp.Or(c.N, d.N), cmp.Or(c.Nel, d.Nel)
	c.KX, c.KY = cmp.Or(c.KX, d.KX), cmp.Or(c.KY, d.KY)
	c.ProjectionL = cmp.Or(c.ProjectionL, d.ProjectionL)
	if c.Alpha == nil {
		c.Alpha = strength(*d.Alpha)
	}
	c.BatchSteps = max(c.BatchSteps, 1)
	return c, nil
}

// Problem builds the problem definition the config names, resolved: the
// case's physics at the config's size, then the knobs every case takes the
// same way (Alpha, Precond, ProjectionL, where -1 sets a basis of 0, no
// projection, and PIters when set). A nil InitFunc means the velocity starts
// at rest.
func (c Config) Problem() (ns.Config, flowcases.InitFunc, error) {
	c, err := c.Resolve()
	if err != nil {
		return ns.Config{}, nil, err
	}
	cfg, init, err := namedCases[c.Case].build(c)
	if err != nil {
		return ns.Config{}, nil, fmt.Errorf("session: %w", err)
	}
	cfg.FilterAlpha, cfg.PressurePrecond = *c.Alpha, c.Precond
	cfg.ProjectionL = max(c.ProjectionL, 0)
	if c.PIters > 0 {
		cfg.PMaxIter = c.PIters
	}
	return cfg, init, nil
}
