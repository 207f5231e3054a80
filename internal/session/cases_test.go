package session

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/flowcases"
)

// TestNamedAppliesAlphaToEveryCase: the filter strength is a parameter every
// named case takes the same way, as it does the preconditioner —
// the convection cell once dropped it and ran unfiltered whatever was asked.
func TestNamedAppliesAlphaToEveryCase(t *testing.T) {
	for _, name := range CaseNames() {
		for _, alpha := range []float64{0, 0.3, 1} {
			cfg, _, err := Config{Case: name, N: 4, Nel: 2, Alpha: &alpha}.Problem()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cfg.FilterAlpha != alpha {
				t.Errorf("%s with alpha %g: FilterAlpha %g", name, alpha, cfg.FilterAlpha)
			}
		}
	}
}

// TestNamedCaseTable pins the problem each named case builds to the values
// the shared-memory and distributed drivers hard-coded in two switches before
// the table replaced both, so the one table is checked against them rather
// than trusted.
func TestNamedCaseTable(t *testing.T) {
	p := Config{N: 6, Nel: 3, Alpha: strength(0.3), Precond: "chebjacobi"}
	named := func(name string) Config { c := p; c.Case = name; return c }
	type scalars struct {
		Re, Dt, Filter, PTol, VTol, SubCFL float64
		Order, ProjL, K, N, PMaxIter       int
	}
	for name, want := range map[string]scalars{
		"shearlayer": {Re: 1e5, Dt: 0.002, Filter: 0.3, PTol: 1e-7, SubCFL: 0.25, ProjL: 20, K: 9, N: 6},
		"channel":    {Re: 7500, Dt: 0.003125, Filter: 0.3, PTol: 1e-9, VTol: 1e-11, Order: 2, ProjL: 20, K: 15, N: 6},
		"convection": {Re: 1, Dt: 0.002, Filter: 0.3, PTol: 1e-8, ProjL: 20, K: 9, N: 6},
		"hairpin":    {Re: 1600, Dt: 0.05, Filter: 0.3, PTol: 1e-6, VTol: 1e-8, ProjL: 20, K: 72, N: 6},
	} {
		cfg, init, err := named(name).Problem()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := scalars{Re: cfg.Re, Dt: cfg.Dt, Filter: cfg.FilterAlpha, PTol: cfg.PTol, VTol: cfg.VTol,
			SubCFL: cfg.SubCFL, Order: cfg.Order, ProjL: cfg.ProjectionL, K: cfg.Mesh.K, N: cfg.Mesh.N,
			PMaxIter: cfg.PMaxIter}
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
		if cfg.PressurePrecond != "chebjacobi" {
			t.Errorf("%s: precond %q not passed through", name, cfg.PressurePrecond)
		}
		// Only the convection cell starts at rest, with a scalar driving it.
		if rest := name == "convection"; (init == nil) != rest || (cfg.Scalar != nil) != rest {
			t.Errorf("%s: init nil %v, scalar %v", name, init == nil, cfg.Scalar != nil)
		}
	}
	if cfg, _, _ := named("convection").Problem(); cfg.Scalar.Buoyancy != [3]float64{0, 1e4, 0} {
		t.Errorf("convection buoyancy %v, want Ra = 1e4 upward", cfg.Scalar.Buoyancy)
	}
	// The parameters that are not defaults: mesh size, projection basis, cap.
	cfg, _, err := Config{Case: "channel", N: 4, KX: 8, KY: 2, ProjectionL: 5, PIters: 8}.Problem()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mesh.K != 16 || cfg.ProjectionL != 5 || cfg.PMaxIter != 8 {
		t.Errorf("channel 8x2 L=5 piters=8: K %d, L %d, cap %d", cfg.Mesh.K, cfg.ProjectionL, cfg.PMaxIter)
	}
	// projection_l -1 turns projection off; 0 keeps the case default.
	for l, want := range map[int]int{-1: 0, 0: 20} {
		cfg, _, err := Config{Case: "channel", N: 4, ProjectionL: l}.Problem()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.ProjectionL != want {
			t.Errorf("channel projection_l=%d: ns.Config.ProjectionL = %d, want %d", l, cfg.ProjectionL, want)
		}
	}
	if _, _, err := named("vortexstreet").Problem(); err == nil {
		t.Error("unknown case accepted")
	}
	if got := CaseNames(); len(got) != 4 || got[0] != "channel" || got[3] != "shearlayer" {
		t.Errorf("CaseNames() = %v", got)
	}
}

// TestProblemDefaultsEachChannelDimension: kx and ky default one at a time
// (5 along, 3 across) — a channel given only kx once had no rows of elements
// and panicked in the pressure preconditioner, and one given only ky ran the
// 5 x 3 mesh.
func TestProblemDefaultsEachChannelDimension(t *testing.T) {
	for _, tc := range []struct {
		kx, ky, k int
	}{{0, 0, 15}, {8, 0, 24}, {0, 2, 10}, {8, 2, 16}} {
		cfg, _, err := Config{Case: "channel", N: 4, KX: tc.kx, KY: tc.ky}.Problem()
		if err != nil {
			t.Fatalf("kx %d, ky %d: %v", tc.kx, tc.ky, err)
		}
		if cfg.Mesh.K != tc.k {
			t.Errorf("kx %d, ky %d: K = %d, want %d", tc.kx, tc.ky, cfg.Mesh.K, tc.k)
		}
	}
}

// BenchmarkCaseSetUp times what a cold job pays before its first step, per
// named case at the order of semflowd's channel jobs (N = 9): the problem
// from its config, the solver (mesh, operators, preconditioner) and the
// initial condition.
func BenchmarkCaseSetUp(b *testing.B) {
	for _, name := range CaseNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				cfg, init, err := Config{Case: name, N: 9}.Problem()
				if err != nil {
					b.Fatal(err)
				}
				s, err := flowcases.NewSolver(cfg, init)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// submitBody posts a raw submit body and waits for its job to finish.
func submitBody(t *testing.T, m *Manager, url, body string) *Job {
	t.Helper()
	resp, err := http.Post(url+"/api/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: %d %s", body, resp.StatusCode, b)
	}
	var sub SubmitResponse
	decodeJSON(t, resp, &sub)
	j, ok := m.Get(sub.ID)
	if !ok {
		t.Fatalf("job %s not found", sub.ID)
	}
	waitJob(t, j)
	return j
}

// storedAlpha reads the filter strength a job's config.json records.
func storedAlpha(t *testing.T, m *Manager, id string) *float64 {
	t.Helper()
	raw, err := m.Store().Get(id, ArtifactConfig)
	if err != nil {
		t.Fatal(err)
	}
	var c Config
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c.Alpha
}

// TestSubmitTakesTheCaseDefaults: a submit that leaves a knob out runs the
// case table's default, and one that sets it, "alpha": 0 included, runs what
// it asks for; config.json records the filter strength the job ran. The
// hairpin submit without alpha once ran unfiltered and failed at step 12
// (CFL 7e+25) where semflow, filtering it, stepped on.
func TestSubmitTakesTheCaseDefaults(t *testing.T) {
	m, srv := newTestAPI(t)
	for _, tc := range []struct {
		body  string
		state State
		alpha float64
	}{
		{`{"case":"hairpin","n":5,"steps":20}`, StateDone, 0.3},
		{`{"case":"hairpin","n":5,"steps":20,"alpha":0}`, StateFailed, 0},
		{`{"case":"channel","n":4,"steps":1}`, StateDone, 0},
	} {
		j := submitBody(t, m, srv.URL, tc.body)
		if st := j.Status(); st.State != tc.state {
			t.Errorf("%s: %s at step %d (%q), want %s", tc.body, st.State, st.Step, st.Error, tc.state)
		}
		if a := storedAlpha(t, m, j.ID); a == nil || *a != tc.alpha {
			t.Errorf("%s: config.json alpha %v, want %g", tc.body, a, tc.alpha)
		}
	}
}

// TestResumeOfAConfigWithoutAlphaRunsUnfiltered: a config.json stored before
// it recorded the filter strength omitted it for an unfiltered job, so the
// resumed job runs at 0, not at the case's default.
func TestResumeOfAConfigWithoutAlphaRunsUnfiltered(t *testing.T) {
	m, srv := newTestAPI(t)
	j := submitBody(t, m, srv.URL, `{"case":"shearlayer","nel":2,"n":4,"steps":2,"alpha":0}`)
	raw, err := m.Store().Get(j.ID, ArtifactConfig)
	if err != nil {
		t.Fatal(err)
	}
	var stored map[string]any
	if err := json.Unmarshal(raw, &stored); err != nil {
		t.Fatal(err)
	}
	delete(stored, "alpha")
	if raw, err = json.Marshal(stored); err != nil {
		t.Fatal(err)
	}
	if err := m.Store().Put(j.ID, ArtifactConfig, raw); err != nil {
		t.Fatal(err)
	}
	r := submitBody(t, m, srv.URL, `{"resume_from":"`+j.ID+`","steps":4}`)
	if st := r.Status(); st.State != StateDone || st.Step != 4 {
		t.Fatalf("resumed job: %s at step %d (%q), want done at 4", st.State, st.Step, st.Error)
	}
	if a := r.Cfg.Alpha; a == nil || *a != 0 {
		t.Errorf("resumed job's alpha %v, want 0", a)
	}
}
