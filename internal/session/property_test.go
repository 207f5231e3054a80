package session

// property_test.go holds seeded property tests: each draws its inputs from
// a fixed seed and asserts a property of every draw, or a statistic of them
// within a stated epsilon, rather than a digest of one run.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/flowcases"
	"repro/internal/gs"
	"repro/internal/parrun"
)

// TestSchwarzIsSymmetricPositive: the pressure preconditioner M⁻¹ the
// channel and the hairpin box step with (schwarz, the default) satisfies
// ⟨M⁻¹r, q⟩ = ⟨r, M⁻¹q⟩ to 1e-12 relative to ‖M⁻¹r‖·‖q‖, and ⟨M⁻¹r, r⟩ > 0,
// on 16 seeded random pairs each: CG's convergence theory needs both. M⁻¹ is
// the operator the pressure CG applies (ApplyPrecond): on the enclosed
// channel the Schwarz sandwich between two deflations of the mean, which
// ns.TestSchwarzSymmetricPositive, holding the sandwich alone, does not see.
func TestSchwarzIsSymmetricPositive(t *testing.T) {
	const draws, epsilon = 16, 1e-12
	rng := rand.New(rand.NewSource(26))
	for _, name := range []string{"channel", "hairpin"} {
		cfg, init, err := Config{Case: name, N: 5}.Problem()
		if err != nil {
			t.Fatal(err)
		}
		s, err := flowcases.NewSolver(cfg, init)
		if err != nil {
			t.Fatal(err)
		}
		if s.PrecondName() != "schwarz" {
			t.Fatalf("%s: preconditioner %q, want schwarz", name, s.PrecondName())
		}
		n := len(s.Pressure())
		r, q, mr, mq := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		worst, least := 0.0, math.Inf(1)
		for range draws {
			for i := range r {
				r[i], q[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			s.ApplyPrecond(mr, r)
			s.ApplyPrecond(mq, q)
			asym := math.Abs(dot(mr, q)-dot(r, mq)) / math.Sqrt(dot(mr, mr)*dot(q, q))
			worst = math.Max(worst, asym)
			least = math.Min(least, dot(mr, r)/dot(r, r))
		}
		t.Logf("%s: K=%d, %d draws: max relative asymmetry %.2e, min <M⁻¹r,r>/<r,r> %.3e", name, s.M.K, draws, worst, least)
		if worst > epsilon {
			t.Errorf("%s: relative asymmetry %.2e, want at most %.0e", name, worst, epsilon)
		}
		if !(least > 0) {
			t.Errorf("%s: <M⁻¹r,r>/<r,r> = %g on some draw, want > 0", name, least)
		}
	}
}

// TestAveragingIsIdempotent: averaging an element-local field — summing the
// copies of each global node through the solver's gather–scatter handle,
// then dividing by the node's multiplicity — leaves every copy of a global
// node bitwise equal, and averaging the result again moves no entry by more
// than 4.5e-16 of itself (two units of 2⁻⁵²), on 8 seeded random fields
// each on the channel mesh and the hairpin box. The second average sums m
// equal copies and divides by m, which may round: measured, 0 on the
// channel and 2.7e-16 on the hairpin box.
func TestAveragingIsIdempotent(t *testing.T) {
	const draws, epsilon = 8, 4.5e-16
	rng := rand.New(rand.NewSource(68))
	for _, name := range []string{"channel", "hairpin"} {
		cfg, init, err := Config{Case: name, N: 5}.Problem()
		if err != nil {
			t.Fatal(err)
		}
		s, err := flowcases.NewSolver(cfg, init)
		if err != nil {
			t.Fatal(err)
		}
		d, gid := s.Disc(), s.M.GID
		average := func(u []float64) {
			d.GS.Apply(u, gs.Sum)
			for i := range u {
				u[i] /= d.Mult[i]
			}
		}
		u, again := make([]float64, len(gid)), make([]float64, len(gid))
		worst := 0.0
		for range draws {
			for i := range u {
				u[i] = rng.NormFloat64()
			}
			average(u)
			first := map[int64]float64{}
			for i, g := range gid {
				if v, ok := first[g]; !ok {
					first[g] = u[i]
				} else if math.Float64bits(v) != math.Float64bits(u[i]) {
					t.Fatalf("%s: copies of global node %d differ after averaging: %v and %v", name, g, v, u[i])
				}
			}
			copy(again, u)
			average(again)
			for i, v := range again {
				worst = math.Max(worst, math.Abs(v-u[i])/math.Abs(u[i]))
			}
		}
		t.Logf("%s: K=%d, %d draws: a second average moves an entry by at most %.2e of itself", name, s.M.K, draws, worst)
		if !(worst <= epsilon) {
			t.Errorf("%s: a second average moves an entry by %.2e of itself, want at most %.1e", name, worst, epsilon)
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// TestCheckpointRestoreIsTheIdentity: a snapshot taken at a seeded random
// step count and restored into a new session is that session's snapshot,
// byte for byte, and both sessions step on alike — on both machines.
func TestCheckpointRestoreIsTheIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	encode := func(s *Session) []byte {
		t.Helper()
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, ranks := range []int{0, 3} {
		for range 3 {
			k, more := 1+rng.Intn(8), 1+rng.Intn(4)
			cfg := Config{Case: "channel", N: 4, KX: 3, KY: 2, Ranks: ranks}
			a, err := Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.StepN(k); err != nil {
				t.Fatal(err)
			}
			snap := encode(a)
			ck, err := parrun.ReadCheckpoint(bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Resume(cfg, ck)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(b), snap) {
				t.Errorf("ranks=%d: the snapshot at step %d does not restore to itself", ranks, k)
			}
			for _, s := range []*Session{a, b} {
				if _, err := s.StepN(more); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(encode(a), encode(b)) {
				t.Errorf("ranks=%d: restored at step %d, the run differs %d steps on", ranks, k, more)
			}
			a.Close()
			b.Close()
		}
	}
}
