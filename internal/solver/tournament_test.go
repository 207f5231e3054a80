package solver

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestSelectPrecondCutKeepsTheExhaustiveWinner: over random candidate sets
// on a metered SPD system, the tournament that cuts hopeless trials names
// the winner that running every candidate to its end and ranking by
// trialBetter names, and reports the winner's trial as that full run. A cut
// comes only after some trial has converged, and a cut trial has charged at
// least the winner's work. Trials that are not cut are their full runs.
func TestSelectPrecondCutKeepsTheExhaustiveWinner(t *testing.T) {
	cuts, ties := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		a := spd(rng, n)
		var work int64
		meter := func() int64 { return work }
		dense := denseOp(a, n)
		A := func(out, in []float64) { work += int64(2 * n * n); dense(out, in) }
		dot := func(u, v []float64) float64 { work += int64(2 * n); return plainDot(u, v) }

		// Candidates: unpreconditioned, Jacobi on a perturbed diagonal, and
		// Chebyshev over that Jacobi sweep, each charging a random cost per
		// apply on top of what it calls; now and then a repeat of an earlier
		// candidate, so some trials tie.
		cands := make([]PrecondCandidate, 1+rng.Intn(5))
		for ci := range cands {
			if ci > 0 && rng.Intn(5) == 0 {
				cands[ci] = cands[rng.Intn(ci)]
				continue
			}
			cost := int64(rng.Intn(4 * n * n))
			inv := make([]float64, n)
			for i := range inv {
				inv[i] = 1 / (a[i*n+i] * (0.5 + rng.Float64()))
			}
			jacobi := func(out, in []float64) {
				work += cost
				for i := range in {
					out[i] = in[i] * inv[i]
				}
			}
			switch rng.Intn(3) {
			case 0:
				cands[ci] = PrecondCandidate{Name: "none"}
			case 1:
				cands[ci] = PrecondCandidate{Name: "jacobi", Precond: jacobi}
			default:
				c := &Chebyshev{A: A, Base: jacobi, Degree: 1 + rng.Intn(4)}
				c.EstimateBounds(dot, n, 10, nil)
				cands[ci] = PrecondCandidate{Name: "cheb", Precond: c.Apply}
			}
			cands[ci].Name += string(rune('a' + ci))
		}
		opt := Options{Tol: []float64{1e-6, 1e-9, 1e-12}[rng.Intn(3)], Relative: true,
			MaxIter: []int{3, 15, 60, 500}[rng.Intn(4)]}
		b := make([]float64, n)
		LCGFill(b, uint64(seed))
		x := make([]float64, n)

		full := make([]PrecondTrial, len(cands))
		want := -1
		for ci, c := range cands {
			clear(x)
			o := opt
			o.Precond = c.Precond
			w0 := work
			st := CG(A, dot, x, b, o)
			full[ci] = PrecondTrial{Name: c.Name, Iterations: st.Iterations, Converged: st.Converged, Flops: work - w0}
			if want < 0 || trialBetter(full[ci], full[want]) {
				want = ci
			}
		}

		name, trials := SelectPrecond(A, dot, x, b, opt, cands, meter)
		if name != cands[want].Name {
			t.Fatalf("seed %d: selected %q, exhaustive rule %q\ncut:  %+v\nfull: %+v", seed, name, cands[want].Name, trials, full)
		}
		won := trials[want]
		if won.Cut || won.Iterations != full[want].Iterations || won.Flops != full[want].Flops {
			t.Fatalf("seed %d: winner's trial %+v, its full run %+v", seed, won, full[want])
		}
		converged := false
		for ci, tr := range trials {
			if tr.Cut {
				cuts++
				if !converged {
					t.Fatalf("seed %d: trial %d cut before any trial converged: %+v", seed, ci, trials)
				}
				if tr.Converged || tr.Flops < won.Flops {
					t.Fatalf("seed %d: cut trial %+v against winner %+v", seed, tr, won)
				}
			} else {
				f := full[ci]
				if tr.Iterations != f.Iterations || tr.Converged != f.Converged || tr.Flops != f.Flops {
					t.Fatalf("seed %d: uncut trial %+v, its full run %+v", seed, tr, f)
				}
				if ci != want && tr.Converged && tr.Flops == won.Flops {
					ties++
				}
			}
			converged = converged || tr.Converged
		}
	}
	if cuts == 0 || ties == 0 {
		t.Fatalf("fixture: %d cut trials and %d ties over the seeds, want some of each", cuts, ties)
	}
	t.Logf("%d cut trials, %d ties", cuts, ties)
}

// TestReportGolden pins the selection's text form byte for byte: the
// "precond:" line, then per trial the name, iterations, converged= as the
// fifth field, flops=N, work per iteration and seconds, and a trailing
// "cut" on a trial stopped once it could no longer win. ci.sh's trial_pick
// parses these lines.
func TestReportGolden(t *testing.T) {
	sel := PrecondSelection{Name: "schwarz", Source: "trial", Trials: []PrecondTrial{
		{Name: "schwarz", Iterations: 59, Converged: true, Flops: 222666956, Seconds: 0.0344},
		{Name: "none", Iterations: 500, Flops: 1234567890, Seconds: 1.5},
		{Name: "chebjacobi", Iterations: 19, Cut: true, Flops: 231600000, Seconds: 0.0561},
	}}
	var buf bytes.Buffer
	sel.Report(&buf)
	want := "precond: schwarz (trial)\n" +
		"  trial schwarz        59 iters  converged=true   flops=222666956   3.774e+06/iter  0.034s\n" +
		"  trial none          500 iters  converged=false  flops=1234567890  2.469e+06/iter  1.500s\n" +
		"  trial chebjacobi     19 iters  converged=false  flops=231600000   1.219e+07/iter  0.056s  cut\n"
	if got := buf.String(); got != want {
		t.Fatalf("Report printed\n%s\nwant\n%s", got, want)
	}
	for _, line := range strings.Split(strings.TrimSuffix(want, "\n"), "\n")[1:] {
		if f := strings.Fields(line); !strings.HasPrefix(f[4], "converged=") || !strings.HasPrefix(f[5], "flops=") {
			t.Fatalf("fields of %q: converged= is not the fifth or flops= not the sixth", line)
		}
	}

	buf.Reset()
	PrecondSelection{Name: "chebjacobi", Source: "forced"}.Report(&buf)
	if got := buf.String(); got != "precond: chebjacobi (forced)\n" {
		t.Fatalf("forced selection printed %q", got)
	}
	buf.Reset()
	PrecondSelection{}.Report(&buf)
	if buf.Len() != 0 {
		t.Fatalf("empty selection printed %q", buf.String())
	}
}
