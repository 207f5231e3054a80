package solver

// precondtune.go: runtime selection of the pressure preconditioner. A
// PrecondTable maps (mesh size, order, dimension, tolerance) to a variant
// name; SelectPrecond fills it from short trial solves. The table is held
// behind an atomic pointer and updated copy-on-write, so concurrent
// semflowd sessions can record selections without locking the solve path.

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// PrecondKey identifies a pressure-solve configuration for selection
// purposes: the spectral discretization (K elements, order N, dimension) and
// the target tolerance. Two runs with the same key see the same operator
// conditioning, so the same variant wins. The rank count is not part of it:
// a distributed run selects on its serial template, whatever P.
type PrecondKey struct {
	K   int     // elements
	N   int     // polynomial order
	Dim int     // 2 or 3
	Tol float64 // pressure tolerance
}

// PrecondTable maps configuration keys to the winning variant name.
type PrecondTable struct {
	m map[PrecondKey]string
}

// Lookup returns the recorded variant for k, if any.
func (t *PrecondTable) Lookup(k PrecondKey) (string, bool) {
	if t == nil || t.m == nil {
		return "", false
	}
	name, ok := t.m[k]
	return name, ok
}

var activePrecond atomic.Pointer[PrecondTable]

// InstallPrecondTable makes t the process-wide selection table consulted by
// -precond auto before falling back to trial solves.
func InstallPrecondTable(t *PrecondTable) { activePrecond.Store(t) }

// InstalledPrecondTable returns the active table, or nil.
func InstalledPrecondTable() *PrecondTable { return activePrecond.Load() }

// ResetPrecondTable clears the process-wide table (tests).
func ResetPrecondTable() { activePrecond.Store(nil) }

// RecordPrecond adds k → name to the installed table copy-on-write (a CAS
// loop, so concurrent sessions recording different keys never lose one
// another's entries) and returns the updated table.
func RecordPrecond(k PrecondKey, name string) *PrecondTable {
	for {
		old := activePrecond.Load()
		nt := &PrecondTable{m: make(map[PrecondKey]string)}
		if old != nil {
			for ok, ov := range old.m {
				nt.m[ok] = ov
			}
		}
		nt.m[k] = name
		if activePrecond.CompareAndSwap(old, nt) {
			return nt
		}
	}
}

// PrecondCandidate is one variant entered into a trial-solve tournament.
type PrecondCandidate struct {
	Name    string
	Precond Operator // nil = unpreconditioned CG
}

// PrecondTrial reports one candidate's trial solve: Flops is the work the
// trial charged to the caller's meter, the quantity the tournament ranks on;
// Seconds is measured and reported beside it, never ranked. Cut marks a
// trial stopped unconverged once its work reached the best converged
// trial's: Iterations and Flops are then what it did up to the stop.
type PrecondTrial struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Cut        bool    `json:"cut,omitempty"`
	Flops      int64   `json:"flops"`
	Seconds    float64 `json:"seconds"`
}

// PrecondSelection reports how the active variant was chosen: Source is
// "forced" (explicit -precond), "table" (installed table hit), "trial"
// (won the trial tournament here), or "default" (no tuning requested).
type PrecondSelection struct {
	Name   string         `json:"name"`
	Source string         `json:"source"`
	Trials []PrecondTrial `json:"trials,omitempty"`
}

// Report prints the selection, "precond: name (source)", and after a trial
// tournament one line per candidate: the charged work the tournament ranks
// on, the work per iteration and the wall time beside it; a trial stopped
// once it could no longer win ends with "cut". An empty selection prints
// nothing.
func (sel PrecondSelection) Report(w io.Writer) {
	if sel.Name == "" {
		return
	}
	fmt.Fprintf(w, "precond: %s (%s)\n", sel.Name, sel.Source)
	for _, tr := range sel.Trials {
		cut := ""
		if tr.Cut {
			cut = "  cut"
		}
		fmt.Fprintf(w, "  trial %-12s %4d iters  converged=%-5v  flops=%-11d %9.4g/iter  %.3fs%s\n",
			tr.Name, tr.Iterations, tr.Converged, tr.Flops,
			float64(tr.Flops)/float64(max(tr.Iterations, 1)), tr.Seconds, cut)
	}
}

// SelectPrecond runs one trial CG per candidate against rhs from a zero
// initial guess, reading the monotone work meter work before and after each,
// and picks the winner: converged beats non-converged, then the least charged
// work, then the earliest candidate. Callers list the reference variant
// first, so ties keep it. No wall-clock input enters the rule, so the winner
// is a function of the operators alone. x and rhs are scratch the caller
// owns; x is zeroed per trial.
//
// Once a trial has converged, a later trial that has not converged when its
// work reaches the best converged trial's is cut there (Cut, not Converged):
// to win it would have had to converge on strictly less work, so the cut
// changes neither the winner nor the winner's trial, only what a loser costs.
func SelectPrecond(apply Operator, dot Dot, x, rhs []float64, opt Options, cands []PrecondCandidate, work func() int64) (string, []PrecondTrial) {
	trials := make([]PrecondTrial, 0, len(cands))
	best := -1
	for ci, c := range cands {
		for i := range x {
			x[i] = 0
		}
		o := opt
		o.Precond = c.Precond
		t0, w0 := time.Now(), work()
		cut := false
		if best >= 0 && trials[best].Converged {
			budget := trials[best].Flops
			o.stop = func() bool {
				cut = work()-w0 >= budget
				return cut
			}
		}
		st := CG(apply, dot, x, rhs, o)
		tr := PrecondTrial{
			Name:       c.Name,
			Iterations: st.Iterations,
			Converged:  st.Converged,
			Cut:        cut,
			Flops:      work() - w0,
			Seconds:    time.Since(t0).Seconds(),
		}
		trials = append(trials, tr)
		if best < 0 || trialBetter(tr, trials[best]) {
			best = ci
		}
	}
	if best < 0 {
		return "", trials
	}
	return cands[best].Name, trials
}

// trialBetter reports whether a strictly beats b on what it decides by:
// convergence, then charged work. Ties keep b, preserving candidate order.
func trialBetter(a, b PrecondTrial) bool {
	if a.Converged != b.Converged {
		return a.Converged
	}
	return a.Flops < b.Flops
}
