package solver

// precondtune.go: runtime selection of the pressure preconditioner. A
// PrecondTable maps (mesh size, order, dimension, tolerance) to a variant
// name; SelectPrecond fills it from short trial solves. The table is held
// behind an atomic pointer and updated copy-on-write, so concurrent
// semflowd sessions can record selections without locking the solve path.

import (
	"sort"
	"sync/atomic"
	"time"
)

// PrecondKey identifies a pressure-solve configuration for selection
// purposes: the spectral discretization (K elements, order N, dimension) and
// the target tolerance. Two runs with the same key see the same operator
// conditioning, so the same variant wins. The rank count is not part of it:
// a distributed run selects on its serial template, one worker, whatever P.
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

// Len returns the number of recorded selections.
func (t *PrecondTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.m)
}

// Keys returns the recorded keys in deterministic order.
func (t *PrecondTable) Keys() []PrecondKey {
	if t == nil {
		return nil
	}
	ks := make([]PrecondKey, 0, len(t.m))
	for k := range t.m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.K != b.K {
			return a.K < b.K
		}
		if a.N != b.N {
			return a.N < b.N
		}
		if a.Dim != b.Dim {
			return a.Dim < b.Dim
		}
		return a.Tol < b.Tol
	})
	return ks
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

// PrecondTrial reports one candidate's trial solve.
type PrecondTrial struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
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

// SelectPrecond runs one trial CG per candidate against rhs from a zero
// initial guess and picks the winner: converged beats non-converged, then
// fewest iterations, then fastest wall clock, then earliest candidate
// order. Callers list the reference variant first, so the gate "the
// selection never iterates worse than the reference" holds by construction
// on ties. x and rhs are scratch the caller owns; x is zeroed per trial.
func SelectPrecond(apply Operator, dot Dot, x, rhs []float64, opt Options, cands []PrecondCandidate) (string, []PrecondTrial) {
	trials := make([]PrecondTrial, 0, len(cands))
	best := -1
	for ci, c := range cands {
		for i := range x {
			x[i] = 0
		}
		o := opt
		o.Precond = c.Precond
		t0 := time.Now()
		st := CG(apply, dot, x, rhs, o)
		tr := PrecondTrial{
			Name:       c.Name,
			Iterations: st.Iterations,
			Converged:  st.Converged,
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

// trialBetter reports whether a strictly beats b (ties keep b, preserving
// candidate order). Convergence and iteration count are deterministic;
// wall time is not, so on an iteration tie the challenger must be faster
// both by a clear relative margin and by more than scheduling jitter —
// otherwise timing noise would displace the reference and the recorded
// (and cached) selection would differ run to run.
func trialBetter(a, b PrecondTrial) bool {
	if a.Converged != b.Converged {
		return a.Converged
	}
	if a.Iterations != b.Iterations {
		return a.Iterations < b.Iterations
	}
	return a.Seconds < 0.9*b.Seconds && b.Seconds-a.Seconds > 5e-3
}
