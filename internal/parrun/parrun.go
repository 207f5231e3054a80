// Package parrun executes the paper's production solver stack — the
// spectral element Navier–Stokes step with its additive Schwarz (FDM local
// solves + XXT coarse solve) preconditioned pressure solve — as a genuine
// SPMD program on the simulated message-passing machine: the element mesh is
// partitioned by recursive spectral bisection, each goroutine rank assembles
// residuals with the distributed gather–scatter, inner products are
// allreduces, and the coarse vertex solve routes through the distributed XXT
// solver. Its purpose is the per-rank communication timeline of Figs. 6/8:
// with a Tracer attached, every collective, gs exchange, Schwarz local solve,
// and XXT coarse solve appears as a span on the owning rank's virtual-clock
// track.
package parrun

import (
	"fmt"

	"repro/internal/comm"
)

// resolveRanks reconciles the requested rank count with the machine model
// and the element count: a caller-supplied Machine.P must agree with P
// (rather than being silently overwritten), and the effective count is
// clamped to K so every rank owns at least one element. It returns the
// requested count and the machine reshaped to the effective count.
func resolveRanks(p int, mach comm.Machine, k int) (requested int, out comm.Machine, err error) {
	requested = p
	if requested < 1 {
		if mach.P > 0 {
			requested = mach.P
		} else {
			requested = 1
		}
	}
	if mach.P != 0 && mach.P != requested {
		return 0, mach, fmt.Errorf("parrun: Machine.P = %d disagrees with cfg.P = %d (set one, or make them equal)",
			mach.P, p)
	}
	eff := requested
	if eff > k {
		eff = k
	}
	if mach.P == 0 {
		mach = comm.ASCIRed(eff)
	}
	mach.P = eff
	return requested, mach, nil
}
