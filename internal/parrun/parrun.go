// Package parrun executes the paper's production solver stack — the
// spectral element Navier–Stokes step with its additive Schwarz (FDM local
// solves + XXT coarse solve) preconditioned pressure solve — as a genuine
// SPMD program on the simulated message-passing machine: the element mesh is
// partitioned by recursive spectral bisection, each rank assembles
// residuals with the distributed gather–scatter, inner products are
// allreduces, and the coarse vertex solve routes through the distributed XXT
// solver. Its purpose is the per-rank communication timeline of Figs. 6/8:
// with a Tracer attached, every collective, gs exchange, Schwarz local solve,
// and XXT coarse solve appears as a span on the owning rank's virtual-clock
// track.
package parrun
