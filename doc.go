// Package repro is a from-scratch Go reproduction of "Terascale Spectral
// Element Algorithms and Implementations" (Tufo & Fischer, SC 1999): a
// spectral element Navier–Stokes solver with tensor-product matrix-free
// operators, filter stabilization, OIFS time advancement, projection-
// accelerated pressure solves, an FDM additive-Schwarz + coarse-grid
// preconditioner, the XXT parallel coarse-grid solver, a gather–scatter
// communication layer on a simulated message-passing machine, and a
// performance model for the paper's ASCI-Red results.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// hardware-substitution rationale, and EXPERIMENTS.md for the per-table /
// per-figure reproduction record. `go run ./cmd/tables` regenerates the
// rows/series of each table and figure; `bash bench/run.sh` is the one
// benchmark (end-to-end and per-layer metrics, see bench/README.md).
package repro
