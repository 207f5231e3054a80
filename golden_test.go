package repro_test

// golden_test.go pins "nothing changed" against constants: SHA-256 digests
// of the fields (and, distributed, of the per-step statistics, the modelled
// clock and the trace) that the commit before the one-step/two-backends
// refactor produced. Path-vs-path goldens cannot see a change that moves
// both paths; these can. A later change that means to alter the numerics
// updates one constant here, in the open. amd64 only: other architectures
// may contract a*b+c into a fused multiply-add.
//
// PR 19 re-pinned every digest of a run under the "schwarz" variant (the
// channel2d and convection fields, the distributed fields, statistics, clock
// and trace): the Schwarz preconditioner moved from the velocity grid to the
// pressure grid, so CG takes a different path to the same tolerance. The
// hairpin3d digest, which runs Chebyshev–Jacobi, did not move — the E apply
// and everything outside the preconditioner are bitwise what they were — and
// TestChannelSchwarzAgreesWithChebJacobi ties the re-pinned channel fields to
// that untouched path to 1e-9. The channel2d digests (serial and distributed)
// also carry the projector's rule that a solve the projection alone satisfies
// leaves the basis alone; the hairpin3d, convection and trace runs have no
// such solve and their digests were not touched by it.
//
// PR 21 put an AVX2 matmul kernel under every la.Mul and la.MulABt and moved
// no digest: the kernel sums each output entry in MatMulNaive's order, and
// `go test -tags purego .` checks the same constants on the Go kernels. Its
// second commit re-pinned the channel2d digests only (serial, and distributed
// fields and statistics at P = 1, 3, 8): orrsomm.Solve now stops its power
// iteration at the rounding floor (8 iterations, not 200), which moves the TS
// eigenfunction the channel starts from in its last bits.
// TestChannelUnmovedByEarlyStop (internal/orrsomm) steps the channel from
// both eigenfunctions and bounds the difference after these 60 steps by
// 1e-12. The hairpin3d, convection and P = 8 trace digests did not move.
//
// PR 22 first split the distributed "statistics and clock" digest in two, at
// the parent's values: statistics (iteration counts, residuals, CFL, substeps)
// and clock and traffic (modelled time, messages, bytes, phases). It then
// batched the step's independent inner products — a lockstep CG over the
// velocity components, the projection coefficients in one reduction, ‖b‖²
// reused as ‖r‖² from a zero start — and re-pinned the clock and traffic
// digests (P = 1: one inner product's flops fewer per viscous solve; P = 3:
// 27 966 → 21 822 messages; P = 8: 162 458 → 125 594) and the P = 8 trace
// (15 944 → 15 224 messages over its two cold steps). No fields digest, serial or distributed, and no
// statistics digest moved: every inner product is summed in the order it was.
//
// PR 24's first commit — tensor's r-direction applies on the pre-transposed
// operator (la.Mul where la.MulABt packed a tile per call), one sweep in
// ns.Solver.helmholtz — moved no digest, under AVX2 or -tags purego. Its second
// re-pinned every digest once: the convection operator advects with the
// contravariant field in reference coordinates (Σ_a ĉ_a ∂v/∂r_a, a
// re-association of Σ_c c_c Σ_a ∂r_a/∂x_c ∂v/∂r_a), which moves every field
// in its last bits and, through them, residuals and CFL (statistics); the flop
// charges follow the new arithmetic (clock, trace). No pressure iteration or
// substep count moved in any of these runs. What did: the x-component viscous
// solve, whose relative tolerance sits below its rounding floor (ROADMAP item
// 7), leaves at iteration 4, 5 or 6 on other steps than before — on 36 of the
// 60 steps at P = 3 (311 → 307 iterations in all), on 6 at P = 8 (303 → 305),
// on none at P = 1 — hence the message counts P = 3 21 822 → 21 736, P = 8
// 125 594 → 125 724; the trace run's 15 224 is unchanged. The tie:
// TestConvectMatchesPhysicalGradientForm (internal/ns) holds the new operator
// to the physical-gradient form to 1e-12 relative, and against the parent's
// fields these runs differ by max |Δu| 1.5e-13 / |Δp| 4.7e-13 (channel2d, 60
// steps), 7.3e-15 / 2.6e-14 (hairpin3d, 25), 6.8e-15 / 4.6e-13 (convection,
// 10; |p| ~ 1.6e3) and 3.2e-13 / 9.6e-13 (P = 8, 60); 3.6e-11 after 420
// channel steps, 8.3e-11 after 100 hairpin steps.
//
// PR 33 re-pinned the clock-and-traffic digests at P = 1, 3 and 8 and the
// P = 8 trace, and nothing else: every field the step assembles at one point
// now travels in one gather–scatter exchange (gs.ParHandle.ApplyFields), the
// same words in fewer messages — P = 3 21 736 → 17 728, P = 8 125 724 →
// 103 012, the trace run 15 224 → 13 388, bytes unchanged. Each assembled
// value keeps its fold order, so no fields or statistics digest moved. P = 1
// sends nothing, but its clock is a running floating-point sum of the step's
// flop charges, and a batch now charges all of its members' operator work
// before the one exchange and their masks and inner products after it, so
// the same charges add in another order: 53 of its 65 clock values moved, by
// at most 1.6e-14 relative.
//
// The clock-and-traffic digests at P = 1, 3 and 8 and the P = 8 trace moved
// once more, and nothing else, when the step's state became one list of
// stepped fields and each Helmholtz operator (with its Jacobi diagonal) came
// to be built with the solver, one per BDF order: the order-1 and order-2
// diagonal builds, one assembly each, left steps 1 and 2 for the set-up. The
// same exchanges happen, so messages and bytes did not move (P = 3 17 728 and
// 4 176 640, P = 8 103 012 and 6 303 368, the trace run 13 388 and 969 384).
// At P = 1, steps 1 and 2 and the viscous phase total are cheaper by the two
// builds' charges (step 1 0.098088 → 0.096783 virtual s), and the final
// clock is unchanged, as it is at P = 8; at P = 3 the set-up's waits differ,
// and the final clock moves by 2.7e-6 relative. The
// channel runs no scalar; the convection digest, over the scalar's merged
// subintegration, history ring and filter, did not move.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/parrun"
)

// digest hashes the IEEE-754 bit patterns of the given fields in order.
func digest(fields ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, f := range fields {
		for _, v := range f {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func skipUnlessGoldenArch(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("steps the golden cases for tens of steps")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were generated on amd64; other architectures may contract a*b+c into FMA")
	}
}

func checkDigest(t *testing.T, label, want string, fields ...[]float64) {
	t.Helper()
	if got := digest(fields...); got != want {
		t.Errorf("%s: digest %s, want %s", label, got, want)
	}
}

// goldenChannel is the channel2d configuration of the benchmark (bench/
// channel.go) at its unseeded amplitude and phase.
var goldenChannel = flowcases.ChannelConfig{
	Re: 7500, Alpha: 1, N: 9, KX: 5, KY: 3, Dt: 0.003125, Order: 2, Workers: 1, Precond: ns.PrecondSchwarz,
}

func TestGoldenSerialDigests(t *testing.T) {
	skipUnlessGoldenArch(t)
	s, _, err := flowcases.Channel(goldenChannel)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 60)
	checkDigest(t, "channel2d, 60 steps", "2e5cf44cc052dba6c0538f85e2cb2d4c32b8cd7aa8dba64eff25cd9cf0ac85b1",
		s.Velocity(0), s.Velocity(1), s.Pressure())
	s.Close()

	// The hairpin3d mesh of the benchmark under a fixed variant (the
	// benchmark's "auto" is decided by timings).
	s, err = flowcases.Hairpin(flowcases.HairpinConfig{Nx: 6, Ny: 4, Nz: 3, N: 5, Re: 850, Dt: 0.05, FilterA: 0.1,
		Workers: 1, Precond: ns.PrecondChebJacobi})
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 25)
	checkDigest(t, "hairpin3d, 25 steps", "7474ee4e2be4f7505a24dbb9d7c1c4d450c50e0af5b58953533ef617d9554060",
		s.Velocity(0), s.Velocity(1), s.Velocity(2), s.Pressure())
	s.Close()

	s, err = flowcases.Convection(goldenConvection)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 10)
	checkDigest(t, "convection, 10 steps", "e4c05bdf28b57863235d4ad6bdfb6129d3aa1cdeae2a0115433af6c144478a2d",
		s.Velocity(0), s.Velocity(1), s.Pressure(), s.Scalar())
	s.Close()
}

var goldenConvection = flowcases.ConvectionConfig{Nel: 4, N: 5, Ra: 5e3, Dt: 0.005, ProjectionL: 10}

// statsFields flattens the numerical statistics of a distributed run: per-step
// iteration counts, residuals, CFL and substeps. A change to the modelled
// machine or to what travels on it must not move their digest.
func statsFields(res *parrun.NSResult) []float64 {
	var f []float64
	for _, st := range res.StepStats {
		f = append(f, float64(st.PressureIters), st.PressureResFinal, float64(st.HelmholtzIters[0]),
			float64(st.HelmholtzIters[1]), float64(st.Substeps), st.CFL)
	}
	return f
}

// clockFields flattens the modelled clock and traffic of a distributed run:
// per-step and total virtual time, messages, bytes and the phase breakdown.
func clockFields(res *parrun.NSResult) []float64 {
	f := append([]float64(nil), res.StepVirtual...)
	f = append(f, res.VirtualSeconds, float64(res.TotalMsgs), float64(res.TotalBytes))
	return append(f, res.PhaseVirtual[:]...)
}

func TestGoldenDistributedDigests(t *testing.T) {
	skipUnlessGoldenArch(t)
	cfg, init, _, err := flowcases.ChannelSpec(goldenChannel)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		p                    int
		fields, stats, clock string
	}{
		{1, "1b9f69957ee091e7280baad5a05642364b55e9f54c5a42b4833eb8dad6b1ec55", "088a4af1f3017e336084a9c7d02e11e7cfce65f10fc11eee87e0f473a94800cb", "c6836ccaa8a29dd0a64abe3cc8752b65f18e044861f3304ef051e33bad8dfd6e"},
		{3, "6b50d648dffb0a636a11ae8eed6cfccac183f23ba774ce690358a443eb933b14", "d9f24f4f377b4584786ddc5e3bef43d102b04dcfb98da8692ba1f20e020418fa", "4d49a637cadb86a5bb644095bd50d208f544eee1b1baac08b11329fab0b061ad"},
		{8, "5ddfbb5d15e42a107ee026c9c488d9b36a18358a4a4008547d3b0534709b9f3b", "85cbada6a85dcc07ddd05377df5212aad52b793931b10d952cb692f42619b4ea", "4f1cf7e8ea6ec747e525f091405e47b4774ebf71f8579f6e52cf61658ce0e1de"},
	} {
		res, err := parrun.NavierStokes(cfg, parrun.NSConfig{P: g.p, Steps: 60, Init: init})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, fmt.Sprintf("channel2d P=%d fields", g.p), g.fields, res.U[0], res.U[1], res.Pressure)
		checkDigest(t, fmt.Sprintf("channel2d P=%d statistics", g.p), g.stats, statsFields(res))
		checkDigest(t, fmt.Sprintf("channel2d P=%d clock and traffic", g.p), g.clock, clockFields(res))
		t.Logf("P=%d: %d messages, %d bytes, %.6f virtual s", g.p, res.TotalMsgs, res.TotalBytes, res.VirtualSeconds)
	}

	// The P = 8 trace, wall clock off. The cap bounds the trace should the cold
	// solves (19 and 16 iterations) ever stop converging.
	tr := instrument.NewTracer()
	tr.DisableWallClock()
	cfg.PMaxIter = 25
	res, err := parrun.NavierStokes(cfg, parrun.NSConfig{P: 8, Steps: 2, Init: init, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("P=8 trace run: %d messages, %d bytes, %.6f virtual s", res.TotalMsgs, res.TotalBytes, res.VirtualSeconds)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "940aec362293cd999cc362988f2d888f9b3e56479685729b2aeadd24d6d5da84"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("P=8 trace (%d bytes): digest %s, want %s", buf.Len(), got, want)
	}
}
