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
//
// Every digest moved once more when the projection basis came to be updated
// by classical Gram–Schmidt applied twice, each pass's coefficients in one
// reduction (three reductions per update where modified Gram–Schmidt took
// 2l + 2), and the distributed gather–scatter came to fold each shared value
// in ascending rank order, so that every copy of a node has the same bits on
// every rank. The serial fields and statistics move through the first
// change only, as do P = 1's fields and statistics; its clock and traffic did
// not move (the same inner products are charged). P = 3 and P = 8 move
// through both: with every copy in step the viscous x-component solve
// converges in the serial stepper's iterations instead of stalling above its
// tolerance and leaving one or two passes later (Σ x-iterations over 60
// steps: P = 3 307 → 240, P = 8 305 → 240, P = 1 240), hence the messages
// P = 3 17 728 → 13 530, P = 8 103 012 → 79 518, the trace run 13 388 →
// 13 046. The tie, against the parent's fields: max |Δ| 4.7e-13 on channel2d
// (60 steps), 1.8e-14 on hairpin3d (25), 4.6e-13 on convection (10;
// |p| ~ 1.6e3), and 4.9e-13 / 5.6e-13 / 9.7e-13 at P = 1 / 3 / 8 (60).
//
// Routing the step's pointwise sweeps through la's elementwise AVX2 kernels
// (and the serial gather–scatter's pairs through a loop of their own) moved
// no digest, under AVX2 or -tags purego: every entry is rounded as the Go loop
// it replaced rounded it.
//
// Putting an AVX-512 matmul kernel under la.Mul (mulAVX512: 4-row tiles of one
// or two zmm per row, opmasked tails) moved no digest either, run on AVX-512,
// on AVX2 or under -tags purego: every entry is still MatMulNaive's chain.
//
// The clock-and-traffic digests at P = 1, 3 and 8 and the P = 8 trace moved
// again, and nothing else, when the simulated clock came to price each flop
// charge by class: matrix–matrix work at the standard kernels' 95 MFLOPS and
// vector work at 35 MFLOPS (Table 3), where one 100 MFLOPS rate priced both.
// Only the clock moved: messages and bytes are unchanged (P = 3 13 530 and
// 3 963 696, P = 8 79 518 and 6 073 272, the trace run 13 046 and 959 064),
// and the final clock went P = 1 2.240225 → 3.053337, P = 3 0.913262 →
// 1.184444, P = 8 0.512973 → 0.621500 and the trace run 0.060406 → 0.067804
// virtual s.
//
// Every fields and statistics digest moved once more, and no clock, traffic
// or trace digest, when the step's inner products were reassociated into 32
// lanes (ROADMAP 11(iv)): la.Dot, la.DotW and la.Sum put entry i in lane
// i mod 32 and combine the lanes by one fixed tree, the same on AVX-512, on
// AVX2 and in the Go loop, and dotShare, pressureDotShare and
// deflatePressure's mean sum through them. (partition's Lanczos keeps a
// sequential loop of its own, so no partition moved.) No pressure, viscous
// or substep count moved in any of these runs, so the same flops are charged
// and the same messages sent (P = 3 13 530, P = 8 79 518, the trace run
// 13 046). The tie, the max-norm distance to the parent's fields at each
// golden's final step: |Δu| 2.7e-13 / |Δp| 6.8e-13 on channel2d (60 steps;
// |u| ≤ 1.0, |p| ≤ 9.0e-6), 5.3e-15 / 2.1e-14 on hairpin3d (25; |u| ≤ 1.2),
// 6.9e-15 / 4.5e-13 on convection (10; |p| ~ 1.6e3), and 3.5e-13 / 9.9e-13,
// 2.7e-13 / 7.1e-13 and 8.2e-14 / 2.4e-13 at P = 1 / 3 / 8 (60): relative to
// the state's max norm each is at most 1.0e-12 (P = 1: 9.97e-13). After 420
// channel steps the distance is 2.9e-12 / 3.5e-11; there 170 of the 420 warm
// pressure solves, from step 63 on, leave one or two iterations earlier or
// later (482 → 481 in all) and no viscous count moves.
//
// The clock-and-traffic digests at P = 3 and 8 and the P = 8 trace moved
// once more, and nothing else, when gs.ParInit came to find each node's
// holders in two routes of a crystal router (comm.Rank.Route: ⌊log₂P⌋ + 1
// messages per rank or fewer, each record with a three-word header, moving
// up to log₂P times) instead of two all-to-alls of 2(P − 1) messages per
// rank. The neighbour lists and every exchange of the step are unchanged;
// only the set-up before step 1 sends other messages: P = 3 13 530 → 13 526
// messages and 3 963 696 → 3 972 504 bytes (final clock 1.184444 → 1.184528
// virtual s), P = 8 79 518 → 79 454 and 6 073 272 → 6 089 616 (0.621500 →
// 0.621348), the trace run 13 046 → 12 982 and 959 064 → 975 408 (0.067804
// → 0.067652). P = 1 sends nothing and did not move. The coarse solve's
// per-rank column lists, built once in coarse.Dist.NewSolveWork, sum every
// column in its order and charge the same flops, and moved no digest.
//
// The clock-and-traffic digests at P = 3 and 8 moved once more, and nothing
// else, when step 1's phases came to be timed from the end of the slowest
// rank's set-up (parrun, NSResult.PhaseVirtual): a rank that finished its
// set-up sooner waited for that rank in step 1's first exchange, and the wait
// was charged to convection. Only the convect phase total moved: P = 3
// 0.3187789 → 0.3187784, P = 8 0.1377472 → 0.1377039 virtual s. Messages,
// bytes, step times and final clocks are unchanged. P = 1 has one set-up,
// which step 1 starts from either way, and the trace run records spans, not
// phases; neither moved. Making the route's replay hand each record to its
// destination once, sizing its messages from the records' ends, moved no
// digest: every message kept its size and order.

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
	checkDigest(t, "channel2d, 60 steps", "56786b17d409455ad950591d05fdff13296e7a937a8667b53a017f14c0fca0d2",
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
	checkDigest(t, "hairpin3d, 25 steps", "2e64b30cfa878eb9e2faa859b2b3345d1d5d1ccbd35ad9bc02ad1dac9b310a62",
		s.Velocity(0), s.Velocity(1), s.Velocity(2), s.Pressure())
	s.Close()

	s, err = flowcases.Convection(goldenConvection)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 10)
	checkDigest(t, "convection, 10 steps", "9ed9fb2deca9599220aab36bdefefadd40638dc2fdaab7233eb10aa51b8953e2",
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
		{1, "78bdcb5b144a00e7850b0d4e238a548e121d3d32f53039fa8c8e4171d0bf41e5", "45be2d2ea0bd7f37255828e9719f2df7f402a840bf8c0a20dc3b5d1929d386d9", "766d1418bb4cba2779fde5644de3b4e88f45af97c5179f5e8910657e17e37e33"},
		{3, "c958cb77a4d1573ee4f5f76ef067c56378e19e234a8121c14bb9df74e9a24e0d", "84f0a9826a94d762e4dfefea7821a739987b19f771cd3ae07262ff588f7aad9e", "ab58633bdf9aec6b5f2a9f8f886ddf2bc0bf9d2ae92b34f79705e6231e4b3722"},
		{8, "fddc26fe861b9a3f0fceeb2f56f72e60f98ef59f98b12549c77ec63e3d69b02e", "2a183fceb5bfe330738ba02680fe8d8a36adff6f1a0387a320511d51f960fe01", "f63bd6aad76a1ab18451a386bd78142e16e357ed0b4e14f93d5a468eb6846d99"},
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
	const want = "1f357498dddbedced9c1f5f70efc722063770c12017e9348a30a110dd352fd71"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("P=8 trace (%d bytes): digest %s, want %s", buf.Len(), got, want)
	}
}
