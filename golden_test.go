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
	checkDigest(t, "channel2d, 60 steps", "23569a7a968b183fce9afecbe888cb99450f86e98e5bbd13b167b8479704c972",
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
	checkDigest(t, "hairpin3d, 25 steps", "54b24f31fdfcd1d83447865d7e39964ad50887a8b36ae601aa134603d1455ea2",
		s.Velocity(0), s.Velocity(1), s.Velocity(2), s.Pressure())
	s.Close()

	s, err = flowcases.Convection(goldenConvection)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 10)
	checkDigest(t, "convection, 10 steps", "14629dec9aca27f6a9e893236fdf628457d07f44c897dfc8980d17193fa08afb",
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
		{1, "20eb0d1ef627966edcbf0165345060fd0e683d8e58df055dd505e74ebd8d26e6", "a77b8f9e058c9a585bf4459ab3c2ff07f4d52dd9a2138d16b62c804209781963", "3c3f7108bb13fdba52e7b2e64a393a8bc5143f8b42f6617125d0dbc03e061516"},
		{3, "dc9abfa34bfcf9218dfaed3644525743eb235d20b1a1fbf9a53da77998976a1e", "2655f1ef4167da9dcf7fa4e8f4a88c3a8e2bfff31c36dde34bda8daa57a0026e", "6802d8d31df37a65ce1a4b69d58b3afd06c47d2c2bd6d515447be380f3f6845e"},
		{8, "e55c90bb8694480bbd80ce21bcd44586d71d373b173a81782878efd7da90d05b", "37a7778a211a7bbdcabdae5ecfbbb6aab89f3726202292a9f003032113601859", "e1192b6ae71e5cffda247c3857a81bc62b09b6479f6df586c1604a9ce8600eaa"},
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
	const want = "faa73c45c9489effb2e5f1e9f391aacce05eef520a673d433af8cc4721fd43b3"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("P=8 trace (%d bytes): digest %s, want %s", buf.Len(), got, want)
	}
}
