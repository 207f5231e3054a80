package repro_test

// golden_test.go pins "nothing changed" against constants: SHA-256 digests
// of the fields (and, distributed, of the per-step statistics, the modelled
// clock and the trace) that the commit before the one-step/two-backends
// refactor produced. Path-vs-path goldens cannot see a change that moves
// both paths; these can. A later change that means to alter the numerics
// updates one constant here, in the open. amd64 only: other architectures
// may contract a*b+c into a fused multiply-add.

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
	checkDigest(t, "channel2d, 60 steps", "3ee3228a2692f64abb91cc190626dcc9fbab2be10fdad82b3225ce55fc5d1528",
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
	checkDigest(t, "convection, 10 steps", "154d5ee166a4b7626cc675e6bab798540a317ad168c88238bda147e8e32d4955",
		s.Velocity(0), s.Velocity(1), s.Pressure(), s.Scalar())
	s.Close()
}

var goldenConvection = flowcases.ConvectionConfig{Nel: 4, N: 5, Ra: 5e3, Dt: 0.005, ProjectionL: 10}

// statsFields flattens what a distributed run reports besides its fields:
// per-step iteration counts, residuals, CFL and modelled time, and the run's
// clock, traffic and phase breakdown.
func statsFields(res *parrun.NSResult) []float64 {
	var f []float64
	for i, st := range res.StepStats {
		f = append(f, float64(st.PressureIters), st.PressureResFinal, float64(st.HelmholtzIters[0]),
			float64(st.HelmholtzIters[1]), float64(st.Substeps), st.CFL, res.StepVirtual[i])
	}
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
		p             int
		fields, stats string
	}{
		{1, "ddd60778a9caa37bca33597a0c9ce33126f795f4da09e1d7e661012e849cd59a", "6ec34cf87c9e0633d7b95ba38dac46b49f9af783e4e59e054d4b4c8c605b9183"},
		{3, "f94b570c1bf193c8f1e7416e13fa46468952ec9c8d231889e39b894210f39cb5", "3b25d33254d35ed628f92df2c16dde46aa3c346fd0d646f147eb6a5a07d43570"},
		{8, "3fe5dc333135523f2be470e1c09f9de10741faecad489f7f38a342a0d7384b35", "8e890a912f9d0887304f52ee3dc68ce682734dbd657e3777b1bc6becf8d3206e"},
	} {
		res, err := parrun.NavierStokes(cfg, parrun.NSConfig{P: g.p, Steps: 60, Init: init})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, fmt.Sprintf("channel2d P=%d fields", g.p), g.fields, res.U[0], res.U[1], res.Pressure)
		checkDigest(t, fmt.Sprintf("channel2d P=%d statistics and clock", g.p), g.stats, statsFields(res))
	}

	// The P = 8 trace, wall clock off. The cold solves run to the iteration
	// cap, which bounds the trace at ~10 MB.
	tr := instrument.NewTracer()
	tr.DisableWallClock()
	cfg.PMaxIter = 25
	if _, err := parrun.NavierStokes(cfg, parrun.NSConfig{P: 8, Steps: 2, Init: init, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "9f847b2d072266767a5d0de7d46f13d9d94a91b7283c3903865dd20a8f630817"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("P=8 trace (%d bytes): digest %s, want %s", buf.Len(), got, want)
	}
}
