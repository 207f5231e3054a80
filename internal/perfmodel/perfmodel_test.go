package perfmodel

import (
	"math"
	"testing"
)

func paperRun(nsteps int) *Run {
	press, helm, sub := PaperIterationHistory(nsteps, 45, 8, 10)
	return HairpinRun(press, helm, sub)
}

func TestTable4Shape(t *testing.T) {
	r := paperRun(26)
	std := ASCIRedStd()
	perf := ASCIRedPerf()
	type cell struct {
		time, gflops float64
	}
	table := map[string]cell{}
	for _, p := range []int{512, 1024, 2048} {
		for _, dual := range []bool{false, true} {
			for _, m := range []Machine{std, perf} {
				e := r.Predict(m, p, dual)
				key := m.Name
				if dual {
					key += "-dual"
				} else {
					key += "-single"
				}
				table[keyP(key, p)] = cell{e.TotalTime, e.GFLOPS}
			}
		}
	}
	// Strong scaling: doubling P roughly halves time (>= 1.7x speedup).
	for _, mode := range []string{"std-single", "std-dual", "perf-single", "perf-dual"} {
		t1 := table[keyP(mode, 512)].time
		t2 := table[keyP(mode, 1024)].time
		t4 := table[keyP(mode, 2048)].time
		if s := t1 / t2; s < 1.7 || s > 2.05 {
			t.Errorf("%s 512->1024 speedup %g out of band", mode, s)
		}
		if s := t2 / t4; s < 1.6 || s > 2.05 {
			t.Errorf("%s 1024->2048 speedup %g out of band", mode, s)
		}
	}
	// Dual mode faster than single but less than 2x (82% efficiency).
	for _, base := range []string{"std", "perf"} {
		for _, p := range []int{512, 1024, 2048} {
			s := table[keyP(base+"-single", p)].time / table[keyP(base+"-dual", p)].time
			if s < 1.3 || s > 1.99 {
				t.Errorf("%s P=%d dual speedup %g out of [1.3, 2)", base, p, s)
			}
		}
	}
	// perf kernels beat std kernels.
	for _, p := range []int{512, 2048} {
		if table[keyP("perf-dual", p)].time >= table[keyP("std-dual", p)].time {
			t.Errorf("P=%d: perf not faster than std", p)
		}
	}
	// GFLOPS ordering matches the Table 4 corners: best cell is
	// perf-dual at P=2048, worst is std-single at P=512.
	best := table[keyP("perf-dual", 2048)].gflops
	worst := table[keyP("std-single", 512)].gflops
	if best <= worst {
		t.Errorf("GFLOPS ordering wrong: best %g worst %g", best, worst)
	}
	// The paper's ratio 319/47 ≈ 6.8; ours should be within a factor ~1.5.
	ratio := best / worst
	if ratio < 4 || ratio > 10 {
		t.Errorf("corner GFLOPS ratio %g outside the plausible band", ratio)
	}
	t.Logf("P=2048 perf-dual: %.0f s, %.0f GFLOPS; P=512 std-single: %.0f s, %.0f GFLOPS",
		table[keyP("perf-dual", 2048)].time, best,
		table[keyP("std-single", 512)].time, worst)
}

func keyP(mode string, p int) string {
	return mode + "-" + string(rune('0'+p/512))
}

func TestFig8TimePerStepDecays(t *testing.T) {
	r := paperRun(26)
	e := r.Predict(ASCIRedPerf(), 2048, true)
	if len(e.TimePerStep) != 26 {
		t.Fatal("wrong step count")
	}
	// Time per step decays as the pressure projection warms up (Fig. 8).
	if e.TimePerStep[0] <= e.TimePerStep[25] {
		t.Errorf("time per step did not decay: %g -> %g", e.TimePerStep[0], e.TimePerStep[25])
	}
	// Late steps settle (last five nearly equal).
	last := e.TimePerStep[21:]
	for _, v := range last {
		if math.Abs(v-last[4]) > 0.1*last[4] {
			t.Errorf("late steps not settled: %v", last)
		}
	}
}

func TestIterationHistoryShape(t *testing.T) {
	press, helm, sub := PaperIterationHistory(26, 45, 8, 10)
	if press[0] <= press[25] {
		t.Error("pressure iterations should decay")
	}
	if press[25] < 45 || press[25] > 50 {
		t.Errorf("settled pressure iterations %d outside 45..50", press[25])
	}
	for i := range helm {
		if helm[i] != 8 || sub[i] != 10 {
			t.Error("helm/substep history wrong")
		}
	}
}

func TestCommDominatesAtHugeP(t *testing.T) {
	// With absurdly many nodes for a small problem the model must show the
	// communication floor (speedup saturates).
	press, helm, sub := PaperIterationHistory(5, 40, 8, 5)
	r := &Run{K: 512, N: 7, Dim: 3, CoarseN: 1000,
		PressIters: press, HelmIters: helm, Substeps: sub}
	m := ASCIRedStd()
	t512 := r.Predict(m, 512, false).TotalTime
	t4096 := r.Predict(m, 4096, false).TotalTime
	if sp := t512 / t4096; sp > 3 {
		t.Errorf("speedup %g should saturate in the latency regime", sp)
	}
}

func TestStepFlopsPositiveAndScale(t *testing.T) {
	r := paperRun(3)
	mm, vec := r.StepFlops(0)
	if mm <= 0 || vec <= 0 {
		t.Fatal("non-positive flop counts")
	}
	if mm < 9*vec {
		t.Errorf("MM share should dominate: mm=%g vec=%g", mm, vec)
	}
	// Flops grow ~N^4 per element at fixed K.
	r2 := &Run{K: 8168, N: 7, Dim: 3, CoarseN: 10142,
		PressIters: r.PressIters, HelmIters: r.HelmIters, Substeps: r.Substeps}
	mm2, _ := r2.StepFlops(0)
	if mm2 >= mm {
		t.Error("lower order should cost fewer flops")
	}
}
