package repro_test

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Three channel steps at workers=4 under forced GOMAXPROCS(4): every
// element loop dispatches through the persistent pool, so the race
// detector sees the full arena protocol — the caller's fn publish, the
// per-worker wakeup sends, disjoint writes into per-worker scratch and
// element blocks, and the WaitGroup join back to the caller. Deliberately
// not skipped under -short: this is the one stepper test the tier-2
// -race -short sweep must always exercise.
func TestWorkerPoolStepRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := channelSolver(t, 4)
	stepN(t, s, 3)
}

// Steady-state zero-alloc regression for the workers=4 step, measured as
// a MemStats delta with GC pinned off. testing.AllocsPerRun cannot see
// this path: it forces GOMAXPROCS(1) for the measured window, which flips
// the pool into its serial fallback, so only a raw Mallocs delta counts
// what the parallel dispatch itself costs. Warm-up is the BDF ramp plus one
// full projection cycle; after it, the wakeup channels, chunk table, and
// per-worker arenas are all preallocated and the delta over 8 further steps
// must be exactly zero.
//
// The runtime, though, allocates a few objects once per thread or processor
// from wherever the program stands when it needs them (attributed with
// runtime.MemProfileRate = 1 in a fresh process): a new M the first time
// wakep finds no idle thread (allocm + malg + its profiling stack, 6-7
// objects) and a sudog the first time the pool's WaitGroup.Wait blocks on a P
// whose cache is empty.
// Either landed in a single 8-step window in about half of all fresh
// processes. They are bounded in number and the pool's own cost would recur
// in every window, so the assertion is that one of a few consecutive windows
// is exactly zero.
func TestWorkerStepSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second warm-up")
	}
	if raceEnabled {
		t.Skip("the race runtime allocates for its own bookkeeping")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := channelSolver(t, 4)
	warmUp(t, s)
	const windows = 6
	var deltas [windows]uint64
	for w := range deltas {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		stepN(t, s, 8)
		runtime.ReadMemStats(&m1)
		if deltas[w] = m1.Mallocs - m0.Mallocs; deltas[w] == 0 {
			t.Logf("window %d of %d allocated nothing (earlier windows: %v)", w+1, windows, deltas[:w])
			return
		}
	}
	t.Errorf("workers=4 steady-state steps allocated %v times in %d consecutive 8-step windows, want a window of 0", deltas, windows)
}
