package ns

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// poolSolver is a W-worker solver on a 4×4 periodic box, so W ∈ {1, 2, 4}
// splits the 16 elements into W equal chunks.
func poolSolver(t *testing.T, workers int) *Solver {
	t.Helper()
	s, err := New(Config{Mesh: periodicBox(t, 4, 5), Re: 200, Dt: 0.01, Workers: workers, PTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(2 * math.Pi * x), math.Cos(2 * math.Pi * y), 0
	})
	return s
}

// poolWorkers counts the element-pool goroutines in the process.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "ns.(*elemPool).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settlePoolWorkers waits (briefly) for the pool goroutine count to drop to
// at most want and returns the last count: Close waits for each worker's
// last statement, not for the runtime to retire its goroutine, so a bounded
// retry is the race-free way to observe the exit.
func settlePoolWorkers(want int) int {
	n := poolWorkers()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = poolWorkers()
	}
	return n
}

// A W-worker solver parks exactly W-1 pool goroutines, and Close stops them
// all: nothing else would, so a service that builds many solvers relies on it.
func TestSolverCloseStopsPoolGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := settlePoolWorkers(0)
	const workers, cycles = 4, 4
	for i := 0; i < cycles; i++ {
		s := poolSolver(t, workers)
		stepStats(t, s, 1) // a used pool, not a freshly built one
		if got, want := poolWorkers(), base+workers-1; got != want {
			t.Fatalf("a live %d-worker solver: %d pool goroutines, want %d", workers, got, want)
		}
		s.Close()
		s.Close() // idempotent
	}
	if n := settlePoolWorkers(base); n > base {
		t.Fatalf("pool goroutines leaked across %d solver create/Close cycles: %d before, %d after",
			cycles, base, n)
	}
}

// Close retires the pool, not the solver: a closed solver steps serially to
// the bits the pool would have produced.
func TestSolverUsableAfterClose(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ref := poolSolver(t, 4)
	defer ref.Close()
	stepStats(t, ref, 2)
	s := poolSolver(t, 4)
	stepStats(t, s, 1)
	s.Close()
	stepStats(t, s, 1)
	for c := 0; c < s.Dim(); c++ {
		for i, v := range s.U[c] {
			if v != ref.U[c][i] {
				t.Fatalf("velocity[%d][%d] after Close: %g, want %g", c, i, v, ref.U[c][i])
			}
		}
	}
	for i, v := range s.P {
		if v != ref.P[i] {
			t.Fatalf("pressure[%d] after Close: %g, want %g", i, v, ref.P[i])
		}
	}
}

// Close on a one-worker solver (no pool) is a no-op, and it keeps stepping.
func TestSolverCloseSerial(t *testing.T) {
	s := poolSolver(t, 1)
	s.Close()
	s.Close()
	stepStats(t, s, 1)
}
