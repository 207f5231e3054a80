// Command bench is the repository's one benchmark: four workloads over the
// whole stack, end-to-end metrics from an untraced pass and per-layer
// metrics from a traced pass. See README.md in this directory.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one pass of one workload (what the driver runs)
//	bench [-seed N] [-seconds S] [-runs R] [-out F]   every workload, both passes, one child process per pass
//	bench -compare a.json b.json                      compare two result files of the second form
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
)

// result is the last line a pass prints on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var runners = map[string]func(options) (*report, error){
	"channel2d":     runChannel2D,
	"hairpin3d":     runHairpin3D,
	"dist_p64":      runDistP64,
	"semflowd_jobs": runSemflowdJobs,
}

// checkoutRoot is where bench/out and .bench_build live: what run.sh
// exported, else the nearest ancestor of the working directory holding
// BENCHMARK.json, else the working directory.
func checkoutRoot() (string, error) {
	if r := os.Getenv("SEMBENCH_ROOT"); r != "" {
		return r, nil
	}
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return wd, nil
		}
	}
}

// passProcs is GOMAXPROCS of every pass. One processor: the calibration
// kernel of the reference clock then runs on the very processor the
// workload runs on (the host slows the two virtual CPUs differently, and not
// in step), and nothing measures the scheduler. Only the sem.pool_speedup
// rung raises it, for its duration.
const passProcs = 1

// runPass runs one pass in this process and prints its notes, its metrics
// by name with their units, and the result line.
func runPass(o options) error {
	run, ok := runners[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(filepath.Join(o.root, ".bench_build", "tmp"), 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(passProcs)
	if !o.trace {
		o.clk = startRefClock()
		defer o.clk.stop()
	}
	rep, err := run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	list, pass := endToEnd, "untraced"
	if o.trace {
		list, pass = perLayer, "traced"
	}
	fmt.Printf("%s, %s pass, seed %d, %g s:\n", o.workload, pass, o.seed, o.seconds)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	res := result{Correct: rep.ok, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range list {
		v, ok := rep.metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: %s pass produced no %s", o.workload, pass, m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Printf("  %-36s %16.6g %s\n", m.Name, v, m.Unit)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", o.workload)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var (
		o       options
		trace   int
		scale   string
		compare bool
		runs    int
		out     string
	)
	flag.StringVar(&o.workload, "workload", "", "run one pass of this workload (channel2d, hairpin3d, dist_p64, semflowd_jobs); empty runs all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window on the quiet reference machine; sizes the fixed work")
	flag.IntVar(&trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full, or tiny (a few steps, 4 jobs, P=4; for the tests)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	flag.IntVar(&runs, "runs", 1, "all-workloads mode: passes per workload (spread needs several)")
	flag.StringVar(&out, "out", "", "all-workloads mode: result file (default bench/out/result.json)")
	flag.Parse()

	err := func() error {
		if compare {
			if flag.NArg() != 2 {
				return errors.New("usage: bench -compare a.json b.json")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1))
		}
		if scale != "full" && scale != "tiny" {
			return fmt.Errorf("unknown -scale %q", scale)
		}
		if o.seconds <= 0 || trace < 0 || trace > 1 || runs < 1 {
			return errors.New("need -seconds > 0, -trace 0 or 1, -runs >= 1")
		}
		o.trace, o.tiny = trace == 1, scale == "tiny"
		root, err := checkoutRoot()
		if err != nil {
			return err
		}
		o.root = root
		if o.workload != "" {
			return runPass(o)
		}
		return runAll(o, scale, runs, out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
