package main

// all.go runs every workload, both passes, each pass in a child process of
// its own: the la dispatch table and the solver preconditioner-selection
// table are process-global, and a child per pass keeps one workload's
// tuning from leaking into the next. It prints every metric by name and
// writes the result file that -compare reads.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/la"
)

// environment is recorded with every result file: numbers from two files
// are comparable only when these agree.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUAndGo   string  `json:"cpu_and_go"` // la.CacheKey: CPU model | Go version
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	When       string  `json:"when"`
}

// workloadResult holds, per metric, the value of every run.
type workloadResult struct {
	Correct   bool                 `json:"correct"`
	Attempted []int                `json:"attempted"`
	Failed    []int                `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
}

type resultFile struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// childPass re-executes this binary for one pass and parses its last line.
func childPass(o options, scale string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-scale", scale)
	cmd.Env = append(os.Environ(), "SEMBENCH_ROOT="+o.root)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s (trace %s): %w", o.workload, trace, err)
	}
	var res result
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return result{}, fmt.Errorf("%s (trace %s): last line is not a result: %w", o.workload, trace, err)
	}
	return res, nil
}

func runAll(o options, scale string, runs int, out string) error {
	file := resultFile{
		Env: environment{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: passProcs, CPUAndGo: la.CacheKey(),
			Commit: commit(o.root), Seed: o.seed, Seconds: o.seconds, Scale: scale,
			When: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadResult{},
	}
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g scale=%s\n",
		file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.CPUAndGo, file.Env.Commit, o.seed, o.seconds, scale)
	bad := 0
	for _, wl := range workloads {
		wr := &workloadResult{Correct: true, EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		file.Workloads[wl.Name] = wr
		for run := 0; run < runs; run++ {
			for _, traced := range []bool{false, true} {
				po := o
				po.workload, po.trace = wl.Name, traced
				res, err := childPass(po, scale)
				if err != nil {
					return err
				}
				into := wr.EndToEnd
				if traced {
					into = wr.PerLayer
				} else {
					// Operations are counted on the untraced pass.
					wr.Attempted = append(wr.Attempted, res.Attempted)
					wr.Failed = append(wr.Failed, res.Failed)
				}
				for name, m := range res.Metrics {
					into[name] = append(into[name], m.Value)
				}
				if !res.Correct || res.Failed > 0 {
					wr.Correct = false
					bad++
				}
			}
		}
	}

	fmt.Printf("\n%-14s %-36s %16s %-8s %s\n", "workload", "metric", "median", "unit", "runs")
	for _, wl := range workloads {
		wr := file.Workloads[wl.Name]
		for _, list := range [][]metricSpec{endToEnd, perLayer} {
			for _, m := range list {
				vals := wr.EndToEnd[m.Name]
				if vals == nil {
					vals = wr.PerLayer[m.Name]
				}
				fmt.Printf("%-14s %-36s %16.6g %-8s %d\n", wl.Name, m.Name, median(vals), m.Unit, len(vals))
			}
		}
		var att, fail int
		for i := range wr.Attempted {
			att += wr.Attempted[i]
			fail += wr.Failed[i]
		}
		fmt.Printf("%-14s %-36s %16.6g %-8s %d of %d operations\n", wl.Name, "failed_ops_pct", 100*float64(fail)/float64(att), "%", fail, att)
	}

	if out == "" {
		out = filepath.Join(o.root, "bench", "out", "result.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresult written to %s\n", out)
	if bad > 0 {
		return fmt.Errorf("%d passes were incorrect or had failed operations", bad)
	}
	return nil
}
