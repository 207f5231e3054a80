package main

// compare.go is `bench -compare a.json b.json`: one row per workload ×
// metric, each end-to-end metric judged against its own bound, each exact
// per-layer metric required to be identical. It serves the self-agreement
// check (two sets of runs of one commit) and before/after comparisons.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how much b is worse than a as a share of a (negative: better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// verdict judges one metric. Runs whose own spread (interquartile distance
// over the median, known from two runs up) exceeds the bound cannot resolve
// a change of the bound's size: those read "unresolved", never "unchanged".
func verdict(m metricSpec, a, b []float64) (string, bool) {
	ma, mb := median(a), median(b)
	switch {
	case m.Exact:
		if len(a) == len(b) && ma == mb {
			return "identical", true
		}
		return "DIFFERS", false
	case m.Bound == 0:
		return "", true // per-layer, no bound
	}
	if sp := math.Max(spread(a), spread(b)); sp > m.Bound {
		return fmt.Sprintf("unresolved (spread %.1f%%)", sp*100), true
	}
	switch w := worsening(ma, mb, m.Better); {
	case w > m.Bound:
		return "REGRESSED", false
	case w < -m.Bound:
		return "improved", true
	}
	return "unchanged", true
}

func compareFiles(pathA, pathB string) error {
	fa, err := loadResult(pathA)
	if err != nil {
		return err
	}
	fb, err := loadResult(pathB)
	if err != nil {
		return err
	}
	ea, eb := fa.Env, fb.Env
	fmt.Printf("a: %s  commit %s seed %d seconds %g  %s\n", pathA, ea.Commit, ea.Seed, ea.Seconds, ea.CPUAndGo)
	fmt.Printf("b: %s  commit %s seed %d seconds %g  %s\n", pathB, eb.Commit, eb.Seed, eb.Seconds, eb.CPUAndGo)
	sameInputs := ea.Seed == eb.Seed && ea.Seconds == eb.Seconds && ea.Scale == eb.Scale
	if !sameInputs {
		fmt.Println("seed, seconds or scale differ: exact metrics are not expected to be identical")
	}
	fmt.Printf("\n%-14s %-36s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "verdict")
	bad := 0
	for _, wl := range workloads {
		wa, wb := fa.Workloads[wl.Name], fb.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-14s missing from one file\n", wl.Name)
			bad++
			continue
		}
		for _, list := range [][]metricSpec{endToEnd, perLayer} {
			for _, m := range list {
				a, b := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
				if a == nil {
					a, b = wa.PerLayer[m.Name], wb.PerLayer[m.Name]
				}
				if len(a) == 0 || len(b) == 0 {
					fmt.Printf("%-14s %-36s missing from one file\n", wl.Name, m.Name)
					bad++
					continue
				}
				if m.Exact && !sameInputs {
					m.Exact = false
				}
				v, ok := verdict(m, a, b)
				if !ok {
					bad++
				}
				bound := ""
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", m.Bound*100)
				}
				fmt.Printf("%-14s %-36s %14.6g %14.6g %8.2f%% %7s  %s\n", wl.Name, m.Name,
					median(a), median(b), worsening(median(a), median(b), m.Better)*100, bound, v)
			}
		}
		for name, w := range map[string]*workloadResult{"a": wa, "b": wb} {
			var att, fail int
			for i := range w.Attempted {
				att += w.Attempted[i]
				fail += w.Failed[i]
			}
			if fail > 0 || !w.Correct {
				fmt.Printf("%-14s %-36s %s: %d of %d operations failed, correct=%v\n", wl.Name, "failed_ops_pct", name, fail, att, w.Correct)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, differ, are missing or failed", bad)
	}
	fmt.Println("\nno regression: every end-to-end metric within its bound, every exact metric identical, no failed operation")
	return nil
}
