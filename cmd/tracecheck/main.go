// Command tracecheck validates the artifacts emitted by semflow's -trace
// and -history flags: the Chrome trace must be structurally sound (required
// fields, balanced spans, monotone per-track timestamps, every flow arrow
// with both endpoints, enough rank tracks) and every telemetry line must
// parse with the per-step keys the analysis scripts rely on. With
// -metrics-url/-progress-url it scrapes a live semflow -listen endpoint and
// validates the exposition.
// It is the CI gate of scripts/ci.sh's smoke stage; exit status 1 means a
// malformed artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/instrument"
)

func main() {
	tracePath := flag.String("trace", "", "Chrome trace-event JSON to validate")
	minRanks := flag.Int("min-ranks", 0, "minimum distinct rank tracks required under the machine pid")
	minFault := flag.Int("min-fault-events", 0, "minimum \"fault\"-category events (straggler/retry/pause spans) the trace must carry")
	historyPath := flag.String("history", "", "per-step telemetry JSONL to validate")
	metricsURL := flag.String("metrics-url", "", "scrape this /metrics URL and validate the Prometheus text exposition")
	progressURL := flag.String("progress-url", "", "scrape this /progress URL and validate the JSON snapshot")
	flag.Parse()
	if *tracePath == "" && *historyPath == "" && *metricsURL == "" && *progressURL == "" {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-trace file.json -min-ranks N -min-fault-events N] [-history file.jsonl] [-metrics-url URL] [-progress-url URL]")
		os.Exit(2)
	}
	ok := true
	if *tracePath != "" {
		data, err := os.ReadFile(*tracePath)
		if err == nil {
			err = instrument.ValidateChromeTrace(data, *minRanks)
		}
		nfault := 0
		if err == nil && *minFault > 0 {
			nfault, err = instrument.CountCategory(data, "fault")
			if err == nil && nfault < *minFault {
				err = fmt.Errorf("%d fault-category events, want >= %d", nfault, *minFault)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", *tracePath, err)
			ok = false
		} else if *minFault > 0 {
			fmt.Printf("%s: valid Chrome trace (>= %d rank tracks, %d fault events)\n",
				*tracePath, *minRanks, nfault)
		} else {
			fmt.Printf("%s: valid Chrome trace (>= %d rank tracks)\n", *tracePath, *minRanks)
		}
	}
	if *historyPath != "" {
		if err := checkHistory(*historyPath); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", *historyPath, err)
			ok = false
		}
	}
	if *metricsURL != "" {
		if err := checkMetrics(*metricsURL); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", *metricsURL, err)
			ok = false
		}
	}
	if *progressURL != "" {
		if err := checkProgress(*progressURL); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", *progressURL, err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// scrape fetches a URL with a short timeout.
func scrape(url string) ([]byte, string, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	return body, resp.Header.Get("Content-Type"), err
}

// checkMetrics validates a live /metrics scrape: Prometheus text exposition
// content type, and every non-comment line of the form `name{labels} value`
// with at least one semflow_ family present.
func checkMetrics(url string) error {
	body, ctype, err := scrape(url)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		return fmt.Errorf("content type %q, want text/plain exposition", ctype)
	}
	families, lines := 0, 0
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return fmt.Errorf("malformed exposition line %q", line)
		}
		if strings.HasPrefix(line, "semflow_") {
			families++
		}
	}
	if lines == 0 || families == 0 {
		return fmt.Errorf("no semflow_ samples in %d exposition lines", lines)
	}
	fmt.Printf("%s: %d samples (%d semflow_ family lines)\n", url, lines, families)
	return nil
}

// checkProgress validates a live /progress scrape: a JSON object carrying
// the step counter, the virtual clock and the step's pressure solve under
// the history's keys.
func checkProgress(url string) error {
	body, ctype, err := scrape(url)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(ctype, "application/json") {
		return fmt.Errorf("content type %q, want application/json", ctype)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("not JSON: %w", err)
	}
	for _, key := range []string{"step", "time", "virtual_seconds",
		"pressure_iters", "pressure_converged", "pressure_res_final"} {
		if _, okKey := snap[key]; !okKey {
			return fmt.Errorf("missing key %q", key)
		}
	}
	fmt.Printf("%s: live progress snapshot at step %v\n", url, snap["step"])
	return nil
}

// checkHistory verifies every JSONL line parses and carries the per-step
// keys, including the per-iteration pressure residual history.
func checkHistory(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	required := []string{"step", "time", "cfl", "pressure_iters",
		"pressure_converged", "pressure_res_hist", "max_divergence"}
	lines := 0
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("line %d: %w", lines, err)
		}
		for _, key := range required {
			if _, ok := rec[key]; !ok {
				return fmt.Errorf("line %d: missing key %q", lines, key)
			}
		}
		hist, ok := rec["pressure_res_hist"].([]any)
		if !ok || len(hist) == 0 {
			return fmt.Errorf("line %d: pressure_res_hist empty or not an array", lines)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines == 0 {
		return fmt.Errorf("no telemetry records")
	}
	fmt.Printf("%s: %d valid telemetry records\n", path, lines)
	return nil
}
