package main

// trace.go is the traced pass's span layer. Spans are recorded from the
// benchmark's own code, around its calls into the layers' public functions,
// with instrument.Tracer as the store and the Chrome trace-event file as
// the artifact. Every span ends with the id of the operation (step or job)
// it belongs to and the name of the span that caused it.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/instrument"
)

// track is one wall-clock timeline driven by a single goroutine (the main
// loop, or one HTTP client). The nil track records nothing, so untraced
// passes run the same code with a nil pointer.
type track struct {
	tr   *instrument.Tracer
	tid  int
	open []openSpan
}

type openSpan struct {
	sp   instrument.Span
	name string
}

func newTrack(tr *instrument.Tracer, tid int, name string) *track {
	if tr == nil {
		return nil
	}
	tr.SetThreadName(instrument.PidWall, tid, name)
	return &track{tr: tr, tid: tid}
}

// begin opens a span named "<layer>/<what>"; the layer is its category.
func (t *track) begin(name string) {
	if t == nil {
		return
	}
	cat := name
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			cat = name[:i]
			break
		}
	}
	t.open = append(t.open, openSpan{t.tr.Begin(instrument.PidWall, t.tid, name, cat), name})
}

// end closes the innermost open span, stamping the operation id and the
// parent span's name.
func (t *track) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	parent := ""
	if n > 0 {
		parent = t.open[n-1].name
	}
	t.open[n].sp.EndWith(map[string]any{"id": id, "parent": parent})
	t.open = t.open[:n]
}

// span runs fn inside a span.
func (t *track) span(name string, id int, fn func()) {
	t.begin(name)
	fn()
	t.end(id)
}

// spanStat aggregates one span name over a trace.
type spanStat struct {
	Count int
	Total float64 // seconds inside the span
	Self  float64 // seconds inside the span and in none of its children
}

// selfTimes walks the wall-clock tracks of a trace and returns, per span
// name, the total duration and the self time (duration minus the part its
// child spans cover).
func selfTimes(tr *instrument.Tracer) map[string]*spanStat {
	type frame struct {
		name     string
		start    float64
		children float64
	}
	out := map[string]*spanStat{}
	stacks := map[int][]frame{}
	for _, ev := range tr.Events() {
		if ev.Pid != instrument.PidWall {
			continue
		}
		st := stacks[ev.Tid]
		switch ev.Ph {
		case "B":
			stacks[ev.Tid] = append(st, frame{name: ev.Name, start: ev.Ts})
		case "E":
			if len(st) == 0 {
				continue
			}
			f := st[len(st)-1]
			st = st[:len(st)-1]
			dur := (ev.Ts - f.start) / 1e6
			s := out[f.name]
			if s == nil {
				s = &spanStat{}
				out[f.name] = s
			}
			s.Count++
			s.Total += dur
			s.Self += dur - f.children
			if len(st) > 0 {
				st[len(st)-1].children += dur
			}
			stacks[ev.Tid] = st
		}
	}
	return out
}

// writeTrace validates the trace and writes it to
// bench/out/trace-<workload>.json under root.
func writeTrace(root, workload string, tr *instrument.Tracer) (string, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return "", err
	}
	if err := instrument.ValidateChromeTrace(buf.Bytes(), 0); err != nil {
		return "", fmt.Errorf("trace of %s is not a valid Chrome trace: %w", workload, err)
	}
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// selfTimeTable lists the spans of a trace, largest total first.
func selfTimeTable(stats map[string]*spanStat) []string {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].Total > stats[names[j]].Total })
	lines := []string{fmt.Sprintf("%-28s %8s %12s %12s", "span", "count", "total s", "self s")}
	for _, n := range names {
		s := stats[n]
		lines = append(lines, fmt.Sprintf("%-28s %8d %12.4f %12.4f", n, s.Count, s.Total, s.Self))
	}
	return lines
}
