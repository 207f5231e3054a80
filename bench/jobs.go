package main

// jobs.go is the semflowd_jobs workload and the session rungs of the
// ladder: the in-process session service (session.NewManager over an
// FSStore, behind session.HTTPHandler — everything cmd/semflowd runs except
// flag parsing) driven by a closed loop of HTTP clients. Each client
// submits a job, polls its status every 5 ms until it leaves "running",
// fetches result.json and history.jsonl, and only then takes the next job.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/session"
)

const pollEvery = 5 * time.Millisecond

// jobSpec is one job of the mix. "cold" jobs are short and dominated by
// the two capped cold solves; "auto" jobs ask for the preconditioner
// tournament, which the first one runs and the later ones find in the
// process-wide selection table.
type jobSpec struct {
	kind string
	cfg  session.Config
}

func jobConfigs(o options) (cold, auto session.Config) {
	cold = session.Config{Case: "channel", N: 9, Steps: 30}
	auto = session.Config{Case: "channel", N: 9, Steps: 200, Precond: "auto"}
	if o.tiny {
		cold.N, cold.Steps = 7, 6
		auto.N, auto.Steps = 7, 12
	}
	return cold, auto
}

// jobMix returns n jobs, five cold to one auto, in seeded shuffled order.
func jobMix(o options, n int) []jobSpec {
	cold, auto := jobConfigs(o)
	jobs := make([]jobSpec, n)
	for i := range jobs {
		if i%6 == 5 || (o.tiny && i == n-1) {
			jobs[i] = jobSpec{"auto", auto}
		} else {
			jobs[i] = jobSpec{"cold", cold}
		}
	}
	newRand(o.seed).Shuffle(n, func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// jobResult is one job as its client saw it.
type jobResult struct {
	kind                 string
	id                   string // session id the service assigned
	spanned              bool
	start                time.Time // of the submit
	submit, fetch, total time.Duration
	done                 time.Time
	stepping             float64 // seconds the session's registry attributes to the stepper's phases
	err                  string
}

type jobsRun struct {
	jobs      []jobResult
	all       interval  // first submit → last artifact fetched
	statusRTT []float64 // microseconds, GET status of a finished job
}

func (r *jobsRun) failed() int {
	n := 0
	for _, j := range r.jobs {
		if j.err != "" {
			n++
		}
	}
	return n
}

func (r *jobsRun) firstErr() string {
	for _, j := range r.jobs {
		if j.err != "" {
			return j.err
		}
	}
	return ""
}

// latencies returns the submit→artifacts-fetched latency in ms of the
// valid jobs of one kind ("" for all), and of those the spanned or
// unspanned ones only when which is 1 or 0 (-1 for both).
func (r *jobsRun) latencies(kind string, which int) []float64 {
	var out []float64
	for _, j := range r.jobs {
		if j.err != "" || (kind != "" && j.kind != kind) {
			continue
		}
		if which == 1 && !j.spanned || which == 0 && j.spanned {
			continue
		}
		out = append(out, ms(j.total))
	}
	return out
}

// runJobs starts the service, runs the jobs through `clients` closed-loop
// clients and shuts everything down. tracks, when given, holds one track
// per client; every other job is then recorded as spans.
func runJobs(o options, specs []jobSpec, clients int, tracks []*track) (*jobsRun, error) {
	dir, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build", "tmp"), "jobs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := session.NewFSStore(dir)
	if err != nil {
		return nil, err
	}
	mgr := session.NewManager(store, poolWorkers())
	srv := httptest.NewServer(session.HTTPHandler(mgr))
	defer srv.Close()
	defer mgr.Close()
	client := &http.Client{Timeout: 60 * time.Second}

	run := &jobsRun{jobs: make([]jobResult, len(specs))}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		var t *track
		if c < len(tracks) {
			t = tracks[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(specs) {
					return
				}
				jt := t
				if i%2 == 0 {
					jt = nil // every other job unspanned: the traced pass's own baseline
				}
				res := oneJob(client, srv.URL, specs[i], i, jt)
				res.done = time.Now()
				res.spanned = jt != nil
				run.jobs[i] = res
			}
		}()
	}
	wg.Wait()
	run.all = since(start)

	// Per-session registries stay readable after the job has finished.
	var lastID string
	for i := range run.jobs {
		j, ok := mgr.Get(run.jobs[i].id)
		if !ok {
			continue
		}
		var t phaseTotals
		t.add(j.Session().Registry())
		run.jobs[i].stepping = t.convect + t.viscous + t.pressure + t.filter
		lastID = run.jobs[i].id
	}
	if lastID != "" {
		n := 200
		if o.tiny {
			n = 20
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			var st session.Status
			if err := getJSON(client, srv.URL+"/api/sessions/"+lastID, &st); err != nil {
				return nil, err
			}
			run.statusRTT = append(run.statusRTT, us(time.Since(t0)))
		}
	}
	return run, nil
}

func getJSON(c *http.Client, url string, v any) error {
	b, err := getBytes(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func getBytes(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// oneJob runs one job through the API and validates it: it must reach
// "done" with step == total_steps, history.jsonl must hold that many rows
// and result.json must parse to the same final status.
func oneJob(c *http.Client, base string, spec jobSpec, id int, t *track) jobResult {
	res := jobResult{kind: spec.kind}
	fail := func(format string, args ...any) jobResult {
		res.err = fmt.Sprintf("job %d (%s): ", id, spec.kind) + fmt.Sprintf(format, args...)
		for t != nil && len(t.open) > 0 {
			t.end(id)
		}
		return res
	}
	body, err := json.Marshal(spec.cfg)
	if err != nil {
		return fail("%v", err)
	}
	t0 := time.Now()
	res.start = t0
	t.begin("session/job")

	t.begin("session/submit")
	resp, err := c.Post(base+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("submit: %v", err)
	}
	var sub session.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return fail("submit: status %s, %v", resp.Status, err)
	}
	t.end(id)
	res.submit = time.Since(t0)
	res.id = sub.ID

	t.begin("session/wait")
	var st session.Status
	for {
		if err := getJSON(c, base+"/api/sessions/"+sub.ID, &st); err != nil {
			return fail("status: %v", err)
		}
		if st.State != session.StateRunning {
			break
		}
		time.Sleep(pollEvery)
	}
	t.end(id)

	t.begin("session/fetch")
	tf := time.Now()
	// The manager publishes the final state before it deposits result.json,
	// so a client that sees "done" may be early by one store.Put: poll.
	var rawResult []byte
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(pollEvery) {
		rawResult, err = getBytes(c, base+"/api/sessions/"+sub.ID+"/artifacts/"+session.ArtifactResult)
		if err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		return fail("result.json: %v", err)
	}
	history, err := getBytes(c, base+"/api/sessions/"+sub.ID+"/artifacts/"+session.ArtifactHistory)
	if err != nil {
		return fail("history.jsonl: %v", err)
	}
	res.fetch = time.Since(tf)
	t.end(id)
	t.end(id)
	res.total = time.Since(t0)

	var final session.Result
	if err := json.Unmarshal(rawResult, &final); err != nil {
		return fail("result.json does not parse: %v", err)
	}
	if st.State != session.StateDone || st.Step != st.TotalSteps || st.TotalSteps != spec.cfg.Steps {
		return fail("ended %s at step %d of %d (%s)", st.State, st.Step, spec.cfg.Steps, st.Error)
	}
	if final.State != session.StateDone || final.Step != spec.cfg.Steps {
		return fail("result.json says %s at step %d", final.State, final.Step)
	}
	if rows := bytes.Count(history, []byte("\n")); rows != spec.cfg.Steps {
		return fail("history.jsonl has %d rows, want %d", rows, spec.cfg.Steps)
	}
	return res
}

func runSemflowdJobs(o options) (*report, error) {
	n := 6 * o.units(0.5) // ≈ 1.5 jobs/s on one processor of the reference machine: two thirds of the window
	if o.tiny {
		n = 4
	}
	specs := jobMix(o, n)
	clients := poolWorkers()
	rep := newReport(o)
	rep.note("inputs: %d jobs in seeded order, closed loop, %d clients, status poll every %v", n, clients, pollEvery)
	tr, trk := newTracer(o)
	var tracks []*track
	for c := 0; o.trace && c < clients; c++ {
		tracks = append(tracks, newTrack(tr, c+1, fmt.Sprintf("client %d", c)))
	}

	run, err := runJobs(o, specs, clients, tracks)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = len(run.jobs), run.failed()
	rep.check(rep.failed == 0, "%d of %d jobs failed %s", rep.failed, rep.attempted, run.firstErr())

	if !o.trace {
		var submits, cold []interval
		done := make([]time.Time, 0, len(run.jobs))
		for _, j := range run.jobs {
			submits = append(submits, interval{j.start, j.start.Add(j.submit)})
			done = append(done, j.done)
			if j.err == "" && j.kind == "cold" {
				cold = append(cold, interval{j.start, j.start.Add(j.total)})
			}
		}
		sort.Slice(done, func(i, k int) bool { return done[i].Before(done[k]) })
		rep.endToEnd(o.clk, timings{setup: submits, rest: []interval{run.all}, setupInRest: true,
			ops: cold, start: run.all.t0, done: done, block: 6})
		rep.note("a set-up is one POST /api/sessions; an operation is one cold job")
		return rep, nil
	}

	if err := rep.foreignLayers(o, trk, true, false); err != nil {
		return nil, err
	}
	sessionLayers(rep.metrics, run)
	jobSpans := selfTimes(tr)["session/job"]
	if jobSpans != nil && jobSpans.Total > 0 {
		rep.metrics["trace.coverage_pct"] = (1 - jobSpans.Self/jobSpans.Total) * 100
	}
	rep.metrics["instrument.overhead_pct"] = overheadPct(run.latencies("cold", 1), run.latencies("cold", 0))

	// The serial layers under a job: a session built like a cold job,
	// stepped directly with the registry on every step.
	twinCfg, _ := jobConfigs(o)
	sess, err := session.Create(twinCfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	s := sess.Solver()
	plan := stepPlan{warm: coldSteps, timed: twinCfg.Steps - coldSteps, cycle: twinCfg.Steps}
	w := &stepWindow{}
	if err := warmUp(s, plan, w); err != nil {
		return nil, err
	}
	if err := timedWindow(s, plan, w, trk); err != nil {
		return nil, err
	}
	if _, err := rep.serialLayers(o, s, w, trk, newRand(o.seed)); err != nil {
		return nil, err
	}
	return rep, rep.finishTrace(o, tr)
}

// sessionLayers fills the session metrics a service run provides; it needs
// session.create_ms from sessionLadder.
func sessionLayers(layers map[string]float64, run *jobsRun) {
	var submit, fetch, deposit []float64
	for _, j := range run.jobs {
		if j.err != "" {
			continue
		}
		submit = append(submit, ms(j.submit))
		fetch = append(fetch, ms(j.fetch))
		if j.kind == "cold" {
			// What a job costs beyond creating its session and stepping it:
			// slot queueing, poll granularity, artifact deposit (fsync), fetch.
			// Stepping starts inside the POST, so the client-side submit time
			// overlaps it; the uncontended Create of the ladder is subtracted
			// instead, and contention on the request goroutine stays in.
			deposit = append(deposit, ms(j.total)-j.stepping*1e3-layers["session.create_ms"])
		}
	}
	layers["session.submit_ms_p50"] = median(submit)
	layers["session.artifact_fetch_ms"] = median(fetch)
	layers["session.status_rtt_us"] = median(run.statusRTT)
	layers["session.auto_job_ms_p50"] = median(run.latencies("auto", -1))
	layers["session.deposit_ms"] = median(deposit)
}

// sessionLadder measures the session layer's own costs directly, without
// HTTP, on a session built like a cold job: Create, the StepN wrapper over
// raw ns.Solver.Step, a checkpoint and its deposit in an FSStore.
func sessionLadder(layers map[string]float64, o options, t *track) error {
	cfg, _ := jobConfigs(o)
	t.begin("ladder/session")
	defer t.end(0)

	creates := make([]float64, 5)
	for i := range creates {
		t0 := time.Now()
		s, err := session.Create(cfg)
		if err != nil {
			return err
		}
		creates[i] = ms(time.Since(t0))
		s.Close()
	}
	layers["session.create_ms"] = median(creates)

	// Two identical sessions advance in lockstep, one through StepN and one
	// through its solver directly, in alternating chunks past the cold start.
	a, err := session.Create(cfg)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := session.Create(cfg)
	if err != nil {
		return err
	}
	defer b.Close()
	chunk, chunks := 10, 6
	if o.tiny {
		chunk, chunks = 2, 3
	}
	var viaSession, direct time.Duration
	for c := 0; c <= chunks; c++ {
		t0 := time.Now()
		if _, err := a.StepN(chunk); err != nil {
			return err
		}
		t1 := time.Now()
		for i := 0; i < chunk; i++ {
			if _, err := b.Solver().Step(); err != nil {
				return err
			}
		}
		if c > 0 { // chunk 0 holds the capped cold solves
			viaSession += t1.Sub(t0)
			direct += time.Since(t1)
		}
	}
	layers["session.step_overhead_pct"] = (viaSession.Seconds()/direct.Seconds() - 1) * 100

	dir, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build", "tmp"), "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := session.NewFSStore(dir)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	cks, puts := make([]float64, 7), make([]float64, 7)
	for i := range cks {
		buf.Reset()
		t0 := time.Now()
		ck, err := a.Checkpoint()
		if err != nil {
			return err
		}
		if err := ck.Encode(&buf); err != nil {
			return err
		}
		cks[i] = ms(time.Since(t0))
		t0 = time.Now()
		if err := store.Put("ladder", session.ArtifactCheckpoint, buf.Bytes()); err != nil {
			return err
		}
		puts[i] = ms(time.Since(t0))
	}
	layers["session.checkpoint_ms"] = median(cks)
	layers["session.checkpoint_bytes"] = float64(buf.Len())
	layers["session.store_put_ms"] = median(puts)
	return nil
}
