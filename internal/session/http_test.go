package session

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/solver"
)

func newTestAPI(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(NewMemStore(), 2)
	srv := httptest.NewServer(HTTPHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getBody(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d (%s)", url, resp.StatusCode, wantCode, b)
	}
	return b
}

func pollDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st Status
		resp, err := http.Get(base + "/api/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		decodeJSON(t, resp, &st)
		if st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPSubmitPollHistory(t *testing.T) {
	_, srv := newTestAPI(t)
	const steps = 6

	resp := postJSON(t, srv.URL+"/api/sessions", Config{
		Case: "shearlayer", Steps: steps, Nel: 4, N: 5, Trace: true,
	})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, b)
	}
	var sub SubmitResponse
	decodeJSON(t, resp, &sub)
	if sub.ID == "" {
		t.Fatal("empty id")
	}

	st := pollDone(t, srv.URL, sub.ID)
	if st.State != StateDone || st.Step != steps {
		t.Fatalf("final status %+v", st)
	}

	// Per-step JSONL: one record per step, parseable, in order.
	hist := getBody(t, srv.URL+"/api/sessions/"+sub.ID+"/history", http.StatusOK)
	lines := strings.Split(strings.TrimSpace(string(hist)), "\n")
	if len(lines) != steps {
		t.Fatalf("%d history lines, want %d", len(lines), steps)
	}
	for i, ln := range lines {
		var rec struct {
			Step int `json:"step"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Step != i+1 {
			t.Fatalf("line %d has step %d", i, rec.Step)
		}
	}

	// The job shows up in the listing.
	var list []Status
	if err := json.Unmarshal(getBody(t, srv.URL+"/api/sessions", http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range list {
		found = found || s.ID == sub.ID
	}
	if !found {
		t.Fatalf("job %s missing from listing %+v", sub.ID, list)
	}

	// Artifacts: config, checkpoint, history, result, trace.
	var names []string
	if err := json.Unmarshal(getBody(t, srv.URL+"/api/sessions/"+sub.ID+"/artifacts", http.StatusOK), &names); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{ArtifactConfig, ArtifactCheckpoint, ArtifactHistory, ArtifactResult, ArtifactTrace} {
		ok := false
		for _, n := range names {
			ok = ok || n == want
		}
		if !ok {
			t.Fatalf("artifact %s missing from %v", want, names)
		}
	}
	trace := getBody(t, srv.URL+"/api/sessions/"+sub.ID+"/artifacts/"+ArtifactTrace, http.StatusOK)
	if !bytes.Contains(trace, []byte("traceEvents")) {
		t.Fatal("trace artifact is not a Chrome trace")
	}

	// Per-session observability endpoints.
	metrics := getBody(t, srv.URL+"/api/sessions/"+sub.ID+"/metrics", http.StatusOK)
	if !bytes.Contains(metrics, []byte("semflow_")) {
		t.Fatalf("metrics payload: %.120s", metrics)
	}
	var prog struct {
		Step int  `json:"step"`
		Done bool `json:"done"`
	}
	if err := json.Unmarshal(getBody(t, srv.URL+"/api/sessions/"+sub.ID+"/progress", http.StatusOK), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Step != steps || !prog.Done {
		t.Fatalf("progress %+v, want step=%d done", prog, steps)
	}
	var rep instrument.Report
	if err := json.Unmarshal(getBody(t, srv.URL+"/api/sessions/"+sub.ID+"/stats", http.StatusOK), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Meta == nil || rep.Meta.Case != "shearlayer" || len(rep.Timers) == 0 {
		t.Fatalf("stats: meta %+v, %d timers", rep.Meta, len(rep.Timers))
	}
}

// TestServeLiveScrapeUnderLoad scrapes a stepping session through the handler
// semflow -listen mounts at / — the -race gate for the live routes, which
// read the registry and progress while StepN writes them.
func TestServeLiveScrapeUnderLoad(t *testing.T) {
	sess, err := Create(testCfg(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := httptest.NewServer(sess.Handler())
	defer srv.Close()

	if _, err := sess.StepN(2); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the run
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sess.StepN(1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("/metrics content type %q", ct)
		}
		if !bytes.Contains(body, []byte(`semflow_timer_seconds{name="ns/pressure"}`)) ||
			!bytes.Contains(body, []byte(`semflow_histogram{name=`)) {
			t.Fatalf("/metrics missing expected families:\n%s", body)
		}
		var snap ProgressSnapshot
		if err := json.Unmarshal(getBody(t, srv.URL+"/progress", http.StatusOK), &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Case != "shearlayer" || snap.Step < 2 {
			t.Fatalf("/progress %+v", snap)
		}
	}
	close(stop)
	wg.Wait()

	var rep instrument.Report
	if err := json.Unmarshal(getBody(t, srv.URL+"/stats", http.StatusOK), &rep); err != nil {
		t.Fatalf("/stats not a Report: %v", err)
	}
	if rep.Meta == nil || rep.Meta.Case != "shearlayer" || len(rep.Histograms) == 0 {
		t.Fatalf("/stats: meta %+v, %d histograms", rep.Meta, len(rep.Histograms))
	}
	getBody(t, srv.URL+"/", http.StatusNotFound)
}

// TestHTTPInvalidKeyIsNotFound: a read under a key Put refuses names nothing,
// so both backends answer it 404, as for any other absent artifact.
func TestHTTPInvalidKeyIsNotFound(t *testing.T) {
	for name, st := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Put("s1", ArtifactConfig, []byte("{}")); err != nil {
				t.Fatal(err)
			}
			m := NewManager(st, 1)
			srv := httptest.NewServer(HTTPHandler(m))
			defer m.Close()
			defer srv.Close()
			for _, path := range []string{
				"/api/sessions/a..b/history",
				"/api/sessions/a..b/artifacts",
				"/api/sessions/s1/artifacts/x..y",
			} {
				getBody(t, srv.URL+path, http.StatusNotFound)
			}
			if err := st.Put("a..b", ArtifactHistory, nil); err == nil {
				t.Fatal("Put accepted an escaping key")
			}
		})
	}
}

func TestHTTPCheckpointResumeCancel(t *testing.T) {
	_, srv := newTestAPI(t)

	// A long job: checkpoint it mid-flight, then cancel it.
	resp := postJSON(t, srv.URL+"/api/sessions", Config{
		Case: "shearlayer", Steps: 100_000, Nel: 4, N: 5,
	})
	var sub SubmitResponse
	decodeJSON(t, resp, &sub)

	for {
		var st Status
		r, err := http.Get(srv.URL + "/api/sessions/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeJSON(t, r, &st)
		if st.Step > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ck := postJSON(t, srv.URL+"/api/sessions/"+sub.ID+"/checkpoint", nil)
	if ck.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint = %d", ck.StatusCode)
	}
	var ckResp struct {
		Step int `json:"step"`
	}
	decodeJSON(t, ck, &ckResp)
	if ckResp.Step == 0 {
		t.Fatal("checkpoint at step 0")
	}

	cancel := postJSON(t, srv.URL+"/api/sessions/"+sub.ID+"/cancel", nil)
	if cancel.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", cancel.StatusCode)
	}
	cancel.Body.Close()
	st := pollDone(t, srv.URL, sub.ID)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}

	// Resume over HTTP from the deposited checkpoint.
	resume := postJSON(t, srv.URL+"/api/sessions",
		SubmitRequest{ResumeFrom: sub.ID, Config: Config{Steps: st.Step + 3}})
	if resume.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resume.Body)
		t.Fatalf("resume = %d: %s", resume.StatusCode, b)
	}
	var sub2 SubmitResponse
	decodeJSON(t, resume, &sub2)
	st2 := pollDone(t, srv.URL, sub2.ID)
	if st2.State != StateDone || st2.Step != st.Step+3 || st2.ResumedFrom != sub.ID {
		t.Fatalf("resumed status %+v", st2)
	}
}

// refusedSubmits are submit bodies the job service answers 400, creating no
// job: TestHTTPErrors posts them, and they seed FuzzSubmitConfig.
var refusedSubmits = []string{
	`{"case":"vortexstreet","steps":5}`, // unknown case
	`{"case":"shearlayer"}`,             // no steps
	`{not json`,
	// The simulated machine is semflow's: a rank's panic would be every
	// tenant's, and nothing bounds P.
	`{"case":"channel","steps":2,"ranks":4}`,
	`{"case":"channel","steps":2,"faults":{"seed":7}}`,
	// One size out of range per field: no job is built for it.
	`{"case":"channel","steps":2,"n":2}`,
	`{"case":"channel","steps":2,"n":17}`,
	`{"case":"shearlayer","steps":2,"nel":65}`,
	`{"case":"channel","steps":2,"kx":-1}`,
	`{"case":"shearlayer","steps":2,"nel":-3}`,
	`{"case":"channel","steps":2,"ky":65}`,
	// Fields the service does not know — a knob that is gone, a misspelt
	// one: a job that silently ran without them would hide that.
	`{"case":"channel","steps":2,"workers":2}`,
	`{"case":"channel","steps":2,"precondition":"none"}`,
	`{"case":"channel","steps":100001}`,
	`{"case":"channel","steps":2,"batch_steps":10001}`,
	`{"case":"channel","steps":2,"piters":-1}`,
	`{"case":"channel","steps":2,"projection_l":65}`,
	`{"case":"channel","steps":2,"checkpoint_every":3}`,
	`{"case":"channel","steps":2,"batch_steps":-1}`,
	`{"case":"channel","steps":2,"projection_l":-2}`, // -1 is projection off
	`{"case":"channel","steps":2,"checkpoint_every":-1}`,
	`{"case":"channel","steps":2,"trace_sample":-1}`,
	// The filter scales the top mode by 1 − α: below 0 it amplifies
	// what it should damp, above 1 it overshoots.
	`{"case":"convection","steps":2,"alpha":-0.1}`,
	`{"case":"channel","steps":2,"alpha":1.5}`,
}

// TestHTTPSubmitUnknownFieldNamesIt: a submit naming a field the service
// does not know is answered 400 with an error that names the field, and
// creates no job.
func TestHTTPSubmitUnknownFieldNamesIt(t *testing.T) {
	m, srv := newTestAPI(t)
	resp, err := http.Post(srv.URL+"/api/sessions", "application/json",
		strings.NewReader(`{"case":"channel","steps":2,"n":4,"workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	decodeJSON(t, resp, &body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], `"workers"`) {
		t.Fatalf("submit with workers = %d %q, want 400 naming the field", resp.StatusCode, body["error"])
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("%d jobs after the refused submit, want none", len(jobs))
	}
}

// TestHTTPResumeStoredConfigWithUnknownField: a config.json stored while the
// service still took "workers" resumes; the stored artifact is read
// leniently, the submit body strictly.
func TestHTTPResumeStoredConfigWithUnknownField(t *testing.T) {
	m, srv := newTestAPI(t)
	resp := postJSON(t, srv.URL+"/api/sessions", Config{Case: "shearlayer", Steps: 2, Nel: 2, N: 4})
	var sub SubmitResponse
	decodeJSON(t, resp, &sub)
	j, ok := m.Get(sub.ID)
	if !ok {
		t.Fatalf("job %s not found", sub.ID)
	}
	waitJob(t, j)
	raw, err := m.Store().Get(sub.ID, ArtifactConfig)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(raw, []byte(`"case"`), []byte(`"workers": 2, "case"`), 1)
	if err := m.Store().Put(sub.ID, ArtifactConfig, old); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, srv.URL+"/api/sessions", SubmitRequest{ResumeFrom: sub.ID, Config: Config{Steps: 4}})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("resume of a stored config with workers = %d: %s", resp.StatusCode, b)
	}
	var res SubmitResponse
	decodeJSON(t, resp, &res)
	r, _ := m.Get(res.ID)
	waitJob(t, r)
	if st := r.Status(); st.State != StateDone || st.Step != 4 {
		t.Fatalf("resumed job: state %s at step %d (err %q), want done at 4", st.State, st.Step, st.Error)
	}
}

// oneDimensionSubmits size the channel along or across only; the other
// dimension takes its default.
var oneDimensionSubmits = []string{
	`{"case":"channel","steps":1,"n":4,"kx":8}`,
	`{"case":"channel","steps":1,"n":4,"ky":2}`,
}

// TestHTTPSubmitOneChannelDimension: a channel submit setting kx or ky alone
// is a job. The kx-only body once panicked inside the handler, in the
// pressure preconditioner of a mesh with no rows, and dropped the connection.
func TestHTTPSubmitOneChannelDimension(t *testing.T) {
	_, srv := newTestAPI(t)
	for _, body := range oneDimensionSubmits {
		resp, err := http.Post(srv.URL+"/api/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("submit %s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s = %d, want 201", body, resp.StatusCode)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	m, srv := newTestAPI(t)

	getBody(t, srv.URL+"/api/sessions/nope", http.StatusNotFound)
	getBody(t, srv.URL+"/api/sessions/nope/history", http.StatusNotFound)
	getBody(t, srv.URL+"/api/sessions/nope/artifacts", http.StatusNotFound)

	for _, body := range refusedSubmits {
		resp, err := http.Post(srv.URL+"/api/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %s = %d, want 400", body, resp.StatusCode)
		}
	}
	// An oversized body — otherwise a valid submit — is refused before it
	// is decoded, and no job comes of it.
	huge := `{"case":"channel",` + strings.Repeat(" ", 2<<20) + `"steps":1}`
	resp, err := http.Post(srv.URL+"/api/sessions", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB submit = %d, want 413", resp.StatusCode)
	}
	var jobs []json.RawMessage
	if err := json.Unmarshal(getBody(t, srv.URL+"/api/sessions", http.StatusOK), &jobs); err != nil || len(jobs) != 0 {
		t.Fatalf("after rejected submits: %d jobs (err %v), want none", len(jobs), err)
	}

	resp = postJSON(t, srv.URL+"/api/sessions", SubmitRequest{ResumeFrom: "nope", Config: Config{Steps: 5}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("resume from unknown = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	// A stored config cannot smuggle ranks in through resume either.
	if err := m.Store().Put("old", ArtifactConfig, []byte(`{"case":"channel","steps":4,"ranks":4}`)); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, srv.URL+"/api/sessions", SubmitRequest{ResumeFrom: "old"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resume of a ranks > 0 config = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// Nor a size out of range, stored or asked for with the resume.
	if err := m.Store().Put("big", ArtifactConfig, []byte(`{"case":"channel","steps":4,"nel":65}`)); err != nil {
		t.Fatal(err)
	}
	if err := m.Store().Put("fine", ArtifactConfig, []byte(`{"case":"channel","steps":4}`)); err != nil {
		t.Fatal(err)
	}
	for _, req := range []SubmitRequest{
		{ResumeFrom: "big"},
		{ResumeFrom: "fine", Config: Config{Steps: 100_001}},
	} {
		resp = postJSON(t, srv.URL+"/api/sessions", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("resume %s to %d steps = %d, want 400", req.ResumeFrom, req.Steps, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got := len(m.List()); got != 0 {
		t.Fatalf("%d jobs after rejected submits, want none", got)
	}

	b := getBody(t, srv.URL+"/healthz", http.StatusOK)
	if !bytes.Contains(b, []byte("ok")) {
		t.Fatalf("healthz: %s", b)
	}
}

// TestHTTPHistoryStreamsLive asserts the history endpoint is readable
// mid-run — the "stream telemetry while it runs" contract.
func TestHTTPHistoryStreamsLive(t *testing.T) {
	_, srv := newTestAPI(t)
	resp := postJSON(t, srv.URL+"/api/sessions", Config{
		Case: "shearlayer", Steps: 100_000, Nel: 4, N: 5,
	})
	var sub SubmitResponse
	decodeJSON(t, resp, &sub)
	defer func() {
		postJSON(t, srv.URL+"/api/sessions/"+sub.ID+"/cancel", nil).Body.Close()
		pollDone(t, srv.URL, sub.ID)
	}()

	deadline := time.Now().Add(60 * time.Second)
	for {
		hist := getBody(t, srv.URL+"/api/sessions/"+sub.ID+"/history", http.StatusOK)
		if n := len(strings.Split(strings.TrimSpace(string(hist)), "\n")); n >= 2 && len(hist) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("history never streamed mid-run")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// A status GET must not wait out the runtime's 10 ms forced preemption of a
// stepping job. One processor, both slots busy on sub-millisecond steps, and a
// client that polls as semflowd's do (sleep, then ask): its wake-up and the
// handler get the processor at the next batch boundary because Manager.run
// yields there; without the yield the median below is 18 ms. The handler is
// called in-process on purpose. Over a socket each direction also waits for
// the runtime to poll the network, which it does only every 10 ms while
// goroutines are runnable (measured here: 80 ms without the yield, 20 ms with
// it), and no code of ours moves that.
func TestStatusGETWhileJobsStepOnOneProcessor(t *testing.T) {
	if raceEnabled {
		t.Skip("a step is no longer sub-millisecond under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := NewManager(NewMemStore(), 2)
	defer m.Close()
	h := HTTPHandler(m)
	var jobs [2]*Job
	for i := range jobs {
		j, err := m.Submit(Config{Case: "channel", N: 5, Steps: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	const gets, pause = 41, 2 * time.Millisecond
	lat := make([]time.Duration, gets)
	for i := range lat {
		due := time.Now().Add(pause)
		time.Sleep(pause)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/sessions/"+jobs[i%2].ID, nil))
		lat[i] = time.Since(due)
		var st Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status GET = %d %q (%v)", rec.Code, rec.Body, err)
		}
		if st.State != StateRunning {
			t.Fatalf("job %s is %s at step %d, want it stepping throughout", st.ID, st.State, st.Step)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	t.Logf("status GET, from when it was due: median %v, max %v over %d", lat[gets/2], lat[gets-1], gets)
	if lat[gets/2] >= 5*time.Millisecond {
		t.Errorf("median status GET took %v while two jobs stepped, want < 5ms", lat[gets/2])
	}
}

// jsonObject is v's JSON encoding read back as an object.
func jsonObject(t *testing.T, v any) map[string]any {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestReportsCarryTheStepRecord: a finished auto job's status and
// result.json carry the last history.jsonl record's ns.StepStats under its
// keys with its values, and the session's preconditioner selection, trials
// included; a /progress scrape mid-run carries the step's keys and values
// too.
func TestReportsCarryTheStepRecord(t *testing.T) {
	solver.ResetPrecondTable() // an empty table: auto runs its trials
	t.Cleanup(solver.ResetPrecondTable)
	m, srv := newTestAPI(t)
	var sub SubmitResponse
	decodeJSON(t, postJSON(t, srv.URL+"/api/sessions",
		Config{Case: "channel", Steps: 3, N: 5, Precond: "auto"}), &sub)
	status := pollDone(t, srv.URL, sub.ID)
	if status.State != StateDone {
		t.Fatalf("job %s: %+v", sub.ID, status)
	}
	j, _ := m.Get(sub.ID)
	sel := j.Session().PrecondSelection()
	if sel.Source != "trial" || len(sel.Trials) == 0 {
		t.Fatalf("selection %+v, want a trial tournament", sel)
	}

	hist := bytes.Split(bytes.TrimSpace(getBody(t, srv.URL+"/api/sessions/"+sub.ID+"/history", http.StatusOK)), []byte("\n"))
	var last ns.StepStats
	var lastRec map[string]any
	if err := json.Unmarshal(hist[len(hist)-1], &last); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hist[len(hist)-1], &lastRec); err != nil {
		t.Fatal(err)
	}
	rawResult := getBody(t, srv.URL+"/api/sessions/"+sub.ID+"/artifacts/"+ArtifactResult, http.StatusOK)
	var result Result
	if err := json.Unmarshal(rawResult, &result); err != nil {
		t.Fatal(err)
	}
	var resultObj map[string]any
	if err := json.Unmarshal(rawResult, &resultObj); err != nil {
		t.Fatal(err)
	}
	statusObj := jsonObject(t, status)
	for key := range jsonObject(t, last) {
		if !reflect.DeepEqual(resultObj[key], lastRec[key]) || !reflect.DeepEqual(statusObj[key], lastRec[key]) {
			t.Errorf("%q: result.json %v, status %v, history %v", key, resultObj[key], statusObj[key], lastRec[key])
		}
	}
	if result.StepStats != last || status.StepStats != last || last.Step != 3 {
		t.Errorf("result.json %+v, status %+v, want the last history record %+v", result.StepStats, status.StepStats, last)
	}
	if !reflect.DeepEqual(result.Precond, sel) || !reflect.DeepEqual(status.Precond, sel) {
		t.Errorf("result.json precond %+v, status precond %+v, want the session's %+v", result.Precond, status.Precond, sel)
	}

	var sess *Session
	var at ns.StepStats
	var prog map[string]any
	sess, err := Create(Config{Case: "channel", Steps: 3, N: 5, OnStep: func(st ns.StepStats) {
		if st.Step == 2 {
			rec := httptest.NewRecorder()
			sess.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
			at, prog = st, map[string]any{}
			if err := json.Unmarshal(rec.Body.Bytes(), &prog); err != nil {
				t.Error(err)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.StepN(3); err != nil {
		t.Fatal(err)
	}
	if at.Step != 2 {
		t.Fatal("no /progress scrape at step 2")
	}
	for key, want := range jsonObject(t, at) {
		if !reflect.DeepEqual(prog[key], want) {
			t.Errorf("/progress at step 2: %q = %v, want %v", key, prog[key], want)
		}
	}
}
