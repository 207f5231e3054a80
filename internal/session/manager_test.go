package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ns"
	"repro/internal/solver"
)

// waitStepping waits until every job has completed at least one step.
func waitStepping(t *testing.T, jobs ...*Job) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for _, j := range jobs {
		for j.Session().Step() < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never stepped: %+v", j.ID, j.Status())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestHTTPAnswersWhileSlotsStep: while every slot steps, a request over a
// socket waits for the stepping runners' next batch boundaries, not for the
// runtime's 10 ms network poll. With two N = 9 channel jobs stepping on two
// slots, the median of 50 /healthz round trips stays under 3 ms on one
// processor and on two; yielding with runtime.Gosched at the boundary, it was
// about 17 ms on both.
func TestHTTPAnswersWhileSlotsStep(t *testing.T) {
	cfg := Config{Case: "channel", N: 9, Steps: 100_000}
	if raceEnabled {
		// The race detector makes a step about ten times slower: a step
		// of this size takes about as long under it as N = 9 without.
		cfg.N, cfg.KX, cfg.KY = 4, 2, 2
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			m := NewManager(NewMemStore(), 2)
			srv := httptest.NewServer(HTTPHandler(m))
			defer runtime.GOMAXPROCS(prev)
			defer m.Close()
			defer srv.Close()
			var jobs []*Job
			for range 2 {
				j, err := m.Submit(cfg)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			waitStepping(t, jobs...)

			client := srv.Client()
			const gets = 50
			lat := make([]time.Duration, gets)
			for i := range lat {
				time.Sleep(time.Millisecond)
				t0 := time.Now()
				resp, err := client.Get(srv.URL + "/healthz")
				if err != nil {
					t.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat[i] = time.Since(t0)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("GET /healthz = %s (%v)", resp.Status, err)
				}
			}
			for _, j := range jobs {
				if st := j.Status(); st.State != StateRunning {
					t.Fatalf("job %s is %s at step %d, want it stepping throughout", st.ID, st.State, st.Step)
				}
			}
			slices.Sort(lat)
			t.Logf("GET /healthz while two N = %d jobs step: median %v, max %v over %d", cfg.N, lat[gets/2], lat[gets-1], gets)
			if lat[gets/2] >= 3*time.Millisecond {
				t.Errorf("median /healthz round trip %v while two jobs stepped, want < 3ms", lat[gets/2])
			}
		})
	}
}

// holdSlot submits a long channel job to m whose first step blocks inside
// its batch, so that it holds a slot, and returns it once it does. release
// cancels it and lets the batch end.
func holdSlot(t *testing.T, m *Manager) (j *Job, release func()) {
	t.Helper()
	held, free := make(chan struct{}), make(chan struct{})
	var once sync.Once
	j, err := m.Submit(Config{Case: "channel", N: 4, KX: 2, KY: 2, Steps: 100_000,
		OnStep: func(ns.StepStats) { once.Do(func() { close(held); <-free }) }})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	var released sync.Once
	release = func() {
		released.Do(func() {
			j.Session().Cancel()
			close(free)
		})
	}
	t.Cleanup(release)
	return j, release
}

// TestSubmitReturnsBeforeSetUp: a submit returns once its job exists; the
// solver is built later, on the job's runner, in a slot. With the only slot
// held, a hairpin auto POST returns 201, the job reads running at step 0
// with no preconditioner chosen, and a checkpoint request is refused 409 as
// not started. Once the slot frees the job runs its tournament and steps,
// and its checkpoint.gob is bitwise that of a session Create built and
// stepped as far.
func TestSubmitReturnsBeforeSetUp(t *testing.T) {
	solver.ResetPrecondTable() // an empty table: the job runs its trials
	t.Cleanup(solver.ResetPrecondTable)
	m := NewManager(NewMemStore(), 1)
	srv := httptest.NewServer(HTTPHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	long, release := holdSlot(t, m)

	cfg := Config{Case: "hairpin", Steps: 2, N: 4, Precond: "auto"}
	resp := postJSON(t, srv.URL+"/api/sessions", cfg)
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit while the slot is held = %d: %s", resp.StatusCode, b)
	}
	var sub SubmitResponse
	decodeJSON(t, resp, &sub)
	var st Status
	if err := json.Unmarshal(getBody(t, srv.URL+"/api/sessions/"+sub.ID, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Step != 0 || st.Precond.Name != "" || st.Error != "" {
		t.Fatalf("status before set-up %+v, want running at step 0 with no precond", st)
	}
	resp, err := http.Post(srv.URL+"/api/sessions/"+sub.ID+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var refusal map[string]string
	decodeJSON(t, resp, &refusal)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(refusal["error"], "not started") {
		t.Fatalf("checkpoint before set-up = %d %q, want 409 not started", resp.StatusCode, refusal["error"])
	}

	release()
	waitJob(t, long)
	if st := long.Status(); st.State != StateCancelled {
		t.Fatalf("long job: %+v, want cancelled", st)
	}
	j, _ := m.Get(sub.ID)
	waitJob(t, j)
	st = j.Status()
	if st.State != StateDone || st.Step != cfg.Steps || st.Precond.Source != "trial" {
		t.Fatalf("job after the slot freed: %+v, want done at step %d after a tournament", st, cfg.Steps)
	}
	got, err := m.Store().Get(j.ID, ArtifactCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if twin.PrecondSelection().Name != st.Precond.Name {
		t.Fatalf("twin runs %q, the job ran %q", twin.PrecondSelection().Name, st.Precond.Name)
	}
	if _, err := twin.StepN(cfg.Steps); err != nil {
		t.Fatal(err)
	}
	want := NewMemStore()
	if err := twin.Deposit(want, "twin"); err != nil {
		t.Fatal(err)
	}
	if b, _ := want.Get("twin", ArtifactCheckpoint); !bytes.Equal(got, b) {
		t.Error("the job's checkpoint.gob differs from that of a session Create built and stepped as far")
	}
}

// TestCancelBeforeSetUp: a job cancelled while it waits for a slot to set up
// in ends cancelled without building a solver: it deposits history.jsonl
// (empty) and result.json, no checkpoint.gob, and carries no error.
func TestCancelBeforeSetUp(t *testing.T) {
	m := NewManager(NewMemStore(), 1)
	srv := httptest.NewServer(HTTPHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	_, release := holdSlot(t, m)

	j, err := m.Submit(testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/sessions/"+j.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %s", resp.Status)
	}
	release()
	waitJob(t, j)

	st := j.Status()
	if st.State != StateCancelled || st.Error != "" || st.Step != 0 || st.Precond.Name != "" {
		t.Fatalf("job cancelled before set-up: %+v, want cancelled at step 0, no error, no precond", st)
	}
	names, err := m.Store().List(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{ArtifactConfig, ArtifactHistory, ArtifactResult}; !slices.Equal(names, want) {
		t.Fatalf("artifacts %v, want %v", names, want)
	}
	if hist, _ := m.Store().Get(j.ID, ArtifactHistory); len(hist) != 0 {
		t.Errorf("history.jsonl holds %d bytes, want none", len(hist))
	}
	var result Result
	if err := json.Unmarshal(getBody(t, srv.URL+"/api/sessions/"+j.ID+"/artifacts/"+ArtifactResult, http.StatusOK), &result); err != nil {
		t.Fatal(err)
	}
	if result.State != StateCancelled || result.Error != "" {
		t.Fatalf("result.json %+v, want cancelled with no error", result)
	}
}

// TestBuildErrorFailsTheJob: a set-up that fails on the runner is a failed
// job whose status names the error, not a submit error. The service's own
// submits cannot reach it (checkServable and Config.validate refuse what
// set-up would), so the record here is launched with a snapshot of another
// mesh, which Restore refuses.
func TestBuildErrorFailsTheJob(t *testing.T) {
	other, err := Create(Config{Case: "channel", N: 4, KX: 3, KY: 2})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := other.Checkpoint()
	other.Close()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := newSession(Config{Case: "channel", N: 4, KX: 2, KY: 2, Steps: 3}, ck)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(NewMemStore(), 1)
	defer m.Close()
	j, err := m.launch(rec, ck, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != StateFailed || !strings.Contains(st.Error, "mismatch") {
		t.Fatalf("job whose set-up failed: %+v, want failed naming the mismatch", st)
	}
	if _, err := m.Store().Get(j.ID, ArtifactResult); err != nil {
		t.Errorf("no result.json: %v", err)
	}
}

// TestManagerCloseReleasesThePoller: Close ends the goroutine of the poller
// yield and closes its pipe, so the process is back at the goroutine count
// it had before NewManager; a second Close is harmless, and a yield after
// Close returns at once.
func TestManagerCloseReleasesThePoller(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewManager(NewMemStore(), 1)
	j, err := m.Submit(testCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	m.Close()
	settleGoroutines(t, base)
	m.Close()
	m.yield()
	settleGoroutines(t, base)
	if _, err := m.pw.Write([]byte{0}); !errors.Is(err, os.ErrClosed) {
		t.Errorf("write to the yield's pipe after Close: %v, want it closed", err)
	}
}

// BenchmarkManagerYield times one yield through the network poller on an
// idle manager: a pipe write, a poll, a read and two goroutine switches.
// minPollGap is sized from it.
func BenchmarkManagerYield(b *testing.B) {
	m := NewManager(NewMemStore(), 1)
	defer m.Close()
	for b.Loop() {
		m.polled.Store(-int64(minPollGap)) // every yield polls
		m.yield()
	}
}
