package session

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/solver"
)

// heapMB is the live heap after two collections (the second empties what
// the first left in sync.Pool victim caches), in MB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// TestFinishedJobsReleaseTheirSolvers: a finished job keeps its record, not
// its stepper, so the service's heap grows by well under 0.1 MB per job it
// has served (a closed channel session at N = 5 held ~0.4 MB while it kept
// its solver), and a closed 3-rank session lets go of its rank solvers and
// network too.
func TestFinishedJobsReleaseTheirSolvers(t *testing.T) {
	const jobs, maxPerJob = 10, 0.1 // MB
	store, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(store, 1)
	defer m.Close()
	cfg := Config{Case: "channel", Steps: 3, N: 5}
	run := func() {
		j, err := m.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s: %+v", j.ID, st)
		}
	}
	run() // the process-wide set-up tables the first channel fills
	before := heapMB()
	for i := 0; i < jobs; i++ {
		run()
	}
	perJob := (heapMB() - before) / jobs
	t.Logf("live heap grows by %.3f MB per finished job", perJob)
	if perJob > maxPerJob {
		t.Errorf("the live heap grows by %.3f MB per finished job, want at most %.2f", perJob, maxPerJob)
	}

	dist := Config{Case: "channel", Steps: 3, N: 5, Ranks: 3}
	stepClosed := func() *Session {
		s, err := Create(dist)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.StepN(dist.Steps); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return s
	}
	stepClosed()
	before = heapMB()
	s := stepClosed()
	held := heapMB() - before
	runtime.KeepAlive(s)
	t.Logf("a closed 3-rank session holds %.3f MB", held)
	if held > maxPerJob {
		t.Errorf("a closed 3-rank session holds %.3f MB, want at most %.2f", held, maxPerJob)
	}
}

// TestClosedSessionKeepsItsRecord: Close releases the stepping machine and
// keeps what a finished run answers for, on both machines. The step count,
// history, registry, progress and Handler routes read after Close as they
// did before; Solver and Distributed are nil; StepN, Checkpoint and Deposit
// fail with ErrClosed; a Close issued mid-batch returns once the batch is
// done. A managed auto job's status, polled while it steps and finishes,
// carries the selection its tournament made, trials included.
func TestClosedSessionKeepsItsRecord(t *testing.T) {
	for _, ranks := range []int{0, 3} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			solver.ResetPrecondTable() // an empty table: auto runs its trials
			t.Cleanup(solver.ResetPrecondTable)
			cfg := Config{Case: "channel", Steps: 4, N: 4, KX: 3, KY: 2, Precond: "auto", Ranks: ranks, BatchSteps: 2}
			closedJobKeepsStatus(t, cfg)
			closedSessionAnswers(t, cfg)
			closeWaitsForTheBatch(t, cfg)
		})
	}
}

// closedJobKeepsStatus runs cfg as a managed job while a goroutine polls its
// status, step and solver, and checks the finished job's status.
func closedJobKeepsStatus(t *testing.T, cfg Config) {
	t.Helper()
	sess, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := sess.Solver().PrecondSelection()
	if want.Source != "trial" || len(want.Trials) == 0 {
		t.Fatalf("selection %+v, want a trial tournament", want)
	}
	m := NewManager(NewMemStore(), 1)
	defer m.Close()
	j, err := m.launch(sess, nil, "") // launch, not Submit: the service refuses ranks
	if err != nil {
		t.Fatal(err)
	}
	polled := make(chan error, 1)
	go func() {
		for {
			st := j.Status()
			_ = j.Session().Solver() // raced against Close clearing it
			if j.Session().Step() < st.Step {
				polled <- fmt.Errorf("step count behind the status's step %d", st.Step)
				return
			}
			if !reflect.DeepEqual(st.Precond, want) {
				polled <- fmt.Errorf("status precond %+v, want %+v", st.Precond, want)
				return
			}
			if st.State != StateRunning {
				polled <- nil
				return
			}
			runtime.Gosched()
		}
	}()
	waitJob(t, j)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != StateDone || st.Step != cfg.Steps || !reflect.DeepEqual(st.Precond, want) {
		t.Fatalf("finished job: %+v, want done at step %d with precond %+v", st, cfg.Steps, want)
	}
	if sess.Step() != cfg.Steps || sess.Solver() != nil || sess.Distributed() != nil {
		t.Fatalf("finished job's session: step %d, holds a solver %t, a distributed run %t; want step %d and neither",
			sess.Step(), sess.Solver() != nil, sess.Distributed() != nil, cfg.Steps)
	}
}

// closedSessionAnswers steps a session through cfg, then checks what each
// accessor answers after Close against what it answered before.
func closedSessionAnswers(t *testing.T, cfg Config) {
	t.Helper()
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepN(cfg.Steps); err != nil {
		t.Fatal(err)
	}
	type record struct {
		step     int
		sel      solver.PrecondSelection
		history  []byte
		registry instrument.Report
		progress ProgressSnapshot
		routes   map[string]string
	}
	read := func() record {
		r := record{
			step: s.Step(), sel: s.PrecondSelection(), history: historyJSONL(t, s),
			registry: s.Registry().Report(), progress: s.Progress().Snapshot(),
			routes: map[string]string{},
		}
		for _, route := range []string{"/metrics", "/progress", "/stats"} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", route, nil))
			r.routes[route] = fmt.Sprintf("%d %s", rec.Code, rec.Body)
		}
		return r
	}
	before := read()
	if before.step != cfg.Steps || s.Solver() == nil || (s.Distributed() != nil) != (cfg.Ranks > 0) {
		t.Fatalf("open session: step %d, holds a solver %t, a distributed run %t", before.step, s.Solver() != nil, s.Distributed() != nil)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after := read(); !reflect.DeepEqual(after, before) {
		t.Errorf("the closed session answers differently:\n got %+v\nwant %+v", after, before)
	}
	if s.Solver() != nil || s.Distributed() != nil {
		t.Errorf("closed session still holds a solver %t, a distributed run %t", s.Solver() != nil, s.Distributed() != nil)
	}
	if _, err := s.StepN(1); !errors.Is(err, ErrClosed) {
		t.Errorf("StepN after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after Close: %v, want ErrClosed", err)
	}
	if err := s.Deposit(NewMemStore(), "closed"); !errors.Is(err, ErrClosed) {
		t.Errorf("Deposit after Close: %v, want ErrClosed", err)
	}
}

// closeWaitsForTheBatch issues Close while another goroutine is inside a
// two-step StepN and checks that it returns only after the batch.
func closeWaitsForTheBatch(t *testing.T, cfg Config) {
	t.Helper()
	inside, release := make(chan struct{}), make(chan struct{})
	cfg.OnStep = func(st ns.StepStats) {
		if st.Step == 1 {
			close(inside)
			<-release
		}
	}
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepped := make(chan error, 1)
	go func() {
		_, err := s.StepN(2)
		stepped <- err
	}()
	<-inside
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned in the middle of a batch")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-stepped; err != nil {
		t.Fatalf("the batch Close waited for: %v", err)
	}
	<-closed
	if got := s.Step(); got != 2 {
		t.Fatalf("closed after the batch at step %d, want 2", got)
	}
	var buf bytes.Buffer
	if err := s.History().WriteJSONL(&buf); err != nil || bytes.Count(buf.Bytes(), []byte("\n")) != 2 {
		t.Fatalf("history after the batch: %d records (err %v), want 2", bytes.Count(buf.Bytes(), []byte("\n")), err)
	}
}
