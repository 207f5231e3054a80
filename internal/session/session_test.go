package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ns"
	"repro/internal/parrun"
)

// testCfg is a small fast case for lifecycle tests.
func testCfg(steps int) Config {
	return Config{
		Case: "shearlayer", Steps: steps, Nel: 4, N: 5,
		Alpha: 0.2,
	}
}

// historyJSONL renders a session's per-step records — the bitwise
// comparison surface (StepRecord has no wall-clock fields).
func historyJSONL(t *testing.T, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.History().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// soloRun steps a fresh session to completion and returns its history
// JSONL, final u-velocity, and final step stats.
func soloRun(t *testing.T, cfg Config) ([]byte, []float64, ns.StepStats) {
	t.Helper()
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	last, err := s.StepN(cfg.Steps)
	if err != nil {
		t.Fatal(err)
	}
	u := append([]float64(nil), s.Solver().U[0]...)
	return historyJSONL(t, s), u, last
}

func TestSessionLifecycle(t *testing.T) {
	cfg := testCfg(8)
	wantHist, wantU, wantLast := soloRun(t, cfg)

	// Step half, checkpoint, step the rest: same history as one shot.
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.StepN(4); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	last, err := s.StepN(4)
	if err != nil {
		t.Fatal(err)
	}
	if last != wantLast {
		t.Fatalf("split-run last stats differ:\n got %+v\nwant %+v", last, wantLast)
	}
	if !bytes.Equal(historyJSONL(t, s), wantHist) {
		t.Fatal("split-run history differs from one-shot run")
	}

	// Resume the checkpoint in a fresh session: identical continuation.
	r, err := Resume(cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Step(); got != 4 {
		t.Fatalf("resumed at step %d, want 4", got)
	}
	rLast, err := r.StepN(4)
	if err != nil {
		t.Fatal(err)
	}
	if rLast != wantLast {
		t.Fatalf("resumed last stats differ:\n got %+v\nwant %+v", rLast, wantLast)
	}
	for i, v := range r.Solver().U[0] {
		if v != wantU[i] {
			t.Fatalf("resumed u[%d] = %v, want %v", i, v, wantU[i])
		}
	}

	// Cancel stops at the next boundary; the session stays usable.
	c, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.StepN(2); err != nil {
		t.Fatal(err)
	}
	c.Cancel()
	if _, err := c.StepN(2); !errors.Is(err, ErrCancelled) {
		t.Fatalf("StepN after Cancel: %v, want ErrCancelled", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after Cancel: %v", err)
	}

	// Close is idempotent and fences stepping.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StepN(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("StepN after Close: %v, want ErrClosed", err)
	}
	if _, err := c.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v, want ErrClosed", err)
	}
}

func TestSessionOnStepSeesEveryStep(t *testing.T) {
	cfg := testCfg(5)
	var steps []int
	cfg.OnStep = func(st ns.StepStats) { steps = append(steps, st.Step) }
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.StepN(5); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 5 {
		t.Fatalf("OnStep fired %d times, want 5", len(steps))
	}
	for i, st := range steps {
		if st != i+1 {
			t.Fatalf("OnStep order %v", steps)
		}
	}
}

func TestCreateRejectsUnknownCase(t *testing.T) {
	if _, err := Create(Config{Case: "vortexstreet"}); err == nil {
		t.Fatal("unknown case accepted")
	}
}

// TestManagerConcurrentBitwiseIdentical is the PR's acceptance test: two
// sessions multiplexed by one manager over a shared scheduler produce
// exactly — bitwise — the per-step stats and final fields each produces
// running alone.
func TestManagerConcurrentBitwiseIdentical(t *testing.T) {
	cfgA := testCfg(8)
	cfgA.BatchSteps = 2
	cfgB := Config{Case: "channel", Steps: 8, N: 5, KX: 3, KY: 2,
		Alpha: 0.2, BatchSteps: 3}

	histA, uA, lastA := soloRun(t, cfgA)
	histB, uB, lastB := soloRun(t, cfgB)

	m := NewManager(NewMemStore(), 2)
	jobA, err := m.Submit(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := m.Submit(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jobA)
	waitJob(t, jobB)
	m.Close()

	check := func(name string, j *Job, hist []byte, u []float64, last ns.StepStats) {
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("%s: state %s (err %q)", name, st.State, st.Error)
		}
		if st.Step != last.Step || st.Time != last.Time || st.CFL != last.CFL ||
			st.PressureIters != last.PressureIters ||
			st.PressureResFinal != last.PressureResFinal {
			t.Fatalf("%s: final status %+v differs from solo stats %+v", name, st, last)
		}
		stored, err := m.Store().Get(j.ID, ArtifactHistory)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, hist) {
			t.Fatalf("%s: concurrent per-step history differs from solo run", name)
		}
		got := j.Session().Solver().U[0]
		for i := range got {
			if got[i] != u[i] {
				t.Fatalf("%s: u[%d] = %v, want %v (not bitwise identical)", name, i, got[i], u[i])
			}
		}
	}
	check("A", jobA, histA, uA, lastA)
	check("B", jobB, histB, uB, lastB)
}

// A panic inside one session's StepN must stay that session's problem: it
// ends failed with the panic value in its status and the stack in a panic.txt
// artifact beside result.json, its scheduler slot comes back, and the job
// stepping concurrently finishes done with bitwise the fields of a solo run.
// (Before the recover in stepBatch this test took the whole process down.)
func TestManagerIsolatesPanickingSession(t *testing.T) {
	good := testCfg(8)
	hist, u, _ := soloRun(t, good)

	bad := Config{Case: "channel", Steps: 8, N: 5, KX: 3, KY: 2, Alpha: 0.2}
	bad.OnStep = func(st ns.StepStats) {
		if st.Step == 3 {
			panic("poisoned step")
		}
	}
	m := NewManager(NewMemStore(), 2)
	jobBad, err := m.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	jobGood, err := m.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jobBad)
	waitJob(t, jobGood)
	m.Close()

	st := jobBad.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "poisoned step") {
		t.Fatalf("panicking job: state %s, error %q; want failed with the panic value", st.State, st.Error)
	}
	report, err := m.Store().Get(jobBad.ID, ArtifactPanic)
	if err != nil {
		t.Fatalf("panic artifact: %v", err)
	}
	if !bytes.Contains(report, []byte("poisoned step")) || !bytes.Contains(report, []byte("StepN")) {
		t.Errorf("panic artifact carries no value or no stack:\n%s", report)
	}
	if _, err := m.Store().Get(jobBad.ID, ArtifactResult); err != nil {
		t.Errorf("panicking job left no result.json: %v", err)
	}
	if n := len(m.slots); n != 0 {
		t.Errorf("%d scheduler slots still held after every job finished", n)
	}

	if got := jobGood.Status(); got.State != StateDone {
		t.Fatalf("neighbour of the panicking job: state %s (err %q)", got.State, got.Error)
	}
	stored, err := m.Store().Get(jobGood.ID, ArtifactHistory)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, hist) {
		t.Error("neighbour's per-step history differs from its solo run")
	}
	for i, v := range jobGood.Session().Solver().U[0] {
		if v != u[i] {
			t.Fatalf("neighbour's u[%d] = %v, want %v (not bitwise identical)", i, v, u[i])
		}
	}
}

func TestManagerResumeAcrossRestart(t *testing.T) {
	cfg := testCfg(10)
	wantHist, wantU, wantLast := soloRun(t, cfg)

	// First manager life: run 4 of the 10 steps, then "crash" (close).
	store := NewMemStore()
	m1 := NewManager(store, 1)
	short := cfg
	short.Steps = 4
	j1, err := m1.Submit(short)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	m1.Close()

	// Second life: a fresh manager resumes from the stored artifacts and
	// raises the target to the full 10 steps.
	m2 := NewManager(store, 1)
	j2, err := m2.ResumeJob(j1.ID, 10)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	defer m2.Close()

	st := j2.Status()
	if st.State != StateDone || st.ResumedFrom != j1.ID {
		t.Fatalf("resumed job status %+v", st)
	}
	if st.Step != wantLast.Step || st.Time != wantLast.Time || st.CFL != wantLast.CFL {
		t.Fatalf("resumed final %+v, want %+v", st, wantLast)
	}
	got := j2.Session().Solver().U[0]
	for i := range got {
		if got[i] != wantU[i] {
			t.Fatalf("resumed u[%d] = %v, want %v", i, got[i], wantU[i])
		}
	}
	// The resumed job's history holds steps 5..10; it must match the tail
	// of the solo run's record stream.
	resumedHist, err := store.Get(j2.ID, ArtifactHistory)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(wantHist, resumedHist) {
		t.Fatal("resumed history is not the solo run's tail")
	}

	// Resuming a finished job without extending the target is an error.
	if _, err := m2.ResumeJob(j2.ID, 10); err == nil {
		t.Fatal("resume past the final step accepted")
	}
}

func TestManagerCancelAndFailurePaths(t *testing.T) {
	m := NewManager(NewMemStore(), 1)
	defer m.Close()

	// A long job cancelled mid-flight deposits a resumable checkpoint.
	cfg := testCfg(10_000)
	j, err := m.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j.Status().Step == 0 {
		time.Sleep(time.Millisecond)
	}
	j.Session().Cancel()
	waitJob(t, j)
	st := j.Status()
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if st.Step == 0 || st.Step >= cfg.Steps {
		t.Fatalf("cancelled at step %d", st.Step)
	}
	if _, err := m.Store().Get(j.ID, ArtifactCheckpoint); err != nil {
		t.Fatalf("cancelled job checkpoint: %v", err)
	}
	r, err := m.ResumeJob(j.ID, st.Step+2)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, r)
	if got := r.Status(); got.State != StateDone || got.Step != st.Step+2 {
		t.Fatalf("resumed cancelled job: %+v", got)
	}

	if _, err := m.Submit(Config{Case: "shearlayer"}); err == nil {
		t.Fatal("Submit with 0 steps accepted")
	}
	if _, err := m.ResumeJob("nope", 5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ResumeJob(nope): %v, want ErrNotFound", err)
	}
}

// ckptStore records the step of every checkpoint.gob it stores and refuses
// the first fail of them.
type ckptStore struct {
	Store
	mu    sync.Mutex
	fail  int
	steps []int
}

func (s *ckptStore) Put(session, name string, data []byte) error {
	if name != ArtifactCheckpoint {
		return s.Store.Put(session, name, data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail > 0 {
		s.fail--
		return errors.New("disk full")
	}
	ck, err := parrun.ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		return err
	}
	s.steps = append(s.steps, ck.Step())
	return s.Store.Put(session, name, data)
}

// checkpoint_every deposits a snapshot every that-many steps, and the final
// one at the end. A deposit the store refuses is retried after the next
// batch; the job still finishes, and its status and result.json name the
// first failure.
func TestManagerCheckpointEvery(t *testing.T) {
	cfg := testCfg(7)
	cfg.CheckpointEvery = 2
	run := func(fail int) (*ckptStore, Status, Status) {
		store := &ckptStore{Store: NewMemStore(), fail: fail}
		m := NewManager(store, 1)
		defer m.Close()
		j, err := m.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		b, err := store.Get(j.ID, ArtifactResult)
		if err != nil {
			t.Fatal(err)
		}
		var res Status
		if err := json.Unmarshal(b, &res); err != nil {
			t.Fatal(err)
		}
		return store, j.Status(), res
	}

	store, st, res := run(0)
	if !reflect.DeepEqual(store.steps, []int{2, 4, 6, 7}) {
		t.Errorf("healthy store: checkpoints at steps %v, want [2 4 6 7]", store.steps)
	}
	if st.State != StateDone || st.Error != "" || res.Error != "" {
		t.Errorf("healthy store: state %s, status error %q, result error %q", st.State, st.Error, res.Error)
	}

	store, st, res = run(2)
	if !reflect.DeepEqual(store.steps, []int{4, 6, 7}) {
		t.Errorf("first two deposits refused: checkpoints at steps %v, want [4 6 7]", store.steps)
	}
	const want = "checkpoint artifact at step 2: disk full"
	if st.State != StateDone || st.Step != cfg.Steps || st.Error != want {
		t.Errorf("first two deposits refused: state %s at step %d, error %q; want done at %d with %q",
			st.State, st.Step, st.Error, cfg.Steps, want)
	}
	if res.Error != want {
		t.Errorf("first two deposits refused: result.json error %q, want %q", res.Error, want)
	}
}

// TestCheckpointScheduleIsMultiples: a job's snapshots fall at the multiples
// of checkpoint_every and at the end, whatever its batch size and wherever
// it started: a fresh job in batches of 3 steps and a job resumed at step 7
// both deposit at steps 10 and 20.
func TestCheckpointScheduleIsMultiples(t *testing.T) {
	cfg := testCfg(20)
	cfg.CheckpointEvery = 10
	deposits := func(store *ckptStore, start func(m *Manager) (*Job, error)) []int {
		t.Helper()
		m := NewManager(store, 1)
		defer m.Close()
		j, err := start(m)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		if st := j.Status(); st.State != StateDone || st.Error != "" {
			t.Fatalf("job %s: state %s, error %q", j.ID, st.State, st.Error)
		}
		return store.steps
	}

	batched := cfg
	batched.BatchSteps = 3
	got := deposits(&ckptStore{Store: NewMemStore()}, func(m *Manager) (*Job, error) { return m.Submit(batched) })
	if !slices.Equal(got, []int{10, 20}) {
		t.Errorf("batch_steps 3: checkpoints at steps %v, want [10 20]", got)
	}

	// A stored session at step 7 whose config asks for 20 steps.
	store := &ckptStore{Store: NewMemStore()}
	first := cfg
	first.Steps = 7
	sess, err := Create(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.StepN(7); err != nil {
		t.Fatal(err)
	}
	err = sess.Deposit(store, "at7")
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("at7", ArtifactConfig, raw); err != nil {
		t.Fatal(err)
	}
	store.steps = nil
	got = deposits(store, func(m *Manager) (*Job, error) { return m.ResumeJob("at7", 0) })
	if !slices.Equal(got, []int{10, 20}) {
		t.Errorf("resumed at step 7: checkpoints at steps %v, want [10 20]", got)
	}
}

// TestManagerCloseLeavesNoGoroutines: after its jobs finish and it closes,
// a manager leaves the process at its baseline goroutine count — no job
// runner survives.
func TestManagerCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewManager(NewMemStore(), 2)
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(testCfg(3))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitJob(t, j)
	}
	m.Close()
	settleGoroutines(t, base)
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID, j.Status())
	}
}

// settleGoroutines retries until the goroutine count drops back to at most
// want (the scheduler needs a moment to retire finished runners).
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: have %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// A client that fetches result.json the instant a job's status leaves
// "running" must find it: finish deposits the result before it publishes the
// state. 50 small jobs on mem://, one busy poller each.
func TestResultStoredBeforeStatePublished(t *testing.T) {
	store, err := OpenStore("mem://")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(store, 2)
	defer m.Close()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		j, err := m.Submit(Config{Case: "channel", Steps: 1, N: 4, KX: 2, KY: 2, Alpha: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j.Status().State == StateRunning {
				runtime.Gosched()
			}
			b, err := store.Get(j.ID, ArtifactResult)
			if err != nil {
				t.Errorf("job %s left running but result.json is not stored: %v", j.ID, err)
				return
			}
			var st Status
			if err := json.Unmarshal(b, &st); err != nil || st.State != StateDone {
				t.Errorf("job %s: result.json %q (err %v), want state done", j.ID, b, err)
			}
		}()
	}
	wg.Wait()
}

// distCfg is a small distributed channel session on a degraded machine, the
// pressure solve capped so the race tier can repeat it: the lifecycle
// contract is bitwise whether or not a solve converged.
func distCfg(steps int) Config {
	return Config{
		Case: "channel", Steps: steps, N: 4, Alpha: 0.3, PIters: 25, Ranks: 4,
		Faults: &fault.Plan{
			Seed:       13,
			Stragglers: []fault.Straggler{{Rank: 1, Factor: 3}},
			Drops:      []fault.Drop{{From: -1, To: -1, Prob: 0.02}},
		},
	}
}

// TestDistributedSessionLifecycle: the session contract on the simulated
// machine. Checkpoint∘Resume is the identity at a seeded random step count —
// fields, statistics, modelled clock, traffic and fault draws all continue
// bitwise; Cancel lands between two steps and leaves a checkpointable
// session; Close is idempotent and fences stepping.
func TestDistributedSessionLifecycle(t *testing.T) {
	const steps = 5
	solo, err := Create(distCfg(steps))
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	wantLast, err := solo.StepN(steps)
	if err != nil {
		t.Fatal(err)
	}
	want := solo.Distributed()
	if want == nil || want.P != 4 || want.Steps != steps || want.Drops == 0 {
		t.Fatalf("solo run: %+v", want)
	}
	if p := solo.Progress().Snapshot(); p.Ranks != 4 || p.Step != steps || p.VirtualSeconds != want.VirtualSeconds {
		t.Fatalf("progress %+v, want ranks 4, step %d, virtual %g", p, steps, want.VirtualSeconds)
	}

	k := 1 + rand.New(rand.NewSource(18)).Intn(steps-1)
	s, err := Create(distCfg(steps))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.StepN(k); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if ck, err = parrun.ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(distCfg(steps), ck)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Step() != k {
		t.Fatalf("resumed at step %d, want %d", r.Step(), k)
	}
	last, err := r.StepN(steps - k)
	if err != nil {
		t.Fatal(err)
	}
	if last != wantLast {
		t.Fatalf("resumed at step %d, last stats differ:\n got %+v\nwant %+v", k, last, wantLast)
	}
	got := r.Distributed()
	if !reflect.DeepEqual(got.U, want.U) || !reflect.DeepEqual(got.Pressure, want.Pressure) {
		t.Errorf("fields differ after Checkpoint∘Resume at step %d", k)
	}
	if got.VirtualSeconds != want.VirtualSeconds || got.TotalMsgs != want.TotalMsgs ||
		got.TotalBytes != want.TotalBytes || got.Drops != want.Drops || got.FaultStallSec != want.FaultStallSec {
		t.Errorf("machine state differs after Checkpoint∘Resume at step %d:\n got virtual %g, %d msgs, %d drops\nwant virtual %g, %d msgs, %d drops",
			k, got.VirtualSeconds, got.TotalMsgs, got.Drops, want.VirtualSeconds, want.TotalMsgs, want.Drops)
	}
	// A snapshot only restores onto its own machine.
	serial := distCfg(steps)
	serial.Ranks, serial.Faults = 0, nil
	if _, err := Resume(serial, ck); err == nil {
		t.Error("a 4-rank snapshot resumed into a shared-memory session")
	}

	s.Cancel()
	if _, err := s.StepN(1); !errors.Is(err, ErrCancelled) {
		t.Fatalf("StepN after Cancel: %v, want ErrCancelled", err)
	}
	if ck, err := s.Checkpoint(); err != nil || ck.Step() != k {
		t.Fatalf("Checkpoint after Cancel: step %v, err %v; want step %d", ck, err, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepN(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("StepN after Close: %v, want ErrClosed", err)
	}
}

// TestDistributedStepNIsOneBatch: the simulated machine runs a whole StepN
// as one parrun batch and hands each step to progress and OnStep from rank 0
// mid-batch. A 4-rank session stepped StepN(6) once ends with the fields,
// history JSONL and OnStep sequence, bit for bit, of one stepped StepN(1)
// six times.
func TestDistributedStepNIsOneBatch(t *testing.T) {
	run := func(batches ...int) (*parrun.NSResult, []byte, []ns.StepStats) {
		cfg := distCfg(6)
		var seen []ns.StepStats
		cfg.OnStep = func(st ns.StepStats) { seen = append(seen, st) }
		s, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, n := range batches {
			if _, err := s.StepN(n); err != nil {
				t.Fatal(err)
			}
		}
		if p := s.Progress().Snapshot(); p.Step != 6 || p.VirtualSeconds != s.Distributed().VirtualSeconds {
			t.Fatalf("batches %v: progress %+v, want step 6 at the max rank clock", batches, p)
		}
		return s.Distributed(), historyJSONL(t, s), seen
	}
	one, oneHist, oneSeen := run(6)
	each, eachHist, eachSeen := run(1, 1, 1, 1, 1, 1)
	bits := func(v []float64) []uint64 {
		b := make([]uint64, len(v))
		for i, x := range v {
			b[i] = math.Float64bits(x)
		}
		return b
	}
	for c := range one.U {
		if !slices.Equal(bits(one.U[c]), bits(each.U[c])) {
			t.Errorf("velocity component %d differs between one batch and six", c)
		}
	}
	if !slices.Equal(bits(one.Pressure), bits(each.Pressure)) {
		t.Error("pressure differs between one batch and six")
	}
	if !bytes.Equal(oneHist, eachHist) {
		t.Error("history JSONL differs between one batch and six")
	}
	if len(oneSeen) != 6 || !slices.Equal(oneSeen, eachSeen) {
		t.Errorf("OnStep saw %d steps in one batch, %d in six, or they differ", len(oneSeen), len(eachSeen))
	}
	if one.VirtualSeconds != each.VirtualSeconds || one.TotalMsgs != each.TotalMsgs {
		t.Errorf("machine state differs: virtual %g vs %g, %d vs %d messages",
			one.VirtualSeconds, each.VirtualSeconds, one.TotalMsgs, each.TotalMsgs)
	}
}

// TestProjectionLReachesBothMachines: projection_l (semflow -L) is the
// projection basis size of every case on both machines — it used to be
// honoured by two cases in shared memory and by none distributed.
func TestProjectionLReachesBothMachines(t *testing.T) {
	for _, name := range []string{"shearlayer", "channel", "convection", "hairpin"} {
		for _, ranks := range []int{0, 3} {
			for l, want := range map[int]int{0: 20, 5: 5, -1: 0} {
				s, err := Create(Config{Case: name, N: 3, Nel: 2, ProjectionL: l, Ranks: ranks})
				if err != nil {
					t.Fatalf("%s ranks=%d: %v", name, ranks, err)
				}
				if got := s.Solver().Cfg.ProjectionL; got != want {
					t.Errorf("%s ranks=%d projection_l=%d: ns.Config.ProjectionL = %d, want %d", name, ranks, l, got, want)
				}
				s.Close()
			}
		}
	}
	if _, err := Create(Config{Case: "channel", Faults: &fault.Plan{Seed: 1}}); err == nil {
		t.Error("a fault plan without ranks was accepted")
	}
}

// TestDepositLoadResumesBothMachines: a snapshot deposited at step 2 of a
// 4-step channel run into a filesystem store, loaded back and resumed for the
// last 2 steps, continues the uninterrupted run bitwise — fields and per-step
// history — in shared memory and on 3 simulated ranks alike.
func TestDepositLoadResumesBothMachines(t *testing.T) {
	store, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(store, "nothing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LoadCheckpoint of an id with no snapshot: %v, want ErrNotFound", err)
	}
	// fields returns the run's velocity and pressure on either machine.
	fields := func(s *Session) [][]float64 {
		if res := s.Distributed(); res != nil {
			return [][]float64{res.U[0], res.U[1], res.Pressure}
		}
		return [][]float64{s.Solver().U[0], s.Solver().U[1], s.Solver().P}
	}
	for _, ranks := range []int{0, 3} {
		cfg := Config{Case: "channel", Steps: 4, N: 5, KX: 3, KY: 2, Alpha: 0.2, Ranks: ranks}
		full, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer full.Close()
		if _, err := full.StepN(2); err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("channel-p%d", ranks)
		if err := full.Deposit(store, id); err != nil {
			t.Fatal(err)
		}
		if _, err := full.StepN(2); err != nil {
			t.Fatal(err)
		}

		ck, err := LoadCheckpoint(store, id)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Resume(cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.StepN(2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fields(r), fields(full)) {
			t.Errorf("ranks=%d: resumed fields differ from the uninterrupted run's", ranks)
		}
		want := bytes.SplitAfter(historyJSONL(t, full), []byte("\n"))
		got := bytes.SplitAfter(historyJSONL(t, r), []byte("\n"))
		if len(want) != 5 || !reflect.DeepEqual(got, want[2:]) {
			t.Errorf("ranks=%d: resumed history is not steps 3 and 4 of the uninterrupted run:\n got %q\nwant %q",
				ranks, got, want[2:])
		}
	}
}

// TestResumeRefusesAReachedTarget: a step-k snapshot resumes toward a target
// past k, or with none (Steps 0), and is refused at or below k on either
// machine — the one check semflow -resume and Manager.ResumeJob both rely on.
func TestResumeRefusesAReachedTarget(t *testing.T) {
	const k = 2
	for _, ranks := range []int{0, 3} {
		cfg := Config{Case: "channel", Steps: k, N: 4, KX: 3, KY: 2, Ranks: ranks}
		s, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.StepN(k); err != nil {
			t.Fatal(err)
		}
		ck, err := s.Checkpoint()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		for steps, ok := range map[int]bool{0: true, k + 1: true, k: false, k - 1: false} {
			cfg.Steps = steps
			r, err := Resume(cfg, ck)
			if (err == nil) != ok {
				t.Errorf("ranks=%d: Resume of a step-%d snapshot with steps %d: err %v, want ok %v",
					ranks, k, steps, err, ok)
			}
			if r != nil {
				r.Close()
			}
		}
	}
}
