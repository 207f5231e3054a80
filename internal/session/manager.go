package session

// manager.go multiplexes many concurrent sessions over a bounded number of
// stepping slots. Only MaxActive sessions may be *stepping* at any instant,
// each on its job's goroutine: the scheduler is a counting semaphore that
// each job acquires for one batch of steps (Config.BatchSteps) and then
// releases, so long jobs cannot starve short ones. When a job reaches its
// step target, is cancelled, or fails, the manager deposits its artifacts
// in the Store (history.jsonl, checkpoint.gob, trace.json, result.json) and
// closes the session.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
)

// Artifact names deposited by the manager.
const (
	ArtifactConfig     = "config.json"
	ArtifactHistory    = "history.jsonl"
	ArtifactCheckpoint = "checkpoint.gob"
	ArtifactTrace      = "trace.json"
	ArtifactResult     = "result.json"
	ArtifactPanic      = "panic.txt" // only for a session that panicked: value and stack
)

// State is a job's lifecycle position.
type State string

const (
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed"
)

// Status is one job's externally visible state (the HTTP status payload).
type Status struct {
	ID          string  `json:"id"`
	State       State   `json:"state"`
	Case        string  `json:"case"`
	Step        int     `json:"step"`
	TotalSteps  int     `json:"total_steps"`
	Time        float64 `json:"time"`
	Error       string  `json:"error,omitempty"`
	ResumedFrom string  `json:"resumed_from,omitempty"`

	// Last completed step's headline stats.
	CFL              float64 `json:"cfl,omitempty"`
	PressureIters    int     `json:"pressure_iters,omitempty"`
	PressureResFinal float64 `json:"pressure_res_final,omitempty"`
}

// Result is the result.json artifact: the final Status.
type Result = Status

// Job is one managed session run.
type Job struct {
	ID   string
	Cfg  Config
	sess *Session

	resumedFrom string

	mu    sync.Mutex
	state State
	err   string

	done chan struct{} // closed when the runner has deposited every artifact
}

// Status snapshots the job: its lifecycle state, and the position and last
// step's headline stats from the session's progress, which StepN updates.
func (j *Job) Status() Status {
	j.mu.Lock()
	state, errMsg := j.state, j.err
	j.mu.Unlock()
	p := j.sess.prog.Snapshot()
	return Status{
		ID: j.ID, State: state, Case: j.Cfg.Case,
		Step: p.Step, TotalSteps: j.Cfg.Steps, Time: p.Time,
		Error: errMsg, ResumedFrom: j.resumedFrom,
		CFL: p.CFL, PressureIters: p.PressureIters, PressureResFinal: p.PressureRes,
	}
}

// Session exposes the job's session (for per-job /metrics, /progress,
// /history). Valid after the job finishes too — a closed session's
// instruments stay readable.
func (j *Job) Session() *Session { return j.sess }

// Manager owns the job table, the scheduler, and the artifact store.
type Manager struct {
	store Store
	slots chan struct{} // scheduler: one token per concurrently stepping session

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int

	wg sync.WaitGroup
}

// NewManager builds a manager multiplexing jobs over at most maxActive
// concurrently stepping sessions (minimum 1).
func NewManager(store Store, maxActive int) *Manager {
	if maxActive < 1 {
		maxActive = 1
	}
	return &Manager{
		store: store,
		slots: make(chan struct{}, maxActive),
		jobs:  map[string]*Job{},
	}
}

// checkServable refuses what the manager cannot run safely yet: nothing
// bounds P. (A rank's panic leaves comm.Network.Run on the stepping
// goroutine, so it reaches stepBatch's recover.)
func checkServable(cfg Config) error {
	if cfg.Ranks != 0 || cfg.Faults != nil {
		return errors.New("session: the job service runs shared-memory sessions only (ranks, faults: use semflow -ranks)")
	}
	return checkBounds(cfg)
}

// checkBounds refuses a job larger than one tenant of the service may ask
// for, an order below 3 or no steps. Zero is a field's default, and an
// omitted n is checked as the order the job runs; negative sizes and the
// filter range are every session's checks (Config.validate).
func checkBounds(cfg Config) error {
	run := cfg
	run.applyDefaults()
	if run.N < 3 || run.Steps < 1 {
		return fmt.Errorf("session: n = %d, steps = %d: a job runs n ≥ 3 for steps ≥ 1", run.N, run.Steps)
	}
	for _, b := range []struct {
		name  string
		v, hi int
	}{
		{"n", run.N, 16}, {"nel", run.Nel, 64}, {"kx", run.KX, 64}, {"ky", run.KY, 64},
		{"steps", run.Steps, 100_000}, {"batch_steps", run.BatchSteps, 10_000},
		{"piters", run.PIters, 10_000}, {"projection_l", run.ProjectionL, 64},
		{"checkpoint_every", run.CheckpointEvery, run.Steps},
	} {
		if b.v > b.hi {
			return fmt.Errorf("session: %s = %d, want at most %d", b.name, b.v, b.hi)
		}
	}
	return nil
}

// Submit creates a session for cfg and schedules it for cfg.Steps steps.
func (m *Manager) Submit(cfg Config) (*Job, error) {
	if err := checkServable(cfg); err != nil {
		return nil, err
	}
	sess, err := Create(cfg)
	if err != nil {
		return nil, err
	}
	return m.launch(sess, "")
}

// ResumeJob builds a new job continuing a stored session: its config.json
// fixes the case, its checkpoint.gob fixes the state. steps, when > 0,
// replaces the step target (Resume refuses one the checkpoint has reached);
// 0 keeps the original target. Works across manager (and process)
// restarts — both artifacts live in the store.
func (m *Manager) ResumeJob(fromID string, steps int) (*Job, error) {
	rawCfg, err := m.store.Get(fromID, ArtifactConfig)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(rawCfg, &cfg); err != nil {
		return nil, fmt.Errorf("session: resume %s: config: %w", fromID, err)
	}
	if steps > 0 {
		cfg.Steps = steps
	}
	if err := checkServable(cfg); err != nil {
		return nil, err
	}
	ck, err := LoadCheckpoint(m.store, fromID)
	if err != nil {
		return nil, err
	}
	sess, err := Resume(cfg, ck)
	if err != nil {
		return nil, err
	}
	return m.launch(sess, fromID)
}

// launch registers a job for sess and starts its runner.
func (m *Manager) launch(sess *Session, resumedFrom string) (*Job, error) {
	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("s%04d-%s", m.seq, sess.Config().Case)
	j := &Job{
		ID: id, Cfg: sess.Config(), sess: sess,
		resumedFrom: resumedFrom,
		state:       StateRunning,
		done:        make(chan struct{}),
	}
	m.jobs[id] = j
	m.mu.Unlock()

	cfgJSON, err := json.MarshalIndent(j.Cfg, "", "  ")
	if err == nil {
		err = m.store.Put(id, ArtifactConfig, cfgJSON)
	}
	if err != nil {
		sess.Close()
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		return nil, fmt.Errorf("session: persist config: %w", err)
	}

	m.wg.Add(1)
	go m.run(j)
	return j, nil
}

// run is the job's scheduler loop: acquire a slot, step one batch,
// release, until the target, a cancel, or an error — then deposit the
// artifacts and close the session.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	defer close(j.done)

	final := StateDone
	errMsg := ""
	due := false // a snapshot is due and not yet deposited
	for {
		step := j.sess.Step()
		if step >= j.Cfg.Steps {
			break
		}
		if j.sess.Cancelled() {
			final = StateCancelled
			break
		}
		batch, snapshot := NextBatch(step, j.Cfg.Steps, j.Cfg.BatchSteps, j.Cfg.CheckpointEvery)
		err := m.stepBatch(j, batch)
		// The slot just released is free again at once (slots are sized to the
		// processors), so nothing above ever blocks and a sub-millisecond step
		// loop holds its processor until the runtime's 10 ms forced preemption
		// — which an HTTP handler on the same processor then waits out. The
		// batch boundary is the scheduler quantum: yield there.
		runtime.Gosched()
		if err == ErrCancelled {
			final = StateCancelled
			break
		}
		if err != nil {
			final = StateFailed
			errMsg = err.Error()
			break
		}
		// The final step's snapshot is finish's. A failed deposit is retried
		// after the next batch; the first failure becomes the job's error at
		// once, so a client learns that the store may hold no snapshot to
		// resume from.
		due = due || snapshot
		if step = j.sess.Step(); due && step < j.Cfg.Steps {
			if err := j.sess.Deposit(m.store, j.ID); err == nil {
				due = false
			} else if errMsg == "" {
				errMsg = fmt.Sprintf("checkpoint artifact at step %d: %v", step, err)
				j.mu.Lock()
				j.err = errMsg
				j.mu.Unlock()
			}
		}
	}
	m.finish(j, final, errMsg)
}

// NextBatch cuts a run into batches, the one schedule of both drivers'
// snapshots: from step completed steps toward target, the next batch runs at
// most quantum steps (0: no limit) and stops at the next multiple of every
// (0: no snapshots before the end). snapshot reports whether one is due
// after it: at every multiple of every, and at the target. The schedule
// depends on neither the step a run started or resumed at nor the batch
// size.
func NextBatch(step, target, quantum, every int) (n int, snapshot bool) {
	n = target - step
	if quantum > 0 {
		n = min(n, quantum)
	}
	if every > 0 {
		n = min(n, every-step%every)
	}
	end := step + n
	return n, end == target || every > 0 && end%every == 0
}

// stepBatch steps one scheduler quantum inside a slot. A panic under StepN
// (the comm and poly packages have some, and a caller's OnStep may) is this
// session's failure, not the process's: it comes back as an error, with value
// and stack deposited as the panic.txt artifact, and the slot is released on
// every path so the other tenants keep stepping.
func (m *Manager) stepBatch(j *Job, batch int) (err error) {
	m.slots <- struct{}{}
	defer func() {
		<-m.slots
		if r := recover(); r != nil {
			err = fmt.Errorf("session: panic while stepping: %v", r)
			report := fmt.Sprintf("%v\n\n%s", err, debug.Stack())
			if perr := m.store.Put(j.ID, ArtifactPanic, []byte(report)); perr != nil {
				err = fmt.Errorf("%w (panic artifact: %v)", err, perr)
			}
		}
	}()
	_, err = j.sess.StepN(batch)
	return err
}

// finish deposits the job's artifacts (result.json last), closes its
// session, and only then publishes the final state. Failed sessions keep
// their last checkpoint rather than a post-mortem one; done and cancelled
// sessions get a final snapshot so they can be resumed (cancelled) or
// extended (done).
func (m *Manager) finish(j *Job, final State, errMsg string) {
	if final != StateFailed {
		if err := j.sess.Deposit(m.store, j.ID); err != nil && errMsg == "" {
			errMsg = fmt.Sprintf("checkpoint artifact: %v", err)
		}
	}
	var hist bytes.Buffer
	if err := j.sess.History().WriteJSONL(&hist); err == nil {
		if err := m.store.Put(j.ID, ArtifactHistory, hist.Bytes()); err != nil && errMsg == "" {
			errMsg = fmt.Sprintf("history artifact: %v", err)
		}
	}
	if tr := j.sess.Tracer(); tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err == nil {
			if err := m.store.Put(j.ID, ArtifactTrace, buf.Bytes()); err != nil && errMsg == "" {
				errMsg = fmt.Sprintf("trace artifact: %v", err)
			}
		}
	}
	j.sess.Close()

	// The status reports where the session stands: a step that failed after
	// advancing the clock (NaN) is one past the last progress update.
	p := j.sess.prog.Snapshot()
	p.Step, p.Time = j.sess.Step(), j.sess.Time()
	j.sess.prog.Update(p)

	// result.json is in the store before the final state is published: a
	// client may fetch it the instant it sees the job leave "running".
	status := j.Status()
	status.State, status.Error = final, errMsg
	if b, err := json.MarshalIndent(status, "", "  "); err == nil {
		if err := m.store.Put(j.ID, ArtifactResult, b); err != nil && errMsg == "" {
			errMsg = fmt.Sprintf("result artifact: %v", err)
		}
	}
	j.mu.Lock()
	j.state, j.err = final, errMsg
	j.mu.Unlock()
	p.Done = true
	j.sess.prog.Update(p)
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns all jobs' statuses, sorted by id.
func (m *Manager) List() []Status {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Checkpoint snapshots a running job into the store and returns the
// completed step count of the snapshot.
func (m *Manager) Checkpoint(id string) (int, error) {
	j, ok := m.Get(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err := j.sess.Deposit(m.store, j.ID); err != nil {
		return 0, err
	}
	return j.sess.Step(), nil
}

// Store exposes the artifact store (the HTTP layer serves from it).
func (m *Manager) Store() Store { return m.store }

// Close cancels every running job and waits for all runners to deposit
// their artifacts and release their sessions.
func (m *Manager) Close() {
	m.mu.Lock()
	for _, j := range m.jobs {
		j.sess.Cancel()
	}
	m.mu.Unlock()
	m.wg.Wait()
}
