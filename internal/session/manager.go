package session

// manager.go multiplexes many concurrent sessions over a bounded number of
// slots. Only MaxActive sessions may be *building or stepping* at any
// instant, each on its job's goroutine (its runner): the scheduler is a
// counting semaphore that a runner acquires once to build its session (the
// solver, an auto run's tournament) and then once per batch of steps
// (Config.BatchSteps), releasing it after each, so long jobs cannot starve
// short ones and set-ups are bounded too. A submit returns once the job
// exists. After every quantum the runner yields through the network poller
// (yield), so a request waits for a batch of each stepping job, not for the
// runtime's 10 ms network poll.
// When a job reaches its step target, is cancelled, or fails, the manager
// deposits its artifacts in the Store (history.jsonl, checkpoint.gob,
// trace.json, result.json) and closes the session, which lets go of its
// solver: the service's memory follows the jobs it is running, not the jobs
// it has served.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ns"
	"repro/internal/parrun"
	"repro/internal/solver"
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

// Status is one job's externally visible state (the HTTP status payload):
// its lifecycle, the last completed step's ns.StepStats in the keys of the
// history JSONL, and the pressure preconditioner with the trials that chose
// it.
type Status struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Case        string `json:"case"`
	TotalSteps  int    `json:"total_steps"`
	Error       string `json:"error,omitempty"`
	ResumedFrom string `json:"resumed_from,omitempty"`
	ns.StepStats
	Precond solver.PrecondSelection `json:"precond"`
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

// Status snapshots the job: its lifecycle state, the last step from the
// session's progress, which StepN updates, and the session's preconditioner
// selection. It takes neither the session's lock nor its solver, so a poll
// never waits for a step in flight.
func (j *Job) Status() Status {
	j.mu.Lock()
	state, errMsg := j.state, j.err
	j.mu.Unlock()
	return Status{
		ID: j.ID, State: state, Case: j.Cfg.Case, TotalSteps: j.Cfg.Steps,
		Error: errMsg, ResumedFrom: j.resumedFrom,
		StepStats: j.sess.prog.Snapshot().StepStats,
		Precond:   j.sess.PrecondSelection(),
	}
}

// Session exposes the job's session (for per-job /metrics, /progress,
// /history). Valid from the submit on: until its runner has built it in a
// slot, it has instruments but no solver, and reads step 0 (a resume's
// snapshot step) with an empty preconditioner selection. Valid after the job
// finishes too: the closed session has let go of its solver but keeps its
// instruments, step count and preconditioner selection; its final fields are
// the checkpoint.gob artifact.
func (j *Job) Session() *Session { return j.sess }

// Manager owns the job table, the scheduler, the artifact store, and the
// pipe and goroutine of the poller yield.
type Manager struct {
	store Store
	slots chan struct{} // scheduler: one token per concurrently building or stepping session

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int

	wg sync.WaitGroup

	// The poller yield: a runner writes a byte to pw and waits on woken,
	// which relay signals once per byte it reads from pr. Nil ends (no pipe
	// could be made): the runner yields with runtime.Gosched.
	pr, pw    *os.File
	woken     chan struct{}
	relayed   chan struct{} // closed when relay has returned
	closePipe sync.Once
	born      time.Time    // the clock of polled
	polled    atomic.Int64 // when a runner last yielded through the poller, since born
}

// NewManager builds a manager multiplexing jobs over at most maxActive
// concurrently building or stepping sessions (minimum 1). It owns a pipe and
// one goroutine until Close.
func NewManager(store Store, maxActive int) *Manager {
	if maxActive < 1 {
		maxActive = 1
	}
	m := &Manager{
		store: store,
		slots: make(chan struct{}, maxActive),
		jobs:  map[string]*Job{},
		born:  time.Now(),
	}
	if pr, pw, err := os.Pipe(); err == nil {
		m.pr, m.pw = pr, pw
		m.woken, m.relayed = make(chan struct{}), make(chan struct{})
		go m.relay()
	}
	return m
}

// relay wakes one yielding runner per byte it reads from the pipe. On Linux
// both ends of an os.Pipe are registered with Go's network poller, so only a
// poll wakes a read that found the pipe empty, and that poll also readies
// every goroutine waiting for the network: a runner resumes only after the
// requests that arrived while it stepped have reached their handlers. It
// returns when Close closes the write end.
func (m *Manager) relay() {
	defer close(m.relayed)
	buf := make([]byte, 64)
	for {
		n, err := m.pr.Read(buf)
		for range n {
			m.woken <- struct{}{}
		}
		if err != nil {
			return
		}
	}
}

// minPollGap is the least time between two yields through the network
// poller; in between, a runner yields with runtime.Gosched. One costs a
// pipe write and reads, a poll and two goroutine switches: 2.3–3.5 µs on an
// idle manager (BenchmarkManagerYield) and 4.5–7 µs between a job's steps
// on a 2.1 GHz Xeon, 5–8 % of a channel step at N = 4 (65–85 µs). At most
// one every 250 µs is 1.5–1.8 % of the stepping at N = 4 and at N = 9, whose
// every step (300–400 µs) still ends in a poll. A 500 µs gap raised the
// /healthz median of TestHTTPAnswersWhileSlotsStep at one processor from
// 1.3 to 2.0–2.3 ms.
const minPollGap = 250 * time.Microsecond

// yield is a runner's step-boundary yield: it parks the runner until the
// network poller has run once (relay), or within minPollGap of the last such
// yield, Gosched. Gosched alone puts the runner straight back on the run
// queue, and the scheduler polls the network only when no goroutine is
// runnable or, from sysmon, every 10 ms: while every slot stepped, each
// request waited that long. A parked runner leaves its processor idle, and
// an idle processor polls at once; on one processor, once every stepping
// runner is parked.
func (m *Manager) yield() {
	now := int64(time.Since(m.born))
	if m.pw == nil || now-m.polled.Load() < int64(minPollGap) {
		runtime.Gosched()
		return
	}
	m.polled.Store(now)
	if _, err := m.pw.Write([]byte{0}); err != nil { // closed: a job submitted after Close
		runtime.Gosched()
		return
	}
	<-m.woken
}

// checkServable is the job service's admission check, made before a job
// exists: every session's validate, then what the manager cannot run safely
// yet: nothing bounds P. (A rank's panic leaves comm.Network.Run on the
// stepping goroutine, so it reaches inSlot's recover.) A config it accepts
// builds (FuzzSubmitConfig).
func checkServable(cfg Config) error {
	if err := cfg.validate(nil); err != nil {
		return err
	}
	if cfg.Ranks != 0 || cfg.Faults != nil {
		return errors.New("session: the job service runs shared-memory sessions only (ranks, faults: use semflow -ranks)")
	}
	return checkBounds(cfg)
}

// checkBounds refuses a job larger than one tenant of the service may ask
// for, an order below 3 or no steps. An omitted field is checked as the
// case default the job runs; negative sizes and the filter range are every
// session's checks (Config.validate).
func checkBounds(cfg Config) error {
	run, err := cfg.Resolve()
	if err != nil {
		return err
	}
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

// Submit validates cfg, records its job and schedules it for cfg.Steps
// steps. It returns once the job exists; the runner builds its solver in a
// slot (checkServable and Config.validate refuse what set-up would).
func (m *Manager) Submit(cfg Config) (*Job, error) {
	if err := checkServable(cfg); err != nil {
		return nil, err
	}
	sess, err := newSession(cfg, nil)
	if err != nil {
		return nil, err
	}
	return m.launch(sess, nil, "")
}

// ResumeJob builds a new job continuing a stored session: its config.json
// fixes the case and its knobs (resolved when the job was launched), its
// checkpoint.gob fixes the state. steps, when > 0,
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
	if cfg.Alpha == nil { // stored before config.json recorded it: the job ran unfiltered
		cfg.Alpha = strength(0)
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
	sess, err := newSession(cfg, ck)
	if err != nil {
		return nil, err
	}
	return m.launch(sess, ck, fromID)
}

// newID claims the next job id of the sequence that the store does not
// hold yet (Store.Create), so a manager started over a used store, as after
// a restart, continues the sequence instead of overwriting earlier jobs'
// artifacts.
func (m *Manager) newID(c string) (string, error) {
	for {
		m.mu.Lock()
		m.seq++
		id := fmt.Sprintf("s%04d-%s", m.seq, c)
		m.mu.Unlock()
		err := m.store.Create(id)
		if !errors.Is(err, ErrExists) {
			return id, err
		}
	}
}

// launch registers a job for the session record sess under a new id and
// starts its runner, which builds it (restoring ck, when not nil).
func (m *Manager) launch(sess *Session, ck *parrun.Checkpoint, resumedFrom string) (*Job, error) {
	id, err := m.newID(sess.Config().Case)
	if err != nil {
		sess.Close()
		return nil, fmt.Errorf("session: new job: %w", err)
	}
	m.mu.Lock()
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
	go m.run(j, ck)
	return j, nil
}

// run is the job's runner: build the session in a slot, unless it was
// cancelled first, then acquire a slot, step one batch, release, until the
// target, a cancel, or an error — then deposit the artifacts and close the
// session. Every quantum in a slot ends with a yield through the network
// poller.
func (m *Manager) run(j *Job, ck *parrun.Checkpoint) {
	defer m.wg.Done()
	defer close(j.done)

	err := m.inSlot(j, "building", func() error {
		if j.sess.Cancelled() {
			return ErrCancelled
		}
		return j.sess.build(ck)
	})
	m.yield()
	errMsg := ""
	due := false // a snapshot is due and not yet deposited
	for err == nil {
		step := j.sess.Step()
		if step >= j.Cfg.Steps {
			break
		}
		if j.sess.Cancelled() {
			err = ErrCancelled
			break
		}
		batch, snapshot := NextBatch(step, j.Cfg.Steps, j.Cfg.BatchSteps, j.Cfg.CheckpointEvery)
		err = m.inSlot(j, "stepping", func() error {
			_, err := j.sess.StepN(batch)
			return err
		})
		m.yield()
		if err != nil {
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
	final := StateDone
	switch {
	case errors.Is(err, ErrCancelled):
		final = StateCancelled
	case err != nil:
		final, errMsg = StateFailed, err.Error()
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

// inSlot runs one scheduler quantum of the job, its set-up or a batch of
// steps, inside a slot. A panic under it (the comm and poly packages have
// some, and a caller's OnStep may) is this session's failure, not the
// process's: it comes back as an error naming what the job was doing, with
// value and stack deposited as the panic.txt artifact, and the slot is
// released on every path so the other tenants keep stepping.
func (m *Manager) inSlot(j *Job, doing string, quantum func() error) (err error) {
	m.slots <- struct{}{}
	defer func() {
		<-m.slots
		if r := recover(); r != nil {
			err = fmt.Errorf("session: panic while %s: %v", doing, r)
			report := fmt.Sprintf("%v\n\n%s", err, debug.Stack())
			if perr := m.store.Put(j.ID, ArtifactPanic, []byte(report)); perr != nil {
				err = fmt.Errorf("%w (panic artifact: %v)", err, perr)
			}
		}
	}()
	return quantum()
}

// finish deposits the job's artifacts (result.json last), closes its
// session, and only then publishes the final state. Failed sessions keep
// their last checkpoint rather than a post-mortem one; done and cancelled
// sessions get a final snapshot so they can be resumed (cancelled) or
// extended (done), but for a job cancelled before its set-up, which has no
// state to snapshot.
func (m *Manager) finish(j *Job, final State, errMsg string) {
	if final != StateFailed {
		err := j.sess.Deposit(m.store, j.ID)
		if err != nil && !errors.Is(err, errNotStarted) && errMsg == "" {
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

	// result.json is in the store before the final state is published: a
	// client may fetch it the instant it sees the job leave "running". Its
	// step is the last completed one, the last history record's; a step that
	// failed left no record, and the error names it.
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
	p := j.sess.prog.Snapshot()
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
// completed step count of the snapshot. A job whose solver is not built yet
// has nothing to snapshot: its error is the session's errNotStarted.
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

// Close cancels every running job, waits for all runners to deposit their
// artifacts and release their sessions, then closes the poller yield's pipe
// and waits for its goroutine to return. A second Close is harmless.
func (m *Manager) Close() {
	m.mu.Lock()
	for _, j := range m.jobs {
		j.sess.Cancel()
	}
	m.mu.Unlock()
	m.wg.Wait()
	m.closePipe.Do(func() {
		if m.pw == nil {
			return
		}
		m.pw.Close()
		<-m.relayed
		m.pr.Close()
	})
}
