package service

// Async job subsystem: Submit enqueues a request onto a bounded queue and
// returns a job ID immediately; worker goroutines drain the queue through
// the same cached/deduplicated request path as the synchronous API. Jobs
// move queued → running → done|failed|canceled, can be canceled by ID at
// any point before a terminal state (mid-run cancellation propagates
// through context as registry.ErrCanceled), and finished jobs are
// retained for a TTL so results can be fetched, then purged.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"strongdecomp/internal/registry"
)

// Typed errors of the job subsystem.
var (
	// ErrQueueFull is returned by Submit when the bounded job queue is at
	// capacity — the backpressure signal HTTP maps to 429.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrUnknownJob is returned for IDs that never existed or whose
	// retention TTL has expired.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobNotDone is returned when fetching the result of a job that
	// has not (or not successfully) finished.
	ErrJobNotDone = errors.New("service: job not done")
)

// JobState is the lifecycle state of an async job.
type JobState string

// The job lifecycle: queued → running → done | failed | canceled. A
// queued job may also go straight to canceled.
const (
	JobQueued   JobState = "queued"   // accepted, waiting for a worker
	JobRunning  JobState = "running"  // executing on a worker
	JobDone     JobState = "done"     // finished; result retrievable until TTL
	JobFailed   JobState = "failed"   // computation errored; Error holds why
	JobCanceled JobState = "canceled" // canceled before or during execution
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is a point-in-time snapshot of an async job.
type Job struct {
	ID string `json:"id"`
	// Kind and Algo echo the canonical params the job runs under.
	Kind  string   `json:"kind"`
	Algo  string   `json:"algo"`
	State JobState `json:"state"`
	// Error carries the failure (or cancellation) message in a terminal
	// non-done state.
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// Result is set once State == JobDone.
	Result *Result `json:"-"`
}

// job is the live record behind a Job snapshot; all fields are guarded by
// the manager's mutex except where noted.
type job struct {
	id        string
	kind      registry.Kind
	params    registry.Params // normalized; echoed in snapshots
	req       Request         // value copy; the inline *graph.Graph is shared and immutable
	state     JobState
	err       error
	res       *Result
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // set while running
	cancelReq bool               // a cancel was requested (maybe mid-run)
	expires   time.Time          // purge deadline once terminal
}

// jobManager owns the queue, the worker pool, and the retention table.
type jobManager struct {
	svc *Service
	ttl time.Duration

	mu       sync.Mutex
	jobs     map[string]*job
	done     []*job // terminal jobs in finish order; TTL purge walks the front
	closed   bool
	draining bool // drain in progress: reject new submissions, let live ones settle

	queue chan *job
	wg    sync.WaitGroup

	submitted, completed, failed, canceled int64 // guarded by mu
}

func newJobManager(svc *Service, queueSize, workers int, ttl time.Duration) *jobManager {
	m := &jobManager{svc: svc, ttl: ttl, jobs: make(map[string]*job)}
	if queueSize < 0 {
		// Job subsystem disabled: a nil queue makes every Submit fail
		// with ErrQueueFull and starts no workers.
		return m
	}
	m.queue = make(chan *job, queueSize)
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

// Submit enqueues req for asynchronous execution and returns the job ID.
// Validation happens synchronously — a malformed request fails here, not
// in the job — and a full queue fails fast with ErrQueueFull.
func (s *Service) Submit(kind registry.Kind, req *Request) (string, error) {
	return s.jobs.submit(kind, req)
}

// Job returns a snapshot of the job's current state.
func (s *Service) Job(id string) (*Job, error) { return s.jobs.get(id) }

// CancelJob cancels a job by ID: a queued job is terminally canceled in
// place, a running job has its context canceled (the run unwinds with
// registry.ErrCanceled and the job lands in JobCanceled). Canceling a
// terminal job is a no-op. The returned snapshot reflects the state after
// the cancel took effect.
func (s *Service) CancelJob(id string) (*Job, error) { return s.jobs.cancelByID(id) }

func (m *jobManager) submit(kind registry.Kind, req *Request) (string, error) {
	p, err := m.svc.params(kind, req)
	if err != nil {
		return "", err
	}
	// Resolve the algorithm now so a job can only fail on real
	// computation errors.
	if _, err := registry.Lookup(p.Algorithm); err != nil {
		return "", err
	}
	if req.Graph == nil && req.Hash == "" {
		return "", fmt.Errorf("%w: request carries no graph and no hash", ErrInvalidRequest)
	}

	j := &job{
		id:        newJobID(),
		kind:      kind,
		params:    p,
		req:       *req,
		state:     JobQueued,
		submitted: time.Now(),
	}

	m.mu.Lock()
	if m.closed || m.draining || m.queue == nil {
		m.mu.Unlock()
		return "", ErrQueueFull
	}
	m.purgeLocked(time.Now())
	select {
	case m.queue <- j:
		m.jobs[j.id] = j
		m.submitted++
		m.mu.Unlock()
		return j.id, nil
	default:
		m.mu.Unlock()
		return "", fmt.Errorf("%w: %d jobs queued", ErrQueueFull, cap(m.queue))
	}
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one dequeued job through the service's synchronous path.
func (m *jobManager) run(j *job) {
	m.mu.Lock()
	if j.state != JobQueued || j.cancelReq || m.closed {
		// Canceled while queued (or the manager is shutting down): settle
		// as canceled without running.
		j.cancelReq = true
		m.finishLocked(j, nil, registry.ErrCanceled)
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	req := j.req
	kind := j.kind
	m.mu.Unlock()

	res, err := m.svc.Run(ctx, kind, &req)
	cancel()

	m.mu.Lock()
	j.cancel = nil
	m.finishLocked(j, res, err)
	m.mu.Unlock()
}

// finishLocked settles a job into its terminal state; caller holds mu.
func (m *jobManager) finishLocked(j *job, res *Result, err error) {
	if j.state.Terminal() {
		return
	}
	j.finished = time.Now()
	j.expires = j.finished.Add(m.ttl)
	switch {
	case j.cancelReq:
		// An explicit cancel wins however the run unwound; a timeout that
		// races a cancel still reads as canceled, which is what the
		// caller asked for.
		j.state = JobCanceled
		if err == nil {
			err = registry.ErrCanceled
		}
		j.err = err
		m.canceled++
	case err != nil:
		j.state = JobFailed
		j.err = err
		m.failed++
	default:
		j.state = JobDone
		j.res = res
		m.completed++
	}
	m.done = append(m.done, j)
}

func (m *jobManager) get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.purgeLocked(time.Now())
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.snapshotLocked(), nil
}

func (m *jobManager) cancelByID(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.purgeLocked(time.Now())
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch j.state {
	case JobQueued:
		j.cancelReq = true
		m.finishLocked(j, nil, registry.ErrCanceled)
	case JobRunning:
		j.cancelReq = true
		if j.cancel != nil {
			j.cancel() // the run unwinds with ErrCanceled and settles the job
		}
	}
	return j.snapshotLocked(), nil
}

// purgeLocked drops terminal jobs past their retention deadline; caller
// holds mu. done is in finish order and every job shares one TTL, so the
// walk stops at the first unexpired entry.
func (m *jobManager) purgeLocked(now time.Time) {
	for len(m.done) > 0 && now.After(m.done[0].expires) {
		j := m.done[0]
		m.done = m.done[1:]
		// A canceled-then-resettled job appears once in done; the map
		// entry may already point at a fresh job only if IDs collided,
		// which newJobID makes effectively impossible.
		delete(m.jobs, j.id)
	}
}

// DrainJobs stops accepting new async submissions (they fail fast with
// ErrQueueFull, the same backpressure signal a full queue sends) and
// blocks until every queued or running job has settled into a terminal
// state, or until ctx expires — whichever comes first. It is the shutdown
// half-step between "stop taking HTTP traffic" and Close: a SIGTERM
// arriving mid-job lets the job finish and its queued client collect the
// result, instead of orphaning it with an abrupt cancel. DrainJobs does
// not close the service; call Close after it returns.
func (s *Service) DrainJobs(ctx context.Context) error { return s.jobs.drain(ctx) }

func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	for {
		m.mu.Lock()
		active := 0
		for _, j := range m.jobs {
			if j.state == JobQueued || j.state == JobRunning {
				active++
			}
		}
		m.mu.Unlock()
		if active == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("service: job drain interrupted with %d jobs live: %w", active, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (m *jobManager) close() {
	m.mu.Lock()
	if m.closed || m.queue == nil {
		m.closed = true
		m.mu.Unlock()
		return
	}
	m.closed = true
	// Cancel running jobs; queued jobs settle as canceled when a worker
	// drains them (run observes closed).
	for _, j := range m.jobs {
		if j.state == JobRunning && j.cancel != nil {
			j.cancelReq = true
			j.cancel()
		}
	}
	close(m.queue)
	m.mu.Unlock()
	m.wg.Wait()
}

// counts reports (submitted, completed, failed, canceled, queued, running,
// retained) for the stats snapshot.
func (m *jobManager) counts() (submitted, completed, failed, canceled int64, queued, running, retained int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.purgeLocked(time.Now())
	for _, j := range m.jobs {
		switch j.state {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
	}
	return m.submitted, m.completed, m.failed, m.canceled, queued, running, len(m.jobs)
}

// snapshotLocked renders the wire-friendly view; caller holds mu.
func (j *job) snapshotLocked() *Job {
	out := &Job{
		ID:          j.id,
		Kind:        string(j.params.Kind),
		Algo:        j.params.Algorithm,
		State:       j.state,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Result:      j.res,
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	return out
}

// newJobID returns a 128-bit random hex ID.
func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: job id entropy unavailable: %v", err))
	}
	return "j" + hex.EncodeToString(b[:])
}
