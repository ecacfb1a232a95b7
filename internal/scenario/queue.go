package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/obs"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is 429 backpressure: the bounded queue cannot admit the
	// job (mirrors the nightly pipeline's shed semantics — excess load is
	// dropped explicitly, never buffered unboundedly).
	ErrQueueFull = errors.New("scenario: queue full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("scenario: service draining")
)

// Priority classifies a submission for admission control. Interactive
// requests (a policy-maker at a dashboard) may use the whole queue; normal
// requests keep a small headroom reserved for interactive ones on large
// queues; batch requests (sweeps, pre-warming) are shed once half the queue
// is occupied so background load can never starve the foreground.
type Priority int

// Priority classes, lowest ordinal = default.
const (
	PriorityNormal Priority = iota
	PriorityInteractive
	PriorityBatch
)

func (p Priority) String() string {
	switch p {
	case PriorityInteractive:
		return "interactive"
	case PriorityBatch:
		return "batch"
	default:
		return "normal"
	}
}

// ParsePriority maps the wire form ("", interactive, normal, batch) to a
// Priority; the empty string is PriorityNormal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "interactive":
		return PriorityInteractive, nil
	case "batch":
		return PriorityBatch, nil
	default:
		return PriorityNormal, fmt.Errorf("scenario: unknown priority %q (want interactive | normal | batch)", s)
	}
}

// ShedError rejects a submission by priority-class admission control: the
// queue still has room, but not for this class. Distinct from ErrQueueFull
// so clients can tell "the service is saturated" from "your class is being
// shed to protect the foreground" (and back off accordingly).
type ShedError struct {
	Class Priority
	// Depth / Capacity snapshot the queue at the admission decision.
	Depth    int
	Capacity int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("scenario: %s-priority submission shed (queue %d/%d)", e.Class, e.Depth, e.Capacity)
}

// DrainError reports a drain whose post-cancel grace expired: the listed
// jobs were cancelled but their runners had not unwound when Drain gave up
// waiting. It unwraps to the drain context's error so existing
// errors.Is(err, context.DeadlineExceeded) checks keep working.
type DrainError struct {
	// Running lists the hashes of jobs still occupying a worker, sorted.
	Running []string
	cause   error
}

func (e *DrainError) Error() string {
	return fmt.Sprintf("scenario: drain grace expired with %d jobs still running (%s): %v",
		len(e.Running), strings.Join(e.Running, ", "), e.cause)
}

func (e *DrainError) Unwrap() error { return e.cause }

// BadSpecError wraps a validation failure (HTTP 400).
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return e.Err.Error() }
func (e *BadSpecError) Unwrap() error { return e.Err }

// JobState is the lifecycle of a job.
type JobState int32

// Job lifecycle states.
const (
	StateQueued JobState = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("JobState(%d)", int32(s))
	}
}

// Runner executes one normalized spec. The default runner drives the
// core.Pipeline workflows; tests substitute stubs.
type Runner func(ctx context.Context, spec Spec) (*Result, error)

// Job is one admitted scenario run. Identical in-flight specs share one Job
// (single-flight): every submitter holds an interest reference, and when
// the last interested party walks away the run is cancelled so abandoned
// requests stop burning CPU.
type Job struct {
	// Hash is the spec's content address and the job's public ID.
	Hash string
	// Spec is the normalized spec.
	Spec Spec

	svc    *Service
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// runCtx carries the submitter's tracing identity (tracer, current span,
	// request trace) on top of the job's own lifecycle context (obs.AdoptTrace)
	// so engine spans report into the submitting request's trace while
	// cancellation stays bound to j.ctx. Equal to j.ctx for untraced
	// submissions. Set before the job is published; read-only afterwards.
	runCtx context.Context
	// pri is the admission class the job entered the queue under (for the
	// per-class queue accounting).
	pri Priority
	// qspan is the open queue.wait span, ended exactly once when the job
	// leaves the queue (run or cancel). Span methods are internally
	// synchronized and nil-safe.
	qspan *obs.Span

	mu       sync.Mutex
	state    JobState
	err      error
	result   *Result
	interest int
	pinned   bool
	shared   int64
	cached   bool
	started  time.Time
}

// completedJob wraps a cache hit as an already-done job.
func completedJob(hash string, spec Spec, res *Result) *Job {
	j := &Job{Hash: hash, Spec: spec, done: make(chan struct{}),
		state: StateDone, result: res, cached: true}
	close(j.done)
	return j
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is done.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Pin keeps the job alive independent of interest references — an
// asynchronously submitted job must survive its submitter's disconnect
// until polled or explicitly cancelled.
func (j *Job) Pin() {
	j.mu.Lock()
	j.pinned = true
	j.mu.Unlock()
}

// Release drops one interest reference (a waiting client that completed or
// disconnected). When the count reaches zero on an unpinned, unfinished
// job, the run is cancelled.
func (j *Job) Release() {
	if j.svc == nil {
		return // cache-hit pseudo job
	}
	s := j.svc
	s.mu.Lock()
	j.mu.Lock()
	j.interest--
	abandon := j.interest <= 0 && !j.pinned && (j.state == StateQueued || j.state == StateRunning)
	if abandon && j.state == StateQueued {
		s.cancelQueuedLocked(j)
		j.mu.Unlock()
		s.mu.Unlock()
		j.cancel()
		return
	}
	j.mu.Unlock()
	s.mu.Unlock()
	if abandon {
		j.cancel() // running: the runner observes ctx and unwinds
	}
}

// JobStatus is the poll payload.
type JobStatus struct {
	ID       string `json:"id"`
	Workflow string `json:"workflow"`
	State    string `json:"state"`
	// Shared counts submitters deduplicated onto this run.
	Shared int64 `json:"shared"`
	// Cached marks a result served straight from the cache.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.Hash, Workflow: j.Spec.Workflow, State: j.state.String(),
		Shared: j.shared, Cached: j.cached,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Config parameterizes a Service.
type Config struct {
	// Pipeline is the shared workflow substrate.
	Pipeline *core.Pipeline
	// Workers is the fixed worker-pool size (default 2).
	Workers int
	// QueueCap bounds queued jobs; a full queue rejects with ErrQueueFull
	// (default 16).
	QueueCap int
	// CacheCap bounds the LRU result cache (default 64).
	CacheCap int
	// Runner overrides the pipeline runner (tests).
	Runner Runner
	// Fingerprint overrides the pipeline fingerprint (tests without a
	// pipeline).
	Fingerprint string
	// Registry receives the service's metric series (queue depth, in-flight
	// jobs, cache size/hit-ratio, per-workflow latency histograms). Nil
	// allocates a private registry, reachable via Service.Registry().
	Registry *obs.Registry
	// Fidelity enables the fidelity ladder: specs carrying a fidelity field
	// route through it; everything else takes the exact path. Nil disables
	// the ladder (fidelity specs then fall through to the legacy runner,
	// which ignores the field).
	Fidelity *fidelity.Router
	// DrainGrace bounds how long Drain waits for cancelled runners to
	// unwind after its context expires (default 5s). A runner that ignores
	// cancellation past the grace is abandoned and reported via DrainError.
	DrainGrace time.Duration
}

// Service is the scenario engine: admission control, content-addressed
// cache, single-flight queue, worker pool, metrics, graceful drain.
type Service struct {
	runner      Runner
	fingerprint string
	// cache is the content-addressed LRU result cache. Keys are spec
	// hashes; because the pipeline's seeded RNG makes runs deterministic, a
	// cached result is exactly what a re-run would produce.
	cache      *castore.Store[*Result]
	metrics    *metrics
	workers    int
	queueCap   int
	drainGrace time.Duration
	fidelity   *fidelity.Router
	workersUp  atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu sync.Mutex // guards the fields below; lock order: Service.mu before Job.mu
	// ready wakes idle workers when a job is queued or the service drains.
	ready *sync.Cond
	// queue holds the queued jobs in FIFO order. It is the only record of
	// queue occupancy: a job leaves it when a worker takes it or when it is
	// cancelled or abandoned while queued, so admission never counts a job
	// that will not run.
	queue    []*Job
	inflight map[string]*Job // queued or running, by hash (the single-flight table)
	recent   []*Job          // terminal jobs kept for status polls, oldest first
	registry map[string]*Job // every known job, for status lookup
	draining bool
	counts   struct {
		running                int
		done, failed, canceled int64
	}
}

// recentCap bounds how many terminal jobs stay pollable (results live on in
// the LRU cache beyond this).
const recentCap = 256

// NewService builds and starts a service; callers must Drain it.
func NewService(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 64
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	s := &Service{
		workers:    cfg.Workers,
		queueCap:   cfg.QueueCap,
		drainGrace: cfg.DrainGrace,
		cache:      castore.New(castore.WithMaxEntries[*Result](cfg.CacheCap)),
		metrics:    newMetrics(cfg.Registry),
		inflight:   map[string]*Job{},
		registry:   map[string]*Job{},
	}
	s.ready = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.fidelity = cfg.Fidelity
	s.runner = cfg.Runner
	if s.runner == nil {
		if cfg.Fidelity != nil {
			s.runner = FidelityPipelineRunner(cfg.Pipeline, cfg.Fidelity)
		} else {
			s.runner = PipelineRunner(cfg.Pipeline)
		}
	}
	s.fingerprint = cfg.Fingerprint
	if s.fingerprint == "" && cfg.Pipeline != nil {
		s.fingerprint = Fingerprint(cfg.Pipeline)
	}
	s.registerGauges()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the obs registry carrying the service's metric series —
// the source the HTTP layer's Prometheus /metrics endpoint renders.
func (s *Service) Registry() *obs.Registry { return s.metrics.reg }

// registerGauges wires the live queue/job/cache state onto the registry as
// exposition-time callbacks. Callbacks run outside the registry lock, so
// taking s.mu / the cache lock here is deadlock-free.
func (s *Service) registerGauges() {
	reg := s.Registry()
	locked := func(read func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return read()
		}
	}
	reg.Help("epi_scenario_queue_depth", "jobs waiting for a worker")
	reg.GaugeFunc("epi_scenario_queue_depth", locked(func() float64 { return float64(len(s.queue)) }))
	reg.Help("epi_scenario_queue_depth_class", "jobs waiting for a worker, by priority class")
	for _, pri := range []Priority{PriorityInteractive, PriorityNormal, PriorityBatch} {
		pri := pri
		reg.GaugeFunc(`epi_scenario_queue_depth_class{class="`+pri.String()+`"}`, locked(func() float64 {
			n := 0
			for _, j := range s.queue {
				if j.pri == pri {
					n++
				}
			}
			return float64(n)
		}))
	}
	reg.Help("epi_scenario_queue_capacity", "bounded queue capacity")
	reg.GaugeFunc("epi_scenario_queue_capacity", func() float64 { return float64(s.queueCap) })
	reg.Help("epi_scenario_workers", "worker-pool size")
	reg.GaugeFunc("epi_scenario_workers", func() float64 { return float64(s.workers) })
	reg.Help("epi_scenario_inflight_jobs", "jobs currently running on a worker")
	reg.GaugeFunc("epi_scenario_inflight_jobs", locked(func() float64 { return float64(s.counts.running) }))
	reg.Help("epi_scenario_draining", "1 while the service is shutting down")
	reg.GaugeFunc("epi_scenario_draining", locked(func() float64 {
		if s.draining {
			return 1
		}
		return 0
	}))
	reg.Help("epi_scenario_jobs_total", "terminal jobs by state")
	reg.CounterFunc(`epi_scenario_jobs_total{state="done"}`, locked(func() float64 { return float64(s.counts.done) }))
	reg.CounterFunc(`epi_scenario_jobs_total{state="failed"}`, locked(func() float64 { return float64(s.counts.failed) }))
	reg.CounterFunc(`epi_scenario_jobs_total{state="canceled"}`, locked(func() float64 { return float64(s.counts.canceled) }))
	reg.Help("epi_scenario_cache_entries", "cached results")
	reg.GaugeFunc("epi_scenario_cache_entries", func() float64 { return float64(s.cache.Stats().Entries) })
	reg.Help("epi_scenario_cache_capacity", "result-cache capacity")
	reg.GaugeFunc("epi_scenario_cache_capacity", func() float64 { return float64(s.cache.Stats().Capacity) })
	reg.Help("epi_scenario_cache_hits_total", "result-cache hits")
	reg.CounterFunc("epi_scenario_cache_hits_total", func() float64 { return float64(s.cache.Stats().Hits) })
	reg.Help("epi_scenario_cache_misses_total", "specs that had to be computed")
	reg.CounterFunc("epi_scenario_cache_misses_total", func() float64 { return float64(s.cache.Stats().Misses) })
	reg.Help("epi_scenario_cache_evictions_total", "results evicted by the LRU")
	reg.CounterFunc("epi_scenario_cache_evictions_total", func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.Help("epi_scenario_cache_hit_ratio", "hits over lookups, 0 when idle")
	reg.GaugeFunc("epi_scenario_cache_hit_ratio", func() float64 { return s.cache.Stats().HitRatio })
	reg.Help("epi_result_cache_hit_ratio", "result-cache hits over lookups (alias of epi_scenario_cache_hit_ratio)")
	reg.GaugeFunc("epi_result_cache_hit_ratio", func() float64 { return s.cache.Stats().HitRatio })
}

// Submit normalizes, hashes and admits a spec at normal priority. The
// caller holds one interest reference on the returned job and must Release
// it (cache hits return an already-done job where Release is a no-op).
// Identical in-flight specs share one job; a full queue returns
// ErrQueueFull.
func (s *Service) Submit(spec Spec) (*Job, error) {
	return s.SubmitPri(spec, PriorityNormal)
}

// SubmitPri is Submit with an explicit priority class. Admission control is
// layered on the bounded queue: batch submissions are shed once half the
// queue is occupied, normal submissions keep a small headroom reserved for
// interactive ones on queues of eight or more slots, and interactive
// submissions may fill the queue. Cache and single-flight attachment are
// class-blind — a result that already exists (or is being computed) is
// served to any class.
func (s *Service) SubmitPri(spec Spec, pri Priority) (*Job, error) {
	return s.SubmitCtx(context.Background(), spec, pri)
}

// SubmitCtx is SubmitPri with the submitter's context: when ctx carries a
// request trace (obs), the admission decision, queue wait, and the job's
// whole execution report spans and events into it. ctx contributes ONLY
// tracing identity — job lifecycle and cancellation are governed by
// interest references and the service's own context tree, exactly as for
// an untraced submission, so traced runs stay bit-identical to untraced.
func (s *Service) SubmitCtx(ctx context.Context, spec Spec, pri Priority) (*Job, error) {
	ns, err := spec.Normalize()
	if err != nil {
		return nil, &BadSpecError{Err: err}
	}
	hash, err := ns.Hash(s.fingerprint)
	if err != nil {
		return nil, &BadSpecError{Err: err}
	}
	if res, ok := s.cache.Get(hash); ok {
		obs.Event(ctx, "cache.hit", obs.String("hash", hash))
		return completedJob(hash, ns, res), nil
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if j, ok := s.inflight[hash]; ok {
		j.mu.Lock()
		j.shared++
		j.interest++
		state := j.state
		j.mu.Unlock()
		s.mu.Unlock()
		s.metrics.deduped.Inc()
		obs.Event(ctx, "singleflight.attach",
			obs.String("hash", hash), obs.String("owner_state", state.String()))
		return j, nil
	}
	// A run that finished since the lookup above put its result in the
	// cache before leaving the single-flight table, both under s.mu, so
	// looking again here keeps it from running twice.
	if res, ok := s.cache.Get(hash); ok {
		s.mu.Unlock()
		obs.Event(ctx, "cache.hit", obs.String("hash", hash))
		return completedJob(hash, ns, res), nil
	}
	if !s.admitLocked(pri) {
		depth := len(s.queue)
		s.mu.Unlock()
		if depth >= s.queueCap {
			// Not a class decision: the queue is genuinely full.
			s.metrics.rejected.Inc()
			obs.Event(ctx, "admission.reject", obs.String("reason", "queue_full"),
				obs.Int("depth", int64(depth)))
			return nil, ErrQueueFull
		}
		s.metrics.shed.Inc()
		obs.Event(ctx, "admission.reject", obs.String("reason", "shed"),
			obs.String("class", pri.String()), obs.Int("depth", int64(depth)))
		return nil, &ShedError{Class: pri, Depth: depth, Capacity: s.queueCap}
	}
	j := &Job{Hash: hash, Spec: ns, svc: s, pri: pri, done: make(chan struct{}), interest: 1}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	j.runCtx = obs.AdoptTrace(j.ctx, ctx)
	_, j.qspan = obs.StartSpan(ctx, "queue.wait",
		obs.String("hash", hash), obs.String("priority", pri.String()))
	s.queue = append(s.queue, j)
	s.inflight[hash] = j
	s.registry[hash] = j
	s.ready.Signal()
	s.mu.Unlock()
	s.metrics.submitted.Inc()
	s.cache.RecordMiss()
	return j, nil
}

// admitLocked applies the per-class queue budget; caller holds s.mu. Batch
// may use the first half of the queue, normal everything except a reserved
// eighth (zero on small queues, so their defaults are unchanged),
// interactive the whole queue.
func (s *Service) admitLocked(pri Priority) bool {
	switch pri {
	case PriorityBatch:
		return len(s.queue) < (s.queueCap+1)/2
	case PriorityNormal:
		return len(s.queue) < s.queueCap-s.queueCap/8
	default:
		return len(s.queue) < s.queueCap
	}
}

// Lookup returns the job for an ID, falling back to the result cache for
// jobs whose bookkeeping has been evicted.
func (s *Service) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.registry[id]
	s.mu.Unlock()
	if ok {
		return j, true
	}
	if res, ok := s.cache.Get(id); ok {
		return completedJob(id, res.Spec, res), true
	}
	return nil, false
}

// Cancel cancels a queued or running job by ID. It reports whether a
// cancellation was initiated.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.registry[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		s.cancelQueuedLocked(j)
		j.mu.Unlock()
		s.mu.Unlock()
		j.cancel()
		return true
	case StateRunning:
		j.mu.Unlock()
		s.mu.Unlock()
		j.cancel()
		return true
	default:
		j.mu.Unlock()
		s.mu.Unlock()
		return false
	}
}

// cancelQueuedLocked finalizes a still-queued job as canceled and frees its
// queue slot. Caller holds s.mu and j.mu.
func (s *Service) cancelQueuedLocked(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.dequeueLocked(i)
			break
		}
	}
	j.state = StateCanceled
	j.err = context.Canceled
	close(j.done)
	delete(s.inflight, j.Hash)
	s.counts.canceled++
	s.retainLocked(j)
	j.qspan.SetAttr(obs.String("outcome", "canceled"))
	j.qspan.End()
}

// dequeueLocked removes and returns the job at queue position i, keeping
// FIFO order. Caller holds s.mu.
func (s *Service) dequeueLocked(i int) *Job {
	j := s.queue[i]
	copy(s.queue[i:], s.queue[i+1:])
	s.queue[len(s.queue)-1] = nil
	s.queue = s.queue[:len(s.queue)-1]
	return j
}

// retainLocked records a terminal job for later status polls, evicting the
// oldest retained job beyond recentCap. Caller holds s.mu.
func (s *Service) retainLocked(j *Job) {
	s.recent = append(s.recent, j)
	for len(s.recent) > recentCap {
		old := s.recent[0]
		s.recent = s.recent[1:]
		if s.registry[old.Hash] == old {
			delete(s.registry, old.Hash)
		}
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	s.workersUp.Add(1)
	for {
		j := s.take()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// take blocks until a job is queued, moves it to running and returns it; it
// returns nil once the service drains with nothing left to run.
func (s *Service) take() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.draining {
		s.ready.Wait()
	}
	if len(s.queue) == 0 {
		return nil
	}
	j := s.dequeueLocked(0)
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.counts.running++
	return j
}

// Readiness is the /readyz payload: overall readiness plus the state of
// each serving layer.
type Readiness struct {
	Ready      bool `json:"ready"`
	WorkersUp  int  `json:"workers_up"`
	WorkersSet int  `json:"workers_configured"`
	Draining   bool `json:"draining"`
	// Fidelity reports per-tier warm state when the ladder is enabled
	// (absent otherwise). The emulator tier is warm once at least one
	// config family has a fitted emulator.
	Fidelity map[string]fidelity.TierState `json:"fidelity,omitempty"`
}

// Readiness reports whether the service can usefully serve: the worker pool
// is up, the service is not draining, and — when the fidelity ladder is
// enabled — at least one emulator is fitted (before that, every auto-routed
// query escalates to a full simulation, which is availability but not the
// latency contract /readyz guards).
func (s *Service) Readiness() Readiness {
	r := Readiness{
		WorkersUp:  int(s.workersUp.Load()),
		WorkersSet: s.workers,
		Draining:   s.Draining(),
	}
	r.Ready = r.WorkersUp >= r.WorkersSet && !r.Draining
	if s.fidelity != nil {
		r.Fidelity = s.fidelity.Status()
		if !r.Fidelity[string(fidelity.TierEmulator)].Ready {
			r.Ready = false
		}
	}
	return r
}

// runJob executes a job that take moved to running.
func (s *Service) runJob(j *Job) {
	j.qspan.SetAttr(obs.String("outcome", "run"))
	j.qspan.End()

	// tier is the requested fidelity ("auto" when unset) — the decided tier
	// lands on the job.run span after the runner returns.
	tier := j.Spec.Fidelity
	if tier == "" {
		tier = "auto"
	}
	runCtx, rspan := obs.StartSpan(j.runCtx, "job.run",
		obs.String("hash", j.Hash), obs.String("workflow", j.Spec.Workflow))

	var res *Result
	var err error
	// pprof labels attribute CPU samples in the -pprof profiles to the
	// request being served; they are invisible to the runner itself.
	pprof.Do(runCtx, pprof.Labels(
		"hash", j.Hash, "workflow", j.Spec.Workflow, "tier", tier,
	), func(ctx context.Context) {
		res, err = s.runner(ctx, j.Spec)
	})
	elapsed := time.Since(j.started)

	if err != nil {
		rspan.SetAttr(obs.String("error", err.Error()))
	} else if res != nil && res.Tier != "" {
		rspan.SetAttr(obs.String("tier", res.Tier))
	}
	rspan.End()

	s.mu.Lock()
	j.mu.Lock()
	delete(s.inflight, j.Hash)
	s.counts.running--
	switch {
	case err == nil:
		j.state = StateDone
		s.counts.done++
		res.Hash = j.Hash
		res.Workflow = j.Spec.Workflow
		res.Spec = j.Spec
		res.ElapsedSeconds = elapsed.Seconds()
		j.result = res
		s.cache.Put(j.Hash, res)
		s.metrics.observeLatency(j.Spec.Workflow, elapsed.Seconds())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.err = err
		s.counts.canceled++
	default:
		j.state = StateFailed
		j.err = err
		s.counts.failed++
	}
	close(j.done)
	s.retainLocked(j)
	j.mu.Unlock()
	s.mu.Unlock()
	j.cancel() // release the context's resources
}

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service down: new submissions are rejected,
// queued and in-flight jobs run to completion, workers exit. If ctx
// expires first, the remaining jobs are cancelled and Drain waits up to
// the configured DrainGrace for the workers to unwind, then returns
// ctx.Err() — or, when a runner ignores cancellation past the grace, a
// *DrainError listing the hashes still occupying workers (it unwraps to
// ctx.Err(), so deadline checks via errors.Is keep working).
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.ready.Broadcast() // idle workers exit once the queue is empty
	s.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}
	s.baseCancel()
	grace := time.NewTimer(s.drainGrace)
	defer grace.Stop()
	select {
	case <-finished:
		return ctx.Err()
	case <-grace.C:
		return &DrainError{Running: s.runningHashes(), cause: ctx.Err()}
	}
}

// runningHashes snapshots the hashes of jobs currently on a worker, sorted
// for stable error messages.
func (s *Service) runningHashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for h, j := range s.inflight {
		j.mu.Lock()
		if j.state == StateRunning {
			out = append(out, h)
		}
		j.mu.Unlock()
	}
	sort.Strings(out)
	return out
}
