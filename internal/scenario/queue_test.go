package scenario

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// stubRunner counts executions and blocks each run on a gate until released
// or the run's context is cancelled.
type stubRunner struct {
	runs    atomic.Int64
	started chan string   // receives the spec's state+workflow when a run begins
	gate    chan struct{} // each receive releases one run
}

func newStubRunner() *stubRunner {
	return &stubRunner{started: make(chan string, 64), gate: make(chan struct{}, 64)}
}

func (r *stubRunner) run(ctx context.Context, spec Spec) (*Result, error) {
	r.runs.Add(1)
	r.started <- spec.Workflow + "/" + spec.State
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.gate:
		return &Result{}, nil
	}
}

// releaseAll opens the gate for n runs.
func (r *stubRunner) releaseAll(n int) {
	for i := 0; i < n; i++ {
		r.gate <- struct{}{}
	}
}

func stubService(t *testing.T, workers, queueCap int) (*Service, *stubRunner) {
	t.Helper()
	r := newStubRunner()
	s := NewService(Config{Workers: workers, QueueCap: queueCap, Runner: r.run, Fingerprint: "test"})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, r
}

func predSpec(state string, days int) Spec {
	return Spec{Workflow: WorkflowPrediction, State: state, Days: days}
}

// parseSeries reads a Prometheus text exposition into sample values keyed
// by the full series name, labels included.
func parseSeries(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// series snapshots every sample on a registry.
func series(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return parseSeries(t, b.String())
}

// waitSeries polls a registry series until it reaches want.
func waitSeries(t *testing.T, reg *obs.Registry, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if series(t, reg)[name] == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s = %v, want %v", name, series(t, reg)[name], want)
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status().State == want.String() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.Hash, j.Status().State, want)
}

func TestSubmitValidationErrors(t *testing.T) {
	s, _ := stubService(t, 1, 4)
	var bad *BadSpecError
	if _, err := s.Submit(Spec{Workflow: "bogus"}); !errors.As(err, &bad) {
		t.Fatalf("want BadSpecError, got %v", err)
	}
	if _, err := s.Submit(predSpec("ZZ", 10)); !errors.As(err, &bad) {
		t.Fatalf("want BadSpecError for bad state, got %v", err)
	}
}

func TestSingleflightSharesOneRun(t *testing.T) {
	s, r := stubService(t, 2, 8)
	j1, err := s.Submit(predSpec("VA", 30))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // running and blocked on the gate
	j2, err := s.Submit(predSpec("va", 30))
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight specs did not share a job")
	}
	if got := j2.Status().Shared; got != 1 {
		t.Fatalf("shared %d want 1", got)
	}
	r.releaseAll(1)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("%d executions want 1", got)
	}
}

func TestCacheHitSkipsQueue(t *testing.T) {
	s, r := stubService(t, 1, 4)
	j, err := s.Submit(predSpec("VA", 20))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	r.releaseAll(1)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(predSpec("VA", 20))
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if st.State != "done" || !st.Cached {
		t.Fatalf("resubmit not served from cache: %+v", st)
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("%d executions want 1 (second served from cache)", got)
	}
	res, err := j2.Wait(context.Background())
	if err != nil || res == nil {
		t.Fatalf("cached job result: %v %v", res, err)
	}
	if res.Hash != j.Hash {
		t.Fatalf("cached hash %s want %s", res.Hash, j.Hash)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s, r := stubService(t, 1, 1)
	// One running (blocked on the gate) + one queued fills the service.
	j1, err := s.Submit(predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	if _, err := s.Submit(predSpec("VA", 11)); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(predSpec("VA", 12))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := series(t, s.Registry())["epi_scenario_rejected_total"]; got != 1 {
		t.Fatalf("rejected %v want 1", got)
	}
	// Deduplication onto the running job still succeeds under a full queue.
	if _, err := s.Submit(predSpec("VA", 10)); err != nil {
		t.Fatalf("singleflight attach rejected: %v", err)
	}
	j1.Release() // drop the extra attach reference
	r.releaseAll(2)
}

// fillQueue occupies the single worker and then queues n more distinct
// interactive jobs; the returned jobs are released at test cleanup.
func fillQueue(t *testing.T, s *Service, r *stubRunner, n int) {
	t.Helper()
	var jobs []*Job
	for i := 0; i <= n; i++ {
		j, err := s.SubmitPri(predSpec("VA", 10+i), PriorityInteractive)
		if err != nil {
			t.Fatalf("interactive submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
		if i == 0 {
			<-r.started
		}
	}
	t.Cleanup(func() {
		r.releaseAll(n + 1)
		for _, j := range jobs {
			j.Release()
		}
	})
}

// TestBatchClassShedsBeforeQueueFull pins the class budget: once half the
// queue is occupied a batch submission is shed while normal traffic is
// still admitted.
func TestBatchClassShedsBeforeQueueFull(t *testing.T) {
	s, r := stubService(t, 1, 8)
	fillQueue(t, s, r, 4)
	var shed *ShedError
	if _, err := s.SubmitPri(predSpec("VA", 80), PriorityBatch); !errors.As(err, &shed) {
		t.Fatalf("want batch shed at half queue, got %v", err)
	}
	if shed.Depth != 4 || shed.Capacity != 8 {
		t.Fatalf("shed at %d/%d, want 4/8", shed.Depth, shed.Capacity)
	}
	j, err := s.SubmitPri(predSpec("VA", 81), PriorityNormal)
	if err != nil {
		t.Fatalf("normal class should still admit: %v", err)
	}
	j.Release()
	got := series(t, s.Registry())
	if got["epi_scenario_shed_total"] != 1 || got["epi_scenario_rejected_total"] != 0 {
		t.Fatalf("shed %v / rejected %v, want 1/0",
			got["epi_scenario_shed_total"], got["epi_scenario_rejected_total"])
	}
}

// TestQueueFullBeatsClassShed pins the saturation signal: at a full queue
// every class, batch included, gets ErrQueueFull rather than a class shed
// (class sheds only happen while room remains for a higher class).
func TestQueueFullBeatsClassShed(t *testing.T) {
	s, r := stubService(t, 1, 4)
	fillQueue(t, s, r, 4)
	for _, pri := range []Priority{PriorityInteractive, PriorityNormal, PriorityBatch} {
		if _, err := s.SubmitPri(predSpec("VA", 90), pri); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("%s at a full queue: want ErrQueueFull, got %v", pri, err)
		}
	}
	if got := series(t, s.Registry())["epi_scenario_shed_total"]; got != 0 {
		t.Fatalf("shed %v, want 0 at a full queue", got)
	}
}

func TestReleaseCancelsAbandonedJobs(t *testing.T) {
	s, r := stubService(t, 1, 4)
	running, err := s.Submit(predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	queued, err := s.Submit(predSpec("VA", 11))
	if err != nil {
		t.Fatal(err)
	}
	// Abandoning a queued job cancels it synchronously — no worker time.
	queued.Release()
	if st := queued.Status().State; st != "canceled" {
		t.Fatalf("abandoned queued job state %s want canceled", st)
	}
	// Abandoning a running job cancels its context; the runner unwinds.
	running.Release()
	waitState(t, running, StateCanceled)
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("%d executions want 1 (queued job never ran)", got)
	}
	if got := series(t, s.Registry())[`epi_scenario_jobs_total{state="canceled"}`]; got != 2 {
		t.Fatalf("canceled count %v want 2", got)
	}
}

// TestAbandonedQueuedJobFreesSlot is the regression test for queue-slot
// leaks: a queued job that is abandoned or cancelled must give its slot
// back at once, so the next submission is admitted rather than refused
// while the reported depth sits below capacity.
func TestAbandonedQueuedJobFreesSlot(t *testing.T) {
	s, r := stubService(t, 1, 2)
	running, err := s.Submit(predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	a, err := s.Submit(predSpec("VA", 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(predSpec("VA", 12))
	if err != nil {
		t.Fatal(err)
	}
	a.Release() // abandoned while queued
	c, err := s.Submit(predSpec("VA", 13))
	if err != nil {
		t.Fatalf("submit after abandoning a queued job: %v (queue depth %v)",
			err, series(t, s.Registry())["epi_scenario_queue_depth"])
	}
	if !s.Cancel(b.Hash) { // explicitly cancelled while queued
		t.Fatal("cancel queued failed")
	}
	d, err := s.Submit(predSpec("VA", 14))
	if err != nil {
		t.Fatalf("submit after cancelling a queued job: %v", err)
	}
	if _, err := s.Submit(predSpec("VA", 15)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull with both slots taken, got %v", err)
	}
	got := series(t, s.Registry())
	if got["epi_scenario_queue_depth"] != 2 || got["epi_scenario_rejected_total"] != 1 {
		t.Fatalf("queue depth %v / rejected %v, want 2/1",
			got["epi_scenario_queue_depth"], got["epi_scenario_rejected_total"])
	}
	// The freed slots run the surviving jobs in FIFO order.
	r.releaseAll(3)
	for _, j := range []*Job{running, c, d} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.runs.Load(); got != 3 {
		t.Fatalf("%d executions want 3 (abandoned and cancelled jobs never ran)", got)
	}
}

func TestPinnedJobSurvivesRelease(t *testing.T) {
	s, r := stubService(t, 1, 4)
	j, err := s.Submit(predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	j.Pin()
	j.Release()
	<-r.started
	if st := j.Status().State; st != "running" {
		t.Fatalf("pinned job state %s want running", st)
	}
	r.releaseAll(1)
	waitState(t, j, StateDone)
}

func TestExplicitCancel(t *testing.T) {
	s, r := stubService(t, 1, 4)
	running, _ := s.Submit(predSpec("VA", 10))
	running.Pin()
	running.Release()
	<-r.started
	queued, _ := s.Submit(predSpec("VA", 11))
	queued.Pin()
	queued.Release()

	if !s.Cancel(queued.Hash) {
		t.Fatal("cancel queued failed")
	}
	if st := queued.Status().State; st != "canceled" {
		t.Fatalf("queued job state %s want canceled", st)
	}
	if !s.Cancel(running.Hash) {
		t.Fatal("cancel running failed")
	}
	waitState(t, running, StateCanceled)
	if s.Cancel(running.Hash) {
		t.Fatal("cancel of finished job reported success")
	}
	if s.Cancel("no-such-id") {
		t.Fatal("cancel of unknown id reported success")
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("%d executions want 1", got)
	}
}

func TestLookupFindsTerminalAndCachedJobs(t *testing.T) {
	s, r := stubService(t, 1, 4)
	j, _ := s.Submit(predSpec("VA", 10))
	<-r.started
	r.releaseAll(1)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Lookup(j.Hash)
	if !ok || got.Status().State != "done" {
		t.Fatalf("lookup after completion: ok=%v", ok)
	}
	if _, ok := s.Lookup("absent"); ok {
		t.Fatal("lookup of unknown id succeeded")
	}
}

func TestDrainRunsQueuedJobsThenRejects(t *testing.T) {
	r := newStubRunner()
	s := NewService(Config{Workers: 1, QueueCap: 8, Runner: r.run, Fingerprint: "test"})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(predSpec("VA", 10+i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	r.releaseAll(3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, j := range jobs {
		if st := j.Status().State; st != "done" {
			t.Fatalf("job %d state %s want done after drain", i, st)
		}
	}
	if _, err := s.Submit(predSpec("VA", 99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	r := newStubRunner()
	s := NewService(Config{Workers: 1, QueueCap: 4, Runner: r.run, Fingerprint: "test"})
	j, err := s.Submit(predSpec("VA", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // runner blocked, never released
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v want deadline exceeded", err)
	}
	if st := j.Status().State; st != "canceled" {
		t.Fatalf("straggler state %s want canceled", st)
	}
}

func TestMetricsSeries(t *testing.T) {
	s, r := stubService(t, 2, 4)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(predSpec("VA", 20+i)); err != nil {
			t.Fatal(err)
		}
	}
	r.releaseAll(3)
	waitSeries(t, s.Registry(), `epi_scenario_jobs_total{state="done"}`, 3)
	got := series(t, s.Registry())
	for name, want := range map[string]float64{
		"epi_scenario_submitted_total":                                         3,
		"epi_scenario_queue_capacity":                                          4,
		"epi_scenario_workers":                                                 2,
		"epi_scenario_cache_misses_total":                                      3,
		`epi_scenario_latency_seconds_count{workflow="prediction"}`:            3,
		`epi_scenario_latency_seconds_bucket{workflow="prediction",le="+Inf"}`: 3,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestRecentEvictionKeepsRegistryBounded(t *testing.T) {
	s, r := stubService(t, 1, 4)
	go func() {
		for {
			if _, ok := <-r.started; !ok {
				return
			}
			r.gate <- struct{}{}
		}
	}()
	var last *Job
	for i := 0; i < recentCap+10; i++ {
		j, err := s.Submit(predSpec("VA", (i%300)+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	s.mu.Lock()
	regSize, recSize := len(s.registry), len(s.recent)
	s.mu.Unlock()
	if recSize > recentCap || regSize > recentCap+1 {
		t.Fatalf("registry/recent grew unbounded: %d/%d", regSize, recSize)
	}
	if _, ok := s.Lookup(last.Hash); !ok {
		t.Fatal("most recent job evicted")
	}
	close(r.started)
}

// TestBackendCancelAndAbandon drives cancellation through the Backend
// surface the HTTP layer uses: Cancel by ID stops a running submission and
// its waiter sees the cancellation, and a waiter that releases its only
// interest in a running submission abandons it.
func TestBackendCancelAndAbandon(t *testing.T) {
	s, r := stubService(t, 2, 8)
	b := AsBackend(s)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	h, err := b.Submit(ctx, predSpec("VA", 30), PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	if !b.Cancel(h.ID()) {
		t.Fatal("Cancel refused a running submission")
	}
	if _, err := h.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation, got %v", err)
	}
	h.Release()

	h2, err := b.Submit(ctx, predSpec("NC", 30), PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	h2.Release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, ok := b.Lookup(h2.ID()); ok && got.Status().State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned running submission never finalized as canceled")
		}
		time.Sleep(time.Millisecond)
	}
	if got := r.runs.Load(); got != 2 {
		t.Fatalf("%d executions want 2", got)
	}
}
