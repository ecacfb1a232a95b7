package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// latencyRunner models a fixed service time that honors cancellation — the
// load-proof stand-in for a real workflow execution. The cost is latency,
// not CPU, so the proof measures the serving path rather than the host.
func latencyRunner(d time.Duration) scenario.Runner {
	return func(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
			return &scenario.Result{}, nil
		}
	}
}

// serve starts a scenario service behind the HTTP front door.
func serve(t *testing.T, cfg scenario.Config) *httptest.Server {
	t.Helper()
	svc := scenario.NewService(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	ts := httptest.NewServer(scenario.NewBackendServer(scenario.AsBackend(svc)))
	t.Cleanup(ts.Close)
	return ts
}

// counter scrapes one unlabelled series from the server's /metrics.
func counter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not exposed", name)
	return 0
}

// TestLoadProof is the deterministic short profile behind `make loadtest`:
// 64 concurrent closed-loop clients against one service on cache-miss
// traffic, every request 200, latency percentiles ordered, and the loadgen
// metrics published into a registry.
func TestLoadProof(t *testing.T) {
	const clients, requests = 64, 192
	ts := serve(t, scenario.Config{
		Workers: 4, QueueCap: 128, Fingerprint: "loadproof",
		Runner: latencyRunner(time.Millisecond),
	})

	reg := obs.NewRegistry()
	rep, err := RunLoadgen(LoadgenConfig{
		BaseURL: ts.URL, Clients: clients, Requests: requests,
		Priority: "interactive", Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != requests || rep.Errors != 0 {
		t.Fatalf("ok=%d errors=%d dist=%v, want all %d OK", rep.OK, rep.Errors, rep.StatusDist, requests)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("percentiles out of order: p50=%s p99=%s", rep.P50, rep.P99)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput %.2f, want > 0", rep.Throughput)
	}
	// Every request was a distinct spec, so each one was computed: fewer
	// submissions would mean specs accidentally shared a cache entry.
	if got := counter(t, ts.URL, "epi_scenario_submitted_total"); got != requests {
		t.Fatalf("service submitted %v, want %d cache misses", got, requests)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "epi_loadgen_requests_total "+strconv.Itoa(requests)) {
		t.Fatalf("loadgen metrics missing:\n%s", sb.String())
	}
	t.Logf("load proof: p50=%s p99=%s throughput=%.1f req/s", rep.P50, rep.P99, rep.Throughput)
}

// TestRunLoadgenFixedSpecHitsCache pins the -fixed profile: one identical
// spec from every client rides the single-flight/cache path, so the
// service runs it exactly once.
func TestRunLoadgenFixedSpecHitsCache(t *testing.T) {
	ts := serve(t, scenario.Config{
		Workers: 2, QueueCap: 32, Fingerprint: "loadfixed",
		Runner: latencyRunner(time.Millisecond),
	})
	fixed := scenario.Spec{Workflow: scenario.WorkflowPrediction, State: "VA", Days: 30}
	rep, err := RunLoadgen(LoadgenConfig{
		BaseURL: ts.URL, Clients: 16, Requests: 64,
		SpecFor: func(int, int) scenario.Spec { return fixed },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 64 {
		t.Fatalf("ok=%d dist=%v, want 64", rep.OK, rep.StatusDist)
	}
	if got := counter(t, ts.URL, "epi_scenario_submitted_total"); got != 1 {
		t.Fatalf("fixed spec executed %v times, want 1 (single-flight + cache)", got)
	}
}

// countingBackend decorates a Backend and counts the submissions it sees.
type countingBackend struct {
	scenario.Backend
	submits atomic.Int64
}

func (b *countingBackend) Submit(ctx context.Context, spec scenario.Spec, pri scenario.Priority) (scenario.Handle, error) {
	b.submits.Add(1)
	return b.Backend.Submit(ctx, spec, pri)
}

// TestLoadgenOverWrappedBackend runs the load generator against the HTTP
// front door built over a decorated Backend rather than a bare service:
// every request must pass through the wrapper and come back 200, and the
// server's other routes must still answer through it.
func TestLoadgenOverWrappedBackend(t *testing.T) {
	svc := scenario.NewService(scenario.Config{
		Workers: 2, QueueCap: 8, Fingerprint: "wrapped",
		Runner: latencyRunner(time.Millisecond),
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	b := &countingBackend{Backend: scenario.AsBackend(svc)}
	ts := httptest.NewServer(scenario.NewBackendServer(b))
	t.Cleanup(ts.Close)

	rep, err := RunLoadgen(LoadgenConfig{BaseURL: ts.URL, Clients: 8, Requests: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 16 || rep.Errors != 0 {
		t.Fatalf("loadgen over wrapped backend: %+v", rep)
	}
	if got := b.submits.Load(); got != 16 {
		t.Fatalf("wrapper saw %d submissions, want 16", got)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
}
