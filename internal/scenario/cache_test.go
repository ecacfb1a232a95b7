package scenario

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// instantService runs every job at once and counts executions, so cache
// tests can tell a computed result from a cached one.
func instantService(t *testing.T, cacheCap int) (*Service, *atomic.Int64) {
	t.Helper()
	var runs atomic.Int64
	s := NewService(Config{
		Workers: 1, QueueCap: 4, CacheCap: cacheCap, Fingerprint: "test",
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			runs.Add(1)
			return &Result{}, nil
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, &runs
}

// submitWait submits a spec, waits for its result and reports whether it
// was served from the cache.
func submitWait(t *testing.T, s *Service, spec Spec) bool {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return j.Status().Cached
}

func TestCacheLRUEviction(t *testing.T) {
	s, runs := instantService(t, 3)
	for d := 10; d < 13; d++ {
		submitWait(t, s, predSpec("VA", d))
	}
	// Touch day 10 so day 11 becomes least recently used.
	if !submitWait(t, s, predSpec("VA", 10)) {
		t.Fatal("day 10 missing from the cache")
	}
	submitWait(t, s, predSpec("VA", 13))
	got := series(t, s.Registry())
	if got["epi_scenario_cache_evictions_total"] != 1 || got["epi_scenario_cache_entries"] != 3 {
		t.Fatalf("evictions %v / entries %v, want 1/3",
			got["epi_scenario_cache_evictions_total"], got["epi_scenario_cache_entries"])
	}
	for _, d := range []int{10, 12, 13} {
		if !submitWait(t, s, predSpec("VA", d)) {
			t.Fatalf("day %d evicted unexpectedly", d)
		}
	}
	if submitWait(t, s, predSpec("VA", 11)) {
		t.Fatal("day 11 survived eviction despite being LRU")
	}
	if got := runs.Load(); got != 5 {
		t.Fatalf("%d executions want 5 (four distinct specs, one recomputed)", got)
	}
}

func TestCacheRefreshDoesNotGrow(t *testing.T) {
	s, _ := instantService(t, 2)
	for i := 0; i < 3; i++ {
		submitWait(t, s, predSpec("VA", 10))
		submitWait(t, s, predSpec("VA", 11))
	}
	got := series(t, s.Registry())
	if got["epi_scenario_cache_entries"] != 2 || got["epi_scenario_cache_evictions_total"] != 0 {
		t.Fatalf("entries %v / evictions %v, want 2/0",
			got["epi_scenario_cache_entries"], got["epi_scenario_cache_evictions_total"])
	}
}

func TestCacheHitRatio(t *testing.T) {
	s, _ := instantService(t, 2)
	submitWait(t, s, predSpec("VA", 10))
	submitWait(t, s, predSpec("VA", 10))
	submitWait(t, s, predSpec("VA", 10))
	got := series(t, s.Registry())
	if got["epi_scenario_cache_hits_total"] != 2 || got["epi_scenario_cache_misses_total"] != 1 {
		t.Fatalf("hits/misses %v/%v want 2/1",
			got["epi_scenario_cache_hits_total"], got["epi_scenario_cache_misses_total"])
	}
	if want := 2.0 / 3.0; got["epi_scenario_cache_hit_ratio"] != want {
		t.Fatalf("ratio %v want %v", got["epi_scenario_cache_hit_ratio"], want)
	}
	// A lookup miss alone records nothing (the service books misses only
	// for actually scheduled runs).
	if _, ok := s.Lookup("absent"); ok {
		t.Fatal("lookup of unknown id succeeded")
	}
	if got := series(t, s.Registry())["epi_scenario_cache_misses_total"]; got != 1 {
		t.Fatalf("misses %v want 1", got)
	}
}
