package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// BenchmarkScenarioQueueThroughput measures how fast the scenario service
// moves distinct jobs through its bounded queue and worker pool, with a
// no-op runner isolating the queue/bookkeeping overhead from workflow cost.
func BenchmarkScenarioQueueThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			svc := scenario.NewService(scenario.Config{
				Workers: workers, QueueCap: 64, CacheCap: 1,
				Fingerprint: "bench",
				Runner: func(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
					return &scenario.Result{}, nil
				},
			})
			defer svc.Drain(context.Background())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Cycle distinct specs so every submission is a fresh job,
				// not a cache hit (CacheCap 1 evicts almost immediately).
				j, err := svc.Submit(scenario.Spec{
					Workflow: "prediction", State: "VA", Days: (i % 300) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := j.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioColdVsWarm contrasts a cold submission (full prediction
// workflow execution) with a warm one served from the content-addressed
// cache — the latency the cache buys for repeated policy questions.
func BenchmarkScenarioColdVsWarm(b *testing.B) {
	spec := scenario.Spec{
		Workflow: "prediction", State: "RI", Days: 30, Replicates: 2,
		Configs: []scenario.ParamSpec{{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4}},
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := core.NewPipeline(uint64(i)+1, core.WithScale(40000), core.WithParallelism(2))
			svc := scenario.NewService(scenario.Config{Pipeline: p, Workers: 1, QueueCap: 4, CacheCap: 4})
			b.StartTimer()
			j, err := svc.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := j.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			svc.Drain(context.Background())
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		p := core.NewPipeline(1, core.WithScale(40000), core.WithParallelism(2))
		svc := scenario.NewService(scenario.Config{Pipeline: p, Workers: 1, QueueCap: 4, CacheCap: 4})
		defer svc.Drain(context.Background())
		j, err := svc.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, err := svc.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := j.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		var exp strings.Builder
		if err := svc.Registry().WritePrometheus(&exp); err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(exp.String(), fmt.Sprintf("\nepi_scenario_cache_hits_total %d\n", b.N)) {
			b.Fatalf("cache hits want %d (warm path fell through to execution):\n%s", b.N, exp.String())
		}
	})
}
