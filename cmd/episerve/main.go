// Command episerve is the scenario service: an HTTP front end over the
// three production workflows (prediction, what-if, nightly). Policy-makers
// submit scenario specs, the service content-addresses each spec, runs it
// through a bounded job queue over a shared core.Pipeline, and serves
// results from an LRU cache with single-flight deduplication. One
// scenario.Service answers every request; -workers alone sets how many
// jobs run at once, and ?priority=interactive|normal|batch selects the
// admission class.
//
// Usage:
//
//	episerve -addr :8080 -workers 2 -queue 16 -cache 64 -scale 20000 -seed 2020
//
// Submit, poll and fetch:
//
//	curl -s -X POST localhost:8080/scenarios -d '{"workflow":"prediction","state":"VA","days":60}'
//	curl -s localhost:8080/scenarios/<id>
//	curl -s localhost:8080/scenarios/<id>/result
//	curl -s localhost:8080/readyz           # readiness incl. fidelity tier warm state
//	curl -s localhost:8080/metrics          # Prometheus text (unified registry)
//
// With -fidelity (default on), specs may carry "fidelity": "auto" and a
// "max_uncertainty" budget: the service then answers from a GP emulator or
// the corrected county metapop when they can meet the budget, running the
// full ABM only otherwise (and folding every ABM answer back into the
// emulator's training set). "fidelity": "abm" forces the exact path;
// omitting the field keeps the legacy behavior byte-for-byte.
//
// /metrics serves the unified registry: service counters (submissions,
// queue, cache, per-workflow latency histograms) plus the shared pipeline's
// transfer-ledger and fault counters and the what-if snapshot store
// (epi_snapshot_* hit/miss/eviction/occupancy series; budget set by
// -snap-cache). -pprof additionally mounts net/http/pprof under
// /debug/pprof/.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, queued
// and in-flight jobs drain (bounded by -drain-timeout), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "worker pool size")
	queueCap := flag.Int("queue", 16, "job queue capacity (full queue returns 429)")
	cacheCap := flag.Int("cache", 64, "result cache capacity (LRU entries)")
	snapCacheMB := flag.Int64("snap-cache", core.DefaultSnapshotCacheBytes>>20,
		"what-if snapshot cache budget in MB (0 disables cross-request prefix reuse)")
	scale := flag.Int("scale", 20000, "population scale (1:N)")
	seed := flag.Uint64("seed", 2020, "pipeline random seed")
	parallelism := flag.Int("parallelism", 2, "per-simulation processing units; superseded by -shards when set")
	shards := flag.Int("shards", 0, "per-simulation shard count, each shard owning a disjoint node range (0 = -parallelism); results are bit-identical at any value")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful shutdown budget")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	enableFidelity := flag.Bool("fidelity", true,
		"enable the fidelity ladder (specs with a fidelity field route through emulator/metapop/abm tiers)")
	fidelityMinFit := flag.Int("fidelity-min-fit", 8, "ABM design points before a family's emulator fits")
	fidelityCacheMB := flag.Int64("fidelity-cache", 64, "fidelity training-set cache budget in MB")
	recorderCap := flag.Int("recorder", 256,
		"flight-recorder capacity: last N request traces kept at /debug/requests (0 disables request tracing, RED series and /slo)")
	sloP99 := flag.Duration("slo-p99", 0,
		"latency objective a good request must meet (0 = error-budget SLO only)")
	sloObjective := flag.Float64("slo-objective", 0.99,
		"fraction of requests that must be good over -slo-window")
	sloWindow := flag.Duration("slo-window", time.Hour,
		"long SLO burn window; burn rates also computed over window/12 and window/3")
	requestJournal := flag.String("request-journal", "",
		"JSONL file receiving every request-trace span/event (flushed and closed on drain); empty disables")
	flag.Parse()

	effShards := *shards
	if effShards <= 0 {
		effShards = *parallelism
	}
	p := core.NewPipeline(*seed, core.WithScale(*scale), core.WithParallelism(effShards),
		core.WithSnapshotCacheBytes(*snapCacheMB<<20))
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	var router *fidelity.Router
	if *enableFidelity {
		router = fidelity.NewRouter(fidelity.Config{
			Fingerprint: p.Fingerprint(), Scale: *scale,
			MinFit: *fidelityMinFit, MaxBytes: *fidelityCacheMB << 20,
		})
		router.RegisterMetrics(reg)
		defer router.Close()
	}
	svc := scenario.NewService(scenario.Config{
		Pipeline: p, Workers: *workers, QueueCap: *queueCap, CacheCap: *cacheCap,
		Registry: reg, Fidelity: router,
	})
	// Request-scoped serving observability: trace every scenario request
	// into the flight recorder, optionally teeing the span/event stream to
	// a JSONL journal that MUST be flushed+closed after drain (the tail of
	// a terminated run is exactly the part worth keeping).
	var servingObs *scenario.ServingObs
	var journal *obs.Journal
	if *recorderCap > 0 {
		obsCfg := scenario.ServingObsConfig{
			RecorderCapacity: *recorderCap,
			SLOTarget:        *sloP99,
			SLOObjective:     *sloObjective,
			SLOWindow:        *sloWindow,
		}
		if *requestJournal != "" {
			var err error
			journal, err = obs.OpenFileJournal(*requestJournal)
			if err != nil {
				log.Fatalf("request journal: %v", err)
			}
			obsCfg.Journal = journal
		}
		servingObs = scenario.NewServingObs(reg, obsCfg)
	}
	var handler http.Handler = scenario.NewServer(svc, servingObs)
	if *enablePprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() {
		log.Printf("episerve listening on %s (workers=%d queue=%d cache=%d scale=1:%d seed=%d)",
			*addr, *workers, *queueCap, *cacheCap, *scale, *seed)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("received %s, draining (budget %s)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Drain(ctx); err != nil {
		log.Printf("drain interrupted, in-flight jobs canceled: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	// Close the request journal only after the drain settled: jobs that ran
	// to completion during the drain emit their final spans through it, and
	// Close flushes the buffered writer so those last entries survive.
	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Printf("request journal close: %v", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
}
