package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// The serving stack mirrors episerve's defaults.
const (
	pipelineSeed  = 2020
	servingState  = "VA"
	servingScale  = 2000 // the ~4.3k-person golden VA network
	serveWorkers  = 2
	serveQueue    = 16
	serveCache    = 64
	serveRecorder = 256
	serveMinFit   = 8
	serveFidCache = 64 << 20
	parallelism   = 2
)

// serveStack is one episerve-equivalent process image: pipeline, fidelity
// router, scenario service and the HTTP server on a loopback listener.
type serveStack struct {
	p      *core.Pipeline
	router *fidelity.Router
	svc    *scenario.Service
	srv    *http.Server
	served chan error
	base   string
	hc     *http.Client
	tr     *tracer

	networkS, dbS float64

	// Counter deltas accumulated over traced rounds.
	prom0      map[string]float64
	promDelta  map[string]float64
	snapHits0  int64
	snapMiss0  int64
	snapHits   int64
	snapMisses int64
}

// promCounters are the /metrics series the traced run differences.
var promCounters = []string{
	"epi_scenario_cache_hits_total",
	"epi_scenario_cache_misses_total",
	"epi_scenario_deduped_total",
	"epi_scenario_rejected_total",
	"epi_scenario_shed_total",
}

// newServeStack sets up the pipeline's VA substrates and the serving tier.
// traced installs the timing wrappers around the Backend and the Runner.
func newServeStack(traced bool) (*serveStack, error) {
	p := core.NewPipeline(pipelineSeed, core.WithScale(servingScale), core.WithParallelism(parallelism),
		core.WithSnapshotCacheBytes(core.DefaultSnapshotCacheBytes))
	s := &serveStack{p: p, promDelta: map[string]float64{}}
	t := time.Now()
	if _, err := p.Network(servingState); err != nil {
		return nil, err
	}
	s.networkS = time.Since(t).Seconds()
	t = time.Now()
	if _, err := p.DB(servingState); err != nil {
		return nil, err
	}
	s.dbS = time.Since(t).Seconds()

	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	s.router = fidelity.NewRouter(fidelity.Config{
		Fingerprint: p.Fingerprint(), Scale: servingScale,
		MinFit: serveMinFit, MaxBytes: serveFidCache,
	})
	s.router.RegisterMetrics(reg)
	cfg := scenario.Config{
		Pipeline: p, Workers: serveWorkers, QueueCap: serveQueue, CacheCap: serveCache,
		Registry: reg, Fidelity: s.router,
	}
	if traced {
		s.tr = newTracer(p.Fingerprint())
		cfg.Runner = s.tr.wrapRunner(scenario.FidelityPipelineRunner(p, s.router))
	}
	s.svc = scenario.NewService(cfg)
	so := scenario.NewServingObs(reg, scenario.ServingObsConfig{
		RecorderCapacity: serveRecorder, SLOObjective: 0.99, SLOWindow: time.Hour,
	})
	var h http.Handler
	if traced {
		inner := scenario.NewBackendServer(tracedBackend{Backend: scenario.AsBackend(s.svc), tr: s.tr}, so)
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if op, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
				r = r.WithContext(context.WithValue(r.Context(), opKey{}, op))
			}
			inner.ServeHTTP(w, r)
		})
	} else {
		h = scenario.NewServer(s.svc, so)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.drain()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4, DisableCompression: true,
	}}
	return s, nil
}

// post sends one synchronous scenario request and returns its status,
// body and client-side latency (send to full response).
func (s *serveStack) post(op int, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/scenarios?wait=1", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(op))
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if s.tr != nil && s.tr.on.Load() {
		s.tr.record(op, "client.request", "", "", start, start.Add(lat))
	}
	return resp.StatusCode, out, lat, err
}

// submit posts a spec and decodes a 200 response; any other status,
// transport error or undecodable body is a failed op.
func (s *serveStack) submit(op int, body []byte) (*scenario.Result, time.Duration, error) {
	code, out, lat, err := s.post(op, body)
	if err != nil {
		return nil, lat, fmt.Errorf("transport: %w", err)
	}
	if code != http.StatusOK {
		return nil, lat, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(out))
	}
	var res scenario.Result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, lat, fmt.Errorf("decoding response: %w", err)
	}
	return &res, lat, nil
}

// warm sends set-up requests one at a time; they are never timed.
func (s *serveStack) warm(bodies [][]byte) ([]*scenario.Result, error) {
	out := make([]*scenario.Result, len(bodies))
	for i, b := range bodies {
		res, _, err := s.submit(-1, b)
		if err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

func (s *serveStack) setTracing(on bool) {
	if s.tr != nil {
		s.tr.on.Store(on)
	}
}

func (s *serveStack) roundStart() error {
	var err error
	s.prom0, err = s.scrape()
	st := s.p.SnapshotStats()
	s.snapHits0, s.snapMiss0 = st.Hits, st.Misses
	return err
}

func (s *serveStack) roundEnd() error {
	after, err := s.scrape()
	if err != nil {
		return err
	}
	for k, v := range after {
		s.promDelta[k] += v - s.prom0[k]
	}
	st := s.p.SnapshotStats()
	s.snapHits += st.Hits - s.snapHits0
	s.snapMisses += st.Misses - s.snapMiss0
	return nil
}

// scrape reads the promCounters series from the Prometheus endpoint.
func (s *serveStack) scrape() (map[string]float64, error) {
	resp, err := s.hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		for _, want := range promCounters {
			if name == want {
				if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
					out[name] = v
				}
			}
		}
	}
	return out, sc.Err()
}

func (s *serveStack) setupLayers() map[string]float64 {
	return map[string]float64{"synthpop.network_s": s.networkS, "popdb.db_s": s.dbS}
}

// layers derives the serving-tier breakdown from the traced rounds' spans
// and counters.
func (s *serveStack) layers() map[string]float64 {
	out := map[string]float64{}
	if s.tr == nil {
		return out
	}
	client := map[int]float64{}
	handle := map[int]float64{}
	var admit, queue, fidRun, pred, whatif, night []float64
	tiers := map[string]int{}
	for _, sp := range s.tr.snapshot() {
		switch sp.Name {
		case "client.request":
			client[sp.Op] = sp.Dur
		case "backend.handle":
			handle[sp.Op] = sp.Dur
		case "backend.submit":
			admit = append(admit, sp.Dur)
		case "queue.wait":
			queue = append(queue, sp.Dur/1e3)
		case "runner":
			wf, tier, _ := strings.Cut(sp.Attr, "/")
			if tier != "" {
				tiers[tier]++
			}
			switch {
			case tier == string(fidelity.TierEmulator) || tier == string(fidelity.TierMetapop):
				fidRun = append(fidRun, sp.Dur)
			case wf == scenario.WorkflowPrediction:
				pred = append(pred, sp.Dur/1e3)
			case wf == scenario.WorkflowWhatIf:
				whatif = append(whatif, sp.Dur/1e3)
			case wf == scenario.WorkflowNight:
				night = append(night, sp.Dur/1e3)
			}
		}
	}
	var httpUs []float64
	for op, c := range client {
		if h, ok := handle[op]; ok && op >= 0 {
			httpUs = append(httpUs, c-h)
		}
	}
	out["scenario.http_us"] = median(httpUs)
	out["scenario.admit_us"] = median(admit)
	out["scenario.queue_wait_ms"] = median(queue)
	hits, misses := s.promDelta["epi_scenario_cache_hits_total"], s.promDelta["epi_scenario_cache_misses_total"]
	if hits+misses > 0 {
		out["scenario.cache_hit_ratio"] = hits / (hits + misses)
	}
	out["scenario.dedup_total"] = s.promDelta["epi_scenario_deduped_total"]
	out["scenario.rejected_total"] = s.promDelta["epi_scenario_rejected_total"] + s.promDelta["epi_scenario_shed_total"]
	out["fidelity.run_us"] = median(fidRun)
	out["fidelity.tier_emulator"] = float64(tiers[string(fidelity.TierEmulator)])
	out["fidelity.tier_metapop"] = float64(tiers[string(fidelity.TierMetapop)])
	out["fidelity.tier_abm"] = float64(tiers[string(fidelity.TierABM)])
	out["core.prediction_ms"] = median(pred)
	out["core.whatif_ms"] = median(whatif)
	out["core.night_ms"] = median(night)
	if s.snapHits+s.snapMisses > 0 {
		out["castore.snapshot_hit_ratio"] = float64(s.snapHits) / float64(s.snapHits+s.snapMisses)
	}
	out["castore.snapshot_mb"] = float64(s.p.SnapshotStats().Cost) / (1 << 20)
	return out
}

func (s *serveStack) writeTrace(path string) error {
	if s.tr == nil {
		return nil
	}
	return s.tr.write(path)
}

// close stops the listener, drains the service and waits for the
// router's background refits.
func (s *serveStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	if derr := s.drainCtx(ctx); derr != nil && err == nil {
		err = derr
	}
	return err
}

func (s *serveStack) drain() { _ = s.drainCtx(context.Background()) }

func (s *serveStack) drainCtx(ctx context.Context) error {
	err := s.svc.Drain(ctx)
	s.router.Close()
	return err
}
