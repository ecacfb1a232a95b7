package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// obsServer builds a stub-backed server with serving observability over a
// shared registry, so RED series land on the same /metrics the service
// exports. The runner reports the engine-side shape the real pipeline
// produces: an engine span carrying the fidelity router's tier decision.
func obsServer(t *testing.T, workers, queueCap int) (*httptest.Server, *stubRunner) {
	t.Helper()
	reg := obs.NewRegistry()
	r := newStubRunner()
	svc := NewService(Config{
		Workers: workers, QueueCap: queueCap, Fingerprint: "test", Registry: reg,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			ectx, sp := obs.StartSpan(ctx, "engine.run")
			defer sp.End()
			obs.Event(ectx, "fidelity.route", obs.String("tier", "metapop"), obs.String("reason", "stub"))
			return r.run(ectx, spec)
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	so := NewServingObs(reg, ServingObsConfig{RecorderCapacity: 64, SLOTarget: time.Minute})
	ts := httptest.NewServer(NewServer(svc, so))
	t.Cleanup(ts.Close)
	return ts, r
}

// postSpecID posts a spec with an explicit X-Request-Id header.
func postSpecID(t *testing.T, ts *httptest.Server, spec Spec, query, reqID string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/scenarios"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

// findSpan walks a snapshot tree for a span by name.
func findSpan(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if m := findSpan(c, name); m != nil {
			return m
		}
	}
	return nil
}

// TestServingObsTraceEndToEnd drives one synchronous request through the
// traced server and pulls its span tree back out of the flight recorder:
// the trace must carry the queue wait, the job.run span with the engine
// span and fidelity tier decision beneath it, the classified
// workflow/priority, and the content-address annotation.
func TestServingObsTraceEndToEnd(t *testing.T) {
	ts, r := obsServer(t, 2, 8)
	r.releaseAll(1)

	const reqID = "feedfacefeedface"
	resp, _ := postSpecID(t, ts, predSpec("VA", 42), "?wait=1&priority=interactive", reqID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Fatalf("X-Request-Id echo = %q, want %q", got, reqID)
	}

	var view obs.TraceView
	if code := getJSON(t, ts.URL+"/debug/requests/"+reqID, &view); code != http.StatusOK {
		t.Fatalf("debug get: %d", code)
	}
	if view.ID != reqID || view.Workflow != "prediction" || view.Priority != "interactive" {
		t.Fatalf("trace summary: %+v", view.TraceSummary)
	}
	if view.Status != http.StatusOK || !view.Done {
		t.Fatalf("trace not finished: status=%d done=%v", view.Status, view.Done)
	}
	if view.Annos["hash"] == nil {
		t.Fatalf("missing hash annotation: %v", view.Annos)
	}
	qs := findSpan(view.Root, "queue.wait")
	if qs == nil {
		t.Fatalf("no queue.wait span in trace: %+v", view.Root)
	}
	if qs.Attrs["outcome"] != "run" {
		t.Fatalf("queue.wait outcome: %v", qs.Attrs)
	}
	run := findSpan(view.Root, "job.run")
	if run == nil {
		t.Fatal("no job.run span in trace")
	}
	engine := findSpan(run, "engine.run")
	if engine == nil {
		t.Fatal("no engine span under job.run")
	}
	if len(engine.Events) != 1 || engine.Events[0].Name != "fidelity.route" ||
		engine.Events[0].Attrs["tier"] != "metapop" {
		t.Fatalf("engine span events %+v, want one fidelity.route with tier metapop", engine.Events)
	}

	// The listing includes the request, newest first.
	var list struct {
		Count    int                `json:"count"`
		Requests []obs.TraceSummary `json:"requests"`
	}
	if code := getJSON(t, ts.URL+"/debug/requests", &list); code != http.StatusOK {
		t.Fatalf("debug list: %d", code)
	}
	found := false
	for _, s := range list.Requests {
		found = found || s.ID == reqID
	}
	if !found || list.Count == 0 {
		t.Fatalf("request %s missing from listing: %+v", reqID, list)
	}
}

// TestServingObsMintsRequestID checks a client that sends no X-Request-Id
// still gets a retrievable trace under a server-minted ID.
func TestServingObsMintsRequestID(t *testing.T) {
	ts, r := obsServer(t, 1, 4)
	r.releaseAll(1)
	resp, _ := postSpecID(t, ts, predSpec("RI", 30), "?wait=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if len(id) != 16 {
		t.Fatalf("minted id %q, want 16 hex chars", id)
	}
	if code := getJSON(t, ts.URL+"/debug/requests/"+id, nil); code != http.StatusOK {
		t.Fatalf("trace for minted id: %d", code)
	}
}

// TestServingObsAsyncTraceFills pins the flight recorder's live-trace
// semantics: a 202 submission's trace is recorded at HTTP completion but
// keeps growing as the job runs, so a later read shows the engine span.
func TestServingObsAsyncTraceFills(t *testing.T) {
	ts, r := obsServer(t, 1, 4)
	resp, _ := postSpecID(t, ts, predSpec("VT", 21), "", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	<-r.started // the job is now running; its trace already holds queue.wait
	var view obs.TraceView
	if code := getJSON(t, ts.URL+"/debug/requests/"+id, &view); code != http.StatusOK {
		t.Fatalf("debug get: %d", code)
	}
	if view.Status != http.StatusAccepted {
		t.Fatalf("async trace status = %d, want 202", view.Status)
	}
	if findSpan(view.Root, "job.run") != nil {
		t.Fatal("job.run closed before the gate opened")
	}
	r.releaseAll(1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, ts.URL+"/debug/requests/"+id, &view)
		if findSpan(view.Root, "job.run") != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job.run span never appeared in the async trace")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServingObsREDAndSLO checks the RED series reach /metrics and the /slo
// report books good traffic while excluding 4xx from the SLI.
func TestServingObsREDAndSLO(t *testing.T) {
	ts, r := obsServer(t, 1, 4)
	r.releaseAll(1)
	if resp, _ := postSpecID(t, ts, predSpec("VA", 14), "?wait=1", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// A 4xx: bad workflow fails validation. Excluded from the SLI, but the
	// errored trace is always-kept in the recorder.
	resp, _ := postSpecID(t, ts, Spec{Workflow: "bogus"}, "?wait=1", "badbadbadbadbad0")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}

	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	for _, want := range []string{
		`epi_http_requests_total{workflow="prediction",priority="normal",code="200"} 1`,
		`epi_http_requests_total{workflow="bogus",priority="normal",code="400"} 1`,
		`epi_http_request_seconds`,
		`epi_slo_burn_rate`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, metrics)
		}
	}

	var slo struct {
		Aggregate obs.SLOReport            `json:"aggregate"`
		Series    map[string]obs.SLOReport `json:"series"`
	}
	if code := getJSON(t, ts.URL+"/slo", &slo); code != http.StatusOK {
		t.Fatalf("/slo: %d", code)
	}
	if slo.Aggregate.TotalGood != 1 || slo.Aggregate.TotalBad != 0 {
		t.Fatalf("aggregate SLI: good=%d bad=%d (4xx must not count)",
			slo.Aggregate.TotalGood, slo.Aggregate.TotalBad)
	}
	if _, ok := slo.Series["prediction|normal"]; !ok {
		t.Fatalf("missing prediction|normal series: %v", slo.Series)
	}
	if code := getJSON(t, ts.URL+"/debug/requests/badbadbadbadbad0", nil); code != http.StatusOK {
		t.Fatalf("errored trace not kept: %d", code)
	}
}

// TestServerWithoutObsUnchanged pins the nil-ServingObs contract: no
// X-Request-Id header, no debug or SLO routes — the pre-observability
// surface exactly.
func TestServerWithoutObsUnchanged(t *testing.T) {
	ts, _, r := testServer(t, 1, 4)
	r.releaseAll(1)
	resp, _ := postSpec(t, ts, predSpec("VA", 30), "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "" {
		t.Fatalf("untraced server set X-Request-Id %q", got)
	}
	for _, path := range []string{"/debug/requests", "/slo"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Fatalf("%s = %d on untraced server, want 404", path, code)
		}
	}
}

// TestTracedServiceBitIdentity pins traced≡untraced at the serving layer:
// the same workload through one service over HTTP produces byte-identical
// results (timing field zeroed) whether serving observability is off or
// on with the flight recorder and request journal engaged — tracing reads
// clocks, never the simulation's RNG.
func TestTracedServiceBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline service in short mode")
	}
	params := []ParamSpec{{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.4, VHICompliance: 0.4}}
	specs := []Spec{
		{Workflow: "prediction", State: "RI", Days: 25, Replicates: 2, Configs: params},
		{
			Workflow: "whatif", State: "RI", Days: 20, Replicates: 1, Configs: params,
			WhatIfs: []WhatIfSpec{{Name: "sh-lifted-1w-early", SHEndShift: -7}},
		},
	}
	normalize := func(i int, payload []byte) string {
		var r Result
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		if (i == 0 && (r.Prediction == nil || len(r.Prediction.Confirmed.Median) != 25)) ||
			(i == 1 && len(r.Scenarios) != 1) {
			t.Fatalf("spec %d: result malformed: %s", i, payload)
		}
		r.ElapsedSeconds = 0 // wall time: the only field allowed to differ
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	run := func(traced bool) []string {
		reg := obs.NewRegistry()
		p := core.NewPipeline(77, core.WithScale(40000), core.WithParallelism(2))
		svc := NewService(Config{Pipeline: p, Workers: 1, QueueCap: 8, CacheCap: 8, Registry: reg})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = svc.Drain(ctx)
		}()
		var so *ServingObs
		if traced {
			so = NewServingObs(reg, ServingObsConfig{RecorderCapacity: 16, Journal: obs.NewCollector(nil)})
		}
		ts := httptest.NewServer(NewServer(svc, so))
		defer ts.Close()
		var out []string
		for i, spec := range specs {
			id := ""
			if traced {
				id = obs.NewRequestID()
			}
			resp, payload := postSpecID(t, ts, spec, "?wait=1", id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("spec %d (traced=%v): %d: %s", i, traced, resp.StatusCode, payload)
			}
			out = append(out, normalize(i, payload))
			if traced {
				var view obs.TraceView
				if code := getJSON(t, ts.URL+"/debug/requests/"+id, &view); code != http.StatusOK {
					t.Fatalf("spec %d: debug get %d", i, code)
				}
				if findSpan(view.Root, "queue.wait") == nil || findSpan(view.Root, "job.run") == nil {
					t.Fatalf("spec %d: traced run missing queue.wait/job.run spans", i)
				}
			}
		}
		return out
	}
	plain, traced := run(false), run(true)
	for i := range specs {
		if plain[i] != traced[i] {
			t.Errorf("spec %d: traced result differs from untraced:\nuntraced: %.200s\ntraced:   %.200s",
				i, plain[i], traced[i])
		}
	}
}

// TestConcurrentTracesStayApart posts two distinct specs at once under two
// request IDs. Each request's trace must carry its own full path — queue
// wait, job.run, engine span and fidelity tier decision — for its own
// content address, never the other request's run.
func TestConcurrentTracesStayApart(t *testing.T) {
	ts, r := obsServer(t, 2, 8)
	r.releaseAll(2)

	specs := map[string]Spec{
		"aaaaaaaaaaaaaaaa": predSpec("VA", 40),
		"bbbbbbbbbbbbbbbb": predSpec("NC", 41),
	}
	hashes := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, spec := range specs {
		wg.Add(1)
		go func(id string, spec Spec) {
			defer wg.Done()
			resp, payload := postSpecID(t, ts, spec, "?wait=1", id)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", id, resp.StatusCode, payload)
				return
			}
			if got := resp.Header.Get("X-Request-Id"); got != id {
				t.Errorf("%s: X-Request-Id echo %q", id, got)
			}
			var res Result
			if err := json.Unmarshal(payload, &res); err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			mu.Lock()
			hashes[id] = res.Hash
			mu.Unlock()
		}(id, spec)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if hashes["aaaaaaaaaaaaaaaa"] == hashes["bbbbbbbbbbbbbbbb"] {
		t.Fatalf("distinct specs share a content address: %v", hashes)
	}

	for id, hash := range hashes {
		var view obs.TraceView
		if code := getJSON(t, ts.URL+"/debug/requests/"+id, &view); code != http.StatusOK {
			t.Fatalf("%s: debug get %d", id, code)
		}
		if view.Annos["hash"] != hash {
			t.Fatalf("%s: trace hash %v, want its own %s", id, view.Annos["hash"], hash)
		}
		qs := findSpan(view.Root, "queue.wait")
		if qs == nil || qs.Attrs["outcome"] != "run" {
			t.Fatalf("%s: queue.wait span %+v, want outcome run", id, qs)
		}
		run := findSpan(view.Root, "job.run")
		if run == nil || run.Attrs["hash"] != hash {
			t.Fatalf("%s: job.run span %+v, want one for hash %s", id, run, hash)
		}
		engine := findSpan(run, "engine.run")
		if engine == nil || len(engine.Events) != 1 ||
			engine.Events[0].Name != "fidelity.route" || engine.Events[0].Attrs["tier"] != "metapop" {
			t.Fatalf("%s: engine span %+v, want one fidelity.route with tier metapop", id, engine)
		}
	}
}
