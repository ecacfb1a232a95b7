package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks the
// printed metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// exercised lists, per workload, the per-layer metrics that must read
// non-zero because the workload drives that layer.
var exercised = map[string][]string{
	"abm-miss": {"scenario.http_us", "scenario.admit_us", "core.prediction_ms", "core.whatif_ms",
		"castore.snapshot_mb", "synthpop.network_s", "popdb.db_s", "runtime.alloc_kb_per_op"},
	"surrogate-hot": {"scenario.http_us", "scenario.admit_us", "fidelity.run_us", "fidelity.tier_emulator",
		"fidelity.train_s", "synthpop.network_s", "runtime.alloc_kb_per_op"},
	"night-batch": {"scenario.http_us", "scenario.admit_us", "core.night_ms", "sched.tasks", "sched.pack_ms",
		"cluster.exec_ms", "cluster.utilization", "runtime.alloc_kb_per_op"},
	"kernel-85k": {"epihiper.transmit_ms", "epihiper.mutate_ms", "epihiper.serial_ms", "epihiper.infections",
		"synthpop.network_s", "popdb.db_s", "runtime.alloc_kb_per_op"},
}

// TestSmoke runs every workload for a handful of ops, untraced and traced,
// and checks that the output checks pass and that every metric named in
// BENCHMARK.json is printed with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		w := w.Name
		for _, trace := range []bool{false, true} {
			res, summary, err := run(options{workload: w, seed: 7, seconds: 1, trace: trace, smoke: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			t.Log(summary)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
			if trace {
				for _, name := range exercised[w] {
					if res.Metrics[name].Value == 0 {
						t.Errorf("%s: per-layer metric %s reads 0 on a workload that drives it", w, name)
					}
				}
			}
		}
	}
}
