// Command perfbench is the repository benchmark. One invocation runs one
// named workload against the real pipeline in a fresh process, checks every
// output it produced, and prints one JSON object as its last line of
// standard output:
//
//	go build -o perfbench-bin . && ./perfbench-bin -workload abm-miss -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the object carries the end-to-end metrics; with -trace 1 it
// carries the per-layer breakdown, measured by timing the calls the
// benchmark makes into each module's public functions (the program itself
// is not instrumented for the benchmark). README.md in this directory
// records why each workload exists and which end-to-end metric each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

// metricDef is one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-module metrics of the traced run (-trace 1). Every
// workload prints all of them; a layer the workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{"scenario.http_us", "us"},
	{"scenario.admit_us", "us"},
	{"scenario.queue_wait_ms", "ms"},
	{"scenario.cache_hit_ratio", "ratio"},
	{"scenario.dedup_total", "count"},
	{"scenario.rejected_total", "count"},
	{"fidelity.run_us", "us"},
	{"fidelity.tier_emulator", "count"},
	{"fidelity.tier_metapop", "count"},
	{"fidelity.tier_abm", "count"},
	{"fidelity.train_s", "s"},
	{"core.prediction_ms", "ms"},
	{"core.whatif_ms", "ms"},
	{"core.night_ms", "ms"},
	{"castore.snapshot_hit_ratio", "ratio"},
	{"castore.snapshot_mb", "MB"},
	{"epihiper.upkeep_ms", "ms"},
	{"epihiper.transmit_ms", "ms"},
	{"epihiper.mutate_ms", "ms"},
	{"epihiper.exchange_ms", "ms"},
	{"epihiper.serial_ms", "ms"},
	{"epihiper.infections", "count"},
	{"sched.tasks", "count"},
	{"sched.pack_ms", "ms"},
	{"cluster.exec_ms", "ms"},
	{"cluster.utilization", "ratio"},
	{"synthpop.network_s", "s"},
	{"popdb.db_s", "s"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke runs a handful of ops with one set-up: a self-test of the
	// harness, not a measurement.
	smoke    bool
	traceOut string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "nominal length of the timed window; fixes the op count")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "run a handful of ops (harness self-test)")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the recorded spans to this JSONL file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, summary, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(summary)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result plus a one-line
// human-readable summary (ops sent/succeeded/failed, tail percentile, the
// throughput of every round).
func run(o options) (result, string, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return result{}, "", fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), " | "))
	}
	if o.seconds <= 0 {
		return result{}, "", fmt.Errorf("-seconds must be positive")
	}
	m, err := measure(w, o)
	if err != nil {
		return result{}, "", err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   m.checkErr == nil,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if !ok {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	share := 0.0
	if m.attempted > 0 {
		share = float64(m.failed) / float64(m.attempted)
	}
	summary := fmt.Sprintf("perfbench: workload=%s seed=%d trace=%t sent=%d ok=%d failed=%d failed_share=%.4f",
		o.workload, o.seed, o.trace, m.attempted, m.attempted-m.failed, m.failed, share)
	if m.tailLabel != "" {
		summary += " latency_tail=p" + m.tailLabel
	}
	if m.kept > 0 {
		summary += fmt.Sprintf(" kept_rounds=%d/%d", m.kept, len(m.roundTput))
	}
	summary += fmt.Sprintf(" steal_pct=%.2f round_ops_per_s=", m.stealPct)
	for i, t := range m.roundTput {
		if i > 0 {
			summary += ","
		}
		summary += fmt.Sprintf("%.4g", t)
	}
	if m.checkErr != nil {
		summary += "\nperfbench: output check failed: " + m.checkErr.Error()
	}
	return res, summary, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
