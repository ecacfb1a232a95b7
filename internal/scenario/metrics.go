package scenario

import (
	"repro/internal/obs"
)

// latencyBounds are the histogram bucket upper bounds in seconds; the last
// implicit bucket is +Inf. The range spans sub-millisecond stub runs up to
// multi-minute full-scale workflows.
var latencyBounds = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300, 600,
}

// metrics holds the service's admission counters on a shared obs.Registry,
// the source of the Prometheus /metrics endpoint.
type metrics struct {
	reg       *obs.Registry
	submitted *obs.Counter
	rejected  *obs.Counter
	deduped   *obs.Counter
	shed      *obs.Counter
}

// newMetrics registers the service counters on reg; nil allocates a
// private registry.
func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.Help("epi_scenario_submitted_total", "scenario jobs admitted to the queue")
	reg.Help("epi_scenario_rejected_total", "scenario submissions shed by backpressure")
	reg.Help("epi_scenario_deduped_total", "submissions attached to an identical in-flight job")
	reg.Help("epi_scenario_shed_total", "submissions shed by priority-class admission control")
	reg.Help("epi_scenario_latency_seconds", "scenario run latency by workflow")
	return &metrics{
		reg:       reg,
		submitted: reg.Counter("epi_scenario_submitted_total"),
		rejected:  reg.Counter("epi_scenario_rejected_total"),
		deduped:   reg.Counter("epi_scenario_deduped_total"),
		shed:      reg.Counter("epi_scenario_shed_total"),
	}
}

// observeLatency books one completed run of the given workflow.
func (m *metrics) observeLatency(workflow string, seconds float64) {
	m.reg.Histogram(`epi_scenario_latency_seconds{workflow="`+workflow+`"}`, latencyBounds).Observe(seconds)
}
