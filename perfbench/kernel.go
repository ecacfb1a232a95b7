package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/output"
	"repro/internal/popdb"
	"repro/internal/synthpop"
)

// kernel-85k runs full 120-day simulations on the ~85k-person VA network
// at the pipeline's default shard count, one at a time.
const (
	kernelScale = 100
	kernelDays  = 120
)

// kernelCase is one parameter/seed pair of the fixed pool, with the total
// infections the simulator must reproduce for it.
type kernelCase struct {
	tau, shc   float64
	seed       uint64
	infections int64
}

// kernelPool is the fixed list every run cycles through; only the order
// depends on the workload seed, so every run does the same work.
var kernelPool = []kernelCase{
	{0.18, 0.4, 1, 10838}, {0.18, 0.5, 2, 3289}, {0.20, 0.4, 2, 21888}, {0.20, 0.5, 1, 11167},
	{0.22, 0.4, 1, 33374}, {0.22, 0.5, 2, 16451}, {0.24, 0.4, 2, 37938}, {0.24, 0.5, 1, 25443},
}

// generateKernel orders n ops as whole passes over the pool, each pass in
// its own seeded permutation.
func generateKernel(seed uint64, n int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 6))
	order := make([]int, 0, n)
	for len(order) < n {
		for _, k := range rng.Perm(len(kernelPool)) {
			if len(order) < n {
				order = append(order, k)
			}
		}
	}
	return &inputs{n: n, data: order}
}

type kernelStack struct {
	p          *core.Pipeline
	net        *synthpop.Network
	db         *popdb.Server
	seedCounty int32
	order      []int
	infections []int64
	tr         *tracer
	tracing    bool

	networkS, dbS float64
}

func setupKernel(in *inputs, traced bool) (stack, error) {
	p := core.NewPipeline(pipelineSeed, core.WithScale(kernelScale))
	k := &kernelStack{p: p, order: in.data.([]int), infections: make([]int64, in.n)}
	t := time.Now()
	net, err := p.Network("VA")
	if err != nil {
		return nil, err
	}
	k.networkS = time.Since(t).Seconds()
	t = time.Now()
	if k.db, err = p.DB("VA"); err != nil {
		return nil, err
	}
	k.dbS = time.Since(t).Seconds()
	k.net = net
	// Seed in the most populous county, as cmd/epirun does (lowest FIPS on
	// a tie, so the choice is deterministic).
	counts := map[int32]int{}
	for _, ps := range net.Persons {
		counts[ps.CountyFIPS]++
	}
	best := 0
	for c, n := range counts {
		if n > best || (n == best && c < k.seedCounty) {
			k.seedCounty, best = c, n
		}
	}
	if traced {
		k.tr = newTracer(p.Fingerprint())
	}
	// Warm-up: one simulation outside the timed window.
	if _, res, err := k.simulate(kernelPool[0]); err != nil {
		return nil, err
	} else if res.TotalInfections != kernelPool[0].infections {
		return nil, fmt.Errorf("warm-up simulation: total infections %d, reference %d",
			res.TotalInfections, kernelPool[0].infections)
	}
	return k, nil
}

// simulate builds and runs one simulation through the public epihiper API
// with the pipeline's substrates and shard count.
func (k *kernelStack) simulate(c kernelCase) (*epihiper.Sim, *epihiper.Result, error) {
	pr := core.Params{TAU: c.tau, SYMP: 0.65, SHCompliance: c.shc, VHICompliance: 0.5}
	model, err := pr.ApplyToModel(disease.COVID19())
	if err != nil {
		return nil, nil, err
	}
	sim, err := epihiper.New(epihiper.Config{
		Model: model, Network: k.net, Days: kernelDays,
		Parallelism: k.p.Parallelism, Seed: c.seed, DB: k.db,
		Seeds: []epihiper.Seeding{{CountyFIPS: k.seedCounty, Day: 0, Count: 5}},
		Interventions: []epihiper.Intervention{
			&epihiper.VoluntaryHomeIsolation{Compliance: pr.VHICompliance, IsolationDays: 14},
			&epihiper.SchoolClosure{StartDay: 15, EndDay: kernelDays},
			&epihiper.StayAtHome{StartDay: 30, EndDay: kernelDays, Compliance: pr.SHCompliance},
		},
		Recorder: epihiper.MultiRecorder{&output.TransitionLog{}, output.NewCountyAggregator(k.net, kernelDays)},
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run()
	return sim, res, err
}

var kernelPhases = []string{"upkeep", "transmit", "mutate", "exchange"}

func (k *kernelStack) do(i int) outcome {
	c := kernelPool[k.order[i]]
	start := time.Now()
	sim, res, err := k.simulate(c)
	end := time.Now()
	if err != nil {
		return outcome{lat: end.Sub(start), err: err}
	}
	k.infections[i] = res.TotalInfections
	if k.tracing {
		k.tr.record(i, "sim", "", fmt.Sprintf("tau=%g,shc=%g,seed=%d", c.tau, c.shc, c.seed), start, end)
		for _, ph := range kernelPhases {
			k.tr.recordDur(i, "epihiper."+ph, "sim", time.Duration(sim.PhaseSeconds(ph)*1e9))
		}
	}
	if res.TotalInfections != c.infections {
		err = fmt.Errorf("total infections %d, reference %d (tau=%g shc=%g seed=%d)",
			res.TotalInfections, c.infections, c.tau, c.shc, c.seed)
	}
	return outcome{lat: end.Sub(start), err: err}
}

func (k *kernelStack) setTracing(on bool) { k.tracing = on && k.tr != nil }
func (k *kernelStack) roundStart() error  { return nil }
func (k *kernelStack) roundEnd() error    { return nil }

// check has nothing left to do: every simulation was matched against its
// reference infections as it finished.
func (k *kernelStack) check([]bool) ([]int, error) { return nil, nil }

func (k *kernelStack) setupLayers() map[string]float64 {
	return map[string]float64{"synthpop.network_s": k.networkS, "popdb.db_s": k.dbS}
}

// layers reports per-simulation medians of each parallel phase and of the
// serial remainder, plus the total infections of the traced simulations.
func (k *kernelStack) layers() map[string]float64 {
	out := map[string]float64{}
	if k.tr == nil {
		return out
	}
	wall := map[int]float64{}
	phases := map[int]float64{}
	per := map[string][]float64{}
	var infections int64
	for _, sp := range k.tr.snapshot() {
		if sp.Name == "sim" {
			wall[sp.Op] = sp.Dur
			infections += k.infections[sp.Op]
			continue
		}
		per[sp.Name] = append(per[sp.Name], sp.Dur/1e3)
		phases[sp.Op] += sp.Dur
	}
	for _, ph := range kernelPhases {
		out["epihiper."+ph+"_ms"] = median(per["epihiper."+ph])
	}
	var serial []float64
	for op, w := range wall {
		serial = append(serial, (w-phases[op])/1e3)
	}
	out["epihiper.serial_ms"] = median(serial)
	out["epihiper.infections"] = float64(infections)
	return out
}

func (k *kernelStack) writeTrace(path string) error {
	if k.tr == nil {
		return nil
	}
	return k.tr.write(path)
}

// close drops the stack's network and database so a later set-up does not
// share memory with it.
func (k *kernelStack) close() error {
	k.p, k.net, k.db = nil, nil, nil
	return nil
}
