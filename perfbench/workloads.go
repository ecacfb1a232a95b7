package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stats"
)

// workloads are the benchmark's traffic mixes; README.md records why each
// was chosen. Every workload runs at Go's default GOGC, as episerve does.
var workloads = map[string]*workload{
	"abm-miss":      {rate: 36, cycle: 12, rounds: 30, generate: generateABM, setup: setupABM},
	"surrogate-hot": {rate: 950, cycle: 80, rounds: 40, generate: generateSurrogate, setup: setupSurrogate},
	"night-batch":   {rate: 40, cycle: len(nightCycle), rounds: 25, generate: generateNight, setup: setupNight},
	"kernel-85k":    {rate: 7.2, cycle: len(kernelPool), rounds: 10, generate: generateKernel, setup: setupKernel},
}

// --- shared spec helpers ---------------------------------------------------

// warmSeed generates the warm-up requests of abm-miss and night-batch. They
// do not depend on the workload seed, so set-up does the same work in every
// run: with seeded warm-ups, abm-miss set-up times followed the seed (0.21 s
// for one, 0.29 s for another). Their streams differ from the timed ops',
// so a warm-up never answers a timed op from the cache.
const warmSeed = 0

// serveInputs are the generated requests of a serving workload.
type serveInputs struct {
	specs  []scenario.Spec
	bodies [][]byte
	// warm are set-up requests, sent once per set-up and never timed.
	warm       []scenario.Spec
	warmBodies [][]byte
}

func encodeAll(specs []scenario.Spec) [][]byte {
	out := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			panic(err) // a Spec always marshals
		}
		out[i] = b
	}
	return out
}

// strata draws n values from [lo, hi), one per equal-width stratum in a
// random order, so every run covers the parameter range evenly.
func strata(rng *rand.Rand, n int, lo, hi float64) []float64 {
	perm := rng.Perm(n)
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*(float64(perm[i])+rng.Float64())/float64(n)
	}
	return out
}

func forecastSpec(workflow string, days, reps int, cfgs []scenario.ParamSpec) scenario.Spec {
	return scenario.Spec{
		Workflow: workflow, State: servingState, Days: days, Replicates: reps,
		SHStart: 15, SHEnd: days, Configs: cfgs,
	}
}

func predictionConfig(s scenario.Spec) core.PredictionConfig {
	cfg := core.PredictionConfig{State: s.State, Replicates: s.Replicates, Days: s.Days,
		SHStart: s.SHStart, SHEnd: s.SHEnd}
	for _, c := range s.Configs {
		cfg.Configs = append(cfg.Configs, core.Params{TAU: c.TAU, SYMP: c.SYMP,
			SHCompliance: c.SHCompliance, VHICompliance: c.VHICompliance})
	}
	return cfg
}

// --- digests ----------------------------------------------------------------

func putFloats(h hash.Hash, vs ...[]float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
		h.Write(b[:])
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
}

func putInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func sum(h hash.Hash) (d [32]byte) {
	copy(d[:], h.Sum(nil))
	return d
}

func bandOK(b scenario.Band, days int) error {
	if len(b.Median) != days || len(b.Lo) != days || len(b.Hi) != days {
		return fmt.Errorf("band length %d/%d/%d, want %d", len(b.Median), len(b.Lo), len(b.Hi), days)
	}
	for d := 0; d < days; d++ {
		for _, v := range []float64{b.Median[d], b.Lo[d], b.Hi[d]} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("band value %v on day %d", v, d)
			}
		}
		// Quantile interpolation may leave lo a rounding error above hi.
		if b.Lo[d] > b.Hi[d]+1e-9*math.Max(1, math.Abs(b.Hi[d])) {
			return fmt.Errorf("band lo %v > hi %v on day %d", b.Lo[d], b.Hi[d], d)
		}
	}
	return nil
}

// forecastDigest validates the shape of a prediction or what-if response
// and content-addresses its forecast numbers.
func forecastDigest(spec scenario.Spec, res *scenario.Result) ([32]byte, error) {
	h := sha256.New()
	if res.Workflow != spec.Workflow {
		return [32]byte{}, fmt.Errorf("workflow %q, want %q", res.Workflow, spec.Workflow)
	}
	switch spec.Workflow {
	case scenario.WorkflowPrediction:
		pr := res.Prediction
		if pr == nil {
			return [32]byte{}, errors.New("prediction response without prediction")
		}
		for _, b := range []scenario.Band{pr.Confirmed, pr.Hospitalized, pr.Deaths} {
			if err := bandOK(b, spec.Days); err != nil {
				return [32]byte{}, err
			}
			putFloats(h, b.Median, b.Lo, b.Hi)
		}
		putInts(h, int64(pr.Counties))
	case scenario.WorkflowWhatIf:
		if len(res.Scenarios) != len(spec.WhatIfs) {
			return [32]byte{}, fmt.Errorf("%d scenarios, want %d", len(res.Scenarios), len(spec.WhatIfs))
		}
		for k, sc := range res.Scenarios {
			if sc.Name != spec.WhatIfs[k].Name {
				return [32]byte{}, fmt.Errorf("scenario %d named %q, want %q", k, sc.Name, spec.WhatIfs[k].Name)
			}
			for _, b := range []scenario.Band{sc.Confirmed, sc.Deaths} {
				if err := bandOK(b, spec.Days); err != nil {
					return [32]byte{}, err
				}
				putFloats(h, b.Median, b.Lo, b.Hi)
			}
		}
	}
	return sum(h), nil
}

// referenceForecastDigest recomputes a forecast spec by calling the
// pipeline directly and digests it like forecastDigest.
func referenceForecastDigest(p *core.Pipeline, spec scenario.Spec) ([32]byte, error) {
	ctx := context.Background()
	h := sha256.New()
	cfg := predictionConfig(spec)
	switch spec.Workflow {
	case scenario.WorkflowPrediction:
		out, err := p.RunPredictionWorkflowCtx(ctx, cfg)
		if err != nil {
			return [32]byte{}, err
		}
		for _, f := range []core.Forecast{out.Confirmed, out.Hospitalized, out.Deaths} {
			putFloats(h, f.Median, f.Lo, f.Hi)
		}
		putInts(h, int64(len(out.CountyMedian)))
	case scenario.WorkflowWhatIf:
		var ws []core.WhatIf
		for _, w := range spec.WhatIfs {
			ws = append(ws, core.WhatIf{Name: w.Name, PivotDay: w.PivotDay, SHEndShift: w.SHEndShift,
				ComplianceScale: w.ComplianceScale, AddTesting: w.AddTesting,
				AddTracing: w.AddTracing, TraceDetectProb: w.TraceDetectProb})
		}
		outs, err := p.RunWhatIfScenariosCtx(ctx, cfg, ws)
		if err != nil {
			return [32]byte{}, err
		}
		for _, o := range outs {
			putFloats(h, o.Confirmed.Median, o.Confirmed.Lo, o.Confirmed.Hi,
				o.Deaths.Median, o.Deaths.Lo, o.Deaths.Hi)
		}
	}
	return sum(h), nil
}

// refSamples is how many completed exact-path ops a run re-computes by a
// direct pipeline call; they are spread evenly over the run.
const refSamples = 24

func sampleIndices(done []bool, ok func(int) bool) []int {
	var cand []int
	for i, d := range done {
		if d && ok(i) {
			cand = append(cand, i)
		}
	}
	if len(cand) <= refSamples {
		return cand
	}
	out := make([]int, refSamples)
	for k := range out {
		out[k] = cand[(2*k+1)*len(cand)/(2*refSamples)]
	}
	return out
}

// checkAgainstReference compares sampled digests with direct
// recomputations; mismatching ops are failed.
func checkAgainstReference(idx []int, got [][32]byte, ref func(i int) ([32]byte, error)) ([]int, error) {
	var failed []int
	var errs []error
	for _, i := range idx {
		want, err := ref(i)
		if err != nil {
			return failed, fmt.Errorf("reference run for op %d: %w", i, err)
		}
		if want != got[i] {
			failed = append(failed, i)
			if len(errs) < 3 {
				errs = append(errs, fmt.Errorf("op %d: response differs from the direct pipeline call", i))
			}
		}
	}
	return failed, errors.Join(errs...)
}

// --- abm-miss -----------------------------------------------------------------

// abm-miss sizes: one configuration per request, a 90-day horizon and four
// replicates, on the 4.3k-person network.
const (
	abmDays = 90
	abmReps = 4
)

// genABM makes n distinct exact-path specs: three predictions, then one
// what-if. What-ifs come in groups of three sharing a configuration: the
// first reuses the preceding prediction's configuration (its prefix is not
// yet checkpointed), the next two branch from the checkpoints the first
// stored.
func genABM(rng *rand.Rand, n int) []scenario.Spec {
	taus := strata(rng, n, 0.16, 0.24)
	shcs := strata(rng, n, 0.3, 0.7)
	var group []scenario.ParamSpec
	specs := make([]scenario.Spec, n)
	for i := 0; i < n; i++ {
		if i%4 != 3 {
			specs[i] = forecastSpec(scenario.WorkflowPrediction, abmDays, abmReps, []scenario.ParamSpec{
				{TAU: taus[i], SYMP: 0.65, SHCompliance: shcs[i], VHICompliance: 0.5}})
			continue
		}
		m := i / 4
		if m%3 == 0 {
			group = specs[i-1].Configs
		}
		s := forecastSpec(scenario.WorkflowWhatIf, abmDays, abmReps, group)
		s.WhatIfs = []scenario.WhatIfSpec{
			{Name: fmt.Sprintf("w%d-relax", m), SHEndShift: -(5 + rng.IntN(20)),
				ComplianceScale: 1.1 + 0.3*rng.Float64()},
			{Name: fmt.Sprintf("w%d-test", m), AddTesting: 0.1 + 0.3*rng.Float64(),
				AddTracing: 1, TraceDetectProb: 0.2 + 0.4*rng.Float64()},
		}
		specs[i] = s
	}
	return specs
}

func generateABM(seed uint64, n int) *inputs {
	in := &serveInputs{
		specs: genABM(rand.New(rand.NewPCG(seed, 1)), n),
		warm:  genABM(rand.New(rand.NewPCG(warmSeed, 2)), 8),
	}
	in.bodies, in.warmBodies = encodeAll(in.specs), encodeAll(in.warm)
	return &inputs{n: n, data: in}
}

type abmStack struct {
	*serveStack
	in      *serveInputs
	digests [][32]byte
}

func setupABM(in *inputs, traced bool) (stack, error) {
	si := in.data.(*serveInputs)
	s, err := newServeStack(traced)
	if err != nil {
		return nil, err
	}
	if _, err := s.warm(si.warmBodies); err != nil {
		s.close()
		return nil, err
	}
	return &abmStack{serveStack: s, in: si, digests: make([][32]byte, in.n)}, nil
}

func (a *abmStack) do(i int) outcome {
	res, lat, err := a.submit(i, a.in.bodies[i])
	if err == nil {
		if res.Tier != "" {
			err = fmt.Errorf("exact-path request answered by tier %q", res.Tier)
		} else {
			a.digests[i], err = forecastDigest(a.in.specs[i], res)
		}
	}
	return outcome{lat: lat, err: err}
}

func (a *abmStack) check(done []bool) ([]int, error) {
	idx := sampleIndices(done, func(i int) bool { return a.digests[i] != [32]byte{} })
	// The reference pipeline keeps no checkpoints, so what-ifs re-simulate
	// their prefix instead of branching from a snapshot.
	ref := core.NewPipeline(pipelineSeed, core.WithScale(servingScale), core.WithParallelism(parallelism),
		core.WithSnapshotCacheBytes(0))
	return checkAgainstReference(idx, a.digests, func(i int) ([32]byte, error) {
		return referenceForecastDigest(ref, a.in.specs[i])
	})
}

// --- surrogate-hot ------------------------------------------------------------

// The surrogate family: VA predictions at a 60-day horizon with eight
// replicates, trained on an 11-point (TAU, SH compliance) design.
const (
	surDays   = 60
	surReps   = 8
	surBudget = 1.0 // max_uncertainty: admits both surrogate tiers' declared error
	surWarm   = 64  // fresh warm-up requests; the first repeats may target them
)

var surTrain = [][2]float64{
	{0.16, 0.30}, {0.16, 0.70}, {0.24, 0.30}, {0.24, 0.70},
	{0.18, 0.40}, {0.18, 0.60}, {0.22, 0.40}, {0.22, 0.60},
	{0.20, 0.30}, {0.20, 0.50}, {0.20, 0.70},
}

type surrogateInputs struct {
	serveInputs
	train [][]byte
	// tier is the expected answering tier of each timed op and warm-up
	// request; repeatOf is the global index (warm-up first, then timed) a
	// repeated op copies, or -1.
	tier, warmTier []string
	repeatOf       []int
}

func surSpec(cfgs [][2]float64, mode string) scenario.Spec {
	var ps []scenario.ParamSpec
	for _, c := range cfgs {
		ps = append(ps, scenario.ParamSpec{TAU: c[0], SYMP: 0.65, SHCompliance: c[1], VHICompliance: 0.5})
	}
	s := forecastSpec(scenario.WorkflowPrediction, surDays, surReps, ps)
	s.Fidelity = mode
	if mode == string(fidelity.TierAuto) {
		s.MaxUncertainty = surBudget
	}
	return s
}

// surConfigs is the number of configurations per surrogate request, the
// size of the default CDC best-guess spread.
const surConfigs = 4

// generateSurrogate makes the warm-up history and the timed ops. One op in
// four repeats a spec sent 16 to 48 requests earlier, still in the result
// cache and long finished. Fresh specs carry four configurations inside
// the trained region (emulator tier), except one in twenty: a single
// configuration outside it (metapop tier).
func generateSurrogate(seed uint64, n int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 3))
	in := &surrogateInputs{}
	var train []scenario.Spec
	for _, d := range surTrain {
		train = append(train, surSpec([][2]float64{d}, string(fidelity.TierABM)))
	}
	in.train = encodeAll(train)
	fresh := 0
	nextFresh := func() (scenario.Spec, string) {
		j := fresh
		fresh++
		if j%20 == 19 {
			out := [2]float64{0.17 + 0.06*rng.Float64(), 0.78 + 0.12*rng.Float64()}
			if j%40 == 19 {
				out = [2]float64{0.27 + 0.03*rng.Float64(), 0.33 + 0.34*rng.Float64()}
			}
			return surSpec([][2]float64{out}, string(fidelity.TierAuto)), string(fidelity.TierMetapop)
		}
		cfgs := make([][2]float64, surConfigs)
		for k := range cfgs {
			cfgs[k] = [2]float64{0.17 + 0.06*rng.Float64(), 0.33 + 0.34*rng.Float64()}
		}
		tier := fidelity.TierEmulator
		return surSpec(cfgs, string(fidelity.TierAuto)), string(tier)
	}
	var all []scenario.Spec
	var allTier []string
	for k := 0; k < surWarm; k++ {
		s, t := nextFresh()
		in.warm = append(in.warm, s)
		in.warmTier = append(in.warmTier, t)
		all, allTier = append(all, s), append(allTier, t)
	}
	for i := 0; i < n; i++ {
		g := surWarm + i
		if i%4 == 3 {
			src := g - 16 - rng.IntN(33)
			in.specs = append(in.specs, all[src])
			in.tier = append(in.tier, allTier[src])
			in.repeatOf = append(in.repeatOf, src)
		} else {
			s, t := nextFresh()
			in.specs = append(in.specs, s)
			in.tier = append(in.tier, t)
			in.repeatOf = append(in.repeatOf, -1)
		}
		all, allTier = append(all, in.specs[i]), append(allTier, in.tier[i])
	}
	in.bodies, in.warmBodies = encodeAll(in.specs), encodeAll(in.warm)
	return &inputs{n: n, data: in}
}

type surrogateStack struct {
	*serveStack
	in         *surrogateInputs
	trainS     float64
	warmDigest [][32]byte
	digests    [][32]byte
}

func setupSurrogate(in *inputs, traced bool) (stack, error) {
	si := in.data.(*surrogateInputs)
	s, err := newServeStack(traced)
	if err != nil {
		return nil, err
	}
	st := &surrogateStack{serveStack: s, in: si, digests: make([][32]byte, in.n)}
	// Training requests go one at a time, each followed by Router.Close,
	// which waits for the refit it triggered: the fitted family, and with it
	// every later tier decision, is the same on every run.
	t := time.Now()
	for i, b := range si.train {
		if _, _, err := s.submit(-1, b); err != nil {
			s.close()
			return nil, fmt.Errorf("training request %d: %w", i, err)
		}
		s.router.Close()
	}
	st.trainS = time.Since(t).Seconds()
	warm, err := s.warm(si.warmBodies)
	if err != nil {
		s.close()
		return nil, err
	}
	s.router.Close()
	for k, res := range warm {
		d, err := surrogateDigest(si.warm[k], si.warmTier[k], res)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up request %d: %w", k, err)
		}
		st.warmDigest = append(st.warmDigest, d)
	}
	return st, nil
}

// surrogateDigest checks a surrogate answer's tier, declared uncertainty
// and shape, and content-addresses it.
func surrogateDigest(spec scenario.Spec, tier string, res *scenario.Result) ([32]byte, error) {
	if res.Tier != tier {
		return [32]byte{}, fmt.Errorf("answered by tier %q (%s), want %q", res.Tier, res.TierReason, tier)
	}
	if !(res.Uncertainty > 0 && res.Uncertainty <= spec.MaxUncertainty) {
		return [32]byte{}, fmt.Errorf("uncertainty %v outside (0, %v]", res.Uncertainty, spec.MaxUncertainty)
	}
	d, err := forecastDigest(spec, res)
	if err != nil {
		return d, err
	}
	h := sha256.New()
	h.Write(d[:])
	putFloats(h, []float64{res.Uncertainty})
	h.Write([]byte(res.Tier))
	return sum(h), nil
}

func (s *surrogateStack) do(i int) outcome {
	res, lat, err := s.submit(i, s.in.bodies[i])
	if err == nil {
		s.digests[i], err = surrogateDigest(s.in.specs[i], s.in.tier[i], res)
	}
	return outcome{lat: lat, err: err}
}

// check requires every repeated spec to get the same answer as the
// request it repeats.
func (s *surrogateStack) check(done []bool) ([]int, error) {
	var failed []int
	var errs []error
	for i, src := range s.in.repeatOf {
		if src < 0 || !done[i] || s.digests[i] == [32]byte{} {
			continue
		}
		var want [32]byte
		if src < surWarm {
			want = s.warmDigest[src]
		} else {
			if !done[src-surWarm] || s.digests[src-surWarm] == [32]byte{} {
				continue
			}
			want = s.digests[src-surWarm]
		}
		if want != s.digests[i] {
			failed = append(failed, i)
			if len(errs) < 3 {
				errs = append(errs, fmt.Errorf("op %d: repeated spec answered differently", i))
			}
		}
	}
	return failed, errors.Join(errs...)
}

func (s *surrogateStack) setupLayers() map[string]float64 {
	m := s.serveStack.setupLayers()
	m["fidelity.train_s"] = s.trainS
	return m
}

// --- night-batch --------------------------------------------------------------

// nightType is one kind of night request. Cells trims a family's Table I
// design so the FFDT-DC packings stay within a few tens of milliseconds.
type nightType struct {
	family    string
	heuristic string
	cells     int
}

// nightCycle is the per-cycle mix: all three families under both
// heuristics; the two 4-cell FFDT-DC types appear twice, so the median
// latency falls inside their cluster rather than on a gap between types.
var nightCycle = []nightType{
	{"economic", "NFDT-DC", 0},
	{"prediction", "NFDT-DC", 0},
	{"calibration", "NFDT-DC", 0},
	{"economic", "FFDT-DC", 4},
	{"economic", "FFDT-DC", 4},
	{"prediction", "FFDT-DC", 4},
	{"prediction", "FFDT-DC", 4},
	{"calibration", "FFDT-DC", 60},
}

func tableRow(family string) core.WorkflowSpec {
	rows := core.TableI()
	switch family {
	case "economic":
		return rows[0]
	case "prediction":
		return rows[1]
	default:
		return rows[2]
	}
}

func nightSpec(t nightType, seed uint64) scenario.Spec {
	row := tableRow(t.family)
	cells := row.Cells
	if t.cells > 0 {
		cells = t.cells
	}
	return scenario.Spec{Workflow: scenario.WorkflowNight, Night: &scenario.NightSpec{
		Family: t.family, Cells: cells, Replicates: row.Replicates,
		Heuristic: t.heuristic, Seed: seed,
	}}
}

// genNight shuffles the cycle's types within each cycle and gives every
// night its own task-time seed, so no two requests share a result.
func genNight(rng *rand.Rand, n int) []scenario.Spec {
	specs := make([]scenario.Spec, 0, n)
	for len(specs) < n {
		for _, k := range rng.Perm(len(nightCycle)) {
			if len(specs) == n {
				break
			}
			specs = append(specs, nightSpec(nightCycle[k], rng.Uint64()|1))
		}
	}
	return specs
}

func generateNight(seed uint64, n int) *inputs {
	in := &serveInputs{
		specs: genNight(rand.New(rand.NewPCG(seed, 4)), n),
		warm:  genNight(rand.New(rand.NewPCG(warmSeed, 5)), len(nightCycle)),
	}
	in.bodies, in.warmBodies = encodeAll(in.specs), encodeAll(in.warm)
	return &inputs{n: n, data: in}
}

type nightStack struct {
	*serveStack
	in      *serveInputs
	digests [][32]byte
	results []*scenario.NightResult
	// direct sched/cluster timings of the traced ops (filled by check).
	tasks       int
	pack, exec  []float64
	utilization []float64
}

func setupNight(in *inputs, traced bool) (stack, error) {
	si := in.data.(*serveInputs)
	s, err := newServeStack(traced)
	if err != nil {
		return nil, err
	}
	if _, err := s.warm(si.warmBodies); err != nil {
		s.close()
		return nil, err
	}
	return &nightStack{serveStack: s, in: si, digests: make([][32]byte, in.n),
		results: make([]*scenario.NightResult, in.n)}, nil
}

func nightDigest(r *scenario.NightResult) [32]byte {
	h := sha256.New()
	putInts(h, int64(r.Tasks), int64(r.Completed), int64(r.Unstarted), int64(r.Retries), int64(r.Shed),
		r.ConfigBytes, r.SummaryB, r.RawBytes)
	putFloats(h, []float64{r.Makespan, r.Utilization})
	if r.FitsWindow {
		h.Write([]byte{1})
	}
	return sum(h)
}

func (s *nightStack) do(i int) outcome {
	res, lat, err := s.submit(i, s.in.bodies[i])
	if err == nil {
		switch {
		case res.Night == nil:
			err = errors.New("night response without night report")
		case res.Night.Tasks <= 0 || res.Night.Completed+res.Night.Unstarted+res.Night.Shed != res.Night.Tasks:
			err = fmt.Errorf("inconsistent night report %+v", *res.Night)
		default:
			s.results[i] = res.Night
			s.digests[i] = nightDigest(res.Night)
		}
	}
	return outcome{lat: lat, err: err}
}

// check recomputes sampled nights through core.Pipeline.RunNight and, in a
// traced run, replays every traced night through the public sched and
// cluster calls, timing each layer and matching the served makespan and
// utilization.
func (s *nightStack) check(done []bool) ([]int, error) {
	idx := sampleIndices(done, func(i int) bool { return s.results[i] != nil })
	ref := core.NewPipeline(pipelineSeed, core.WithScale(servingScale), core.WithParallelism(parallelism))
	failed, err := checkAgainstReference(idx, s.digests, func(i int) ([32]byte, error) {
		n := s.in.specs[i].Night
		row := tableRow(n.Family)
		row.Cells, row.Replicates = n.Cells, n.Replicates
		rep, err := ref.RunNightCtx(context.Background(), core.NightConfig{Spec: row, Heuristic: n.Heuristic, Seed: n.Seed})
		if err != nil {
			return [32]byte{}, err
		}
		return nightDigest(&scenario.NightResult{
			Tasks: rep.Tasks, Completed: rep.Completed, Unstarted: rep.Unstarted, Retries: rep.Retries,
			Shed: len(rep.Shed), Makespan: rep.Makespan, Utilization: rep.Utilization,
			FitsWindow: rep.FitsWindow, ConfigBytes: rep.ConfigBytes, SummaryB: rep.SummaryBytes,
			RawBytes: rep.RawBytes,
		}), nil
	})
	if s.tr == nil || err != nil {
		return failed, err
	}
	traced := map[int]bool{}
	for _, sp := range s.tr.snapshot() {
		if sp.Name == "client.request" && sp.Op >= 0 && s.results[sp.Op] != nil {
			traced[sp.Op] = true
		}
	}
	ops := make([]int, 0, len(traced))
	for i := range traced {
		ops = append(ops, i)
	}
	sort.Ints(ops)
	var errs []error
	for _, i := range ops {
		mk, util, err := s.replay(i)
		if err != nil {
			return failed, err
		}
		if got := s.results[i]; got.Makespan != mk || got.Utilization != util {
			failed = append(failed, i)
			if len(errs) < 3 {
				errs = append(errs, fmt.Errorf("op %d: served makespan/utilization %v/%v, direct sched+cluster %v/%v",
					i, got.Makespan, got.Utilization, mk, util))
			}
		}
	}
	return failed, errors.Join(errs...)
}

// replay runs one night's task generation, packing and execution through
// the public sched and cluster APIs, as the pipeline's failure-free first
// round does.
func (s *nightStack) replay(i int) (makespan, utilization float64, err error) {
	n := s.in.specs[i].Night
	spread := 4.0 // intervention-complexity spread of counter-factual and prediction designs
	if n.Family == "calibration" {
		spread = 1.4
	}
	w := sched.Workload{Cells: n.Cells, Replicates: n.Replicates, Time: sched.DefaultTimeModel(),
		MaxInterventionFactor: spread}
	c := sched.Constraints{TotalNodes: s.p.Remote.Nodes, DBBound: sched.DefaultDBBounds(s.p.DBConnBound)}
	deadline := s.p.Window.Seconds()

	t0 := time.Now()
	tasks := w.Tasks(stats.NewRNG(n.Seed))
	t1 := time.Now()
	var ex cluster.ExecResult
	var t2 time.Time
	switch n.Heuristic {
	case "NFDT-DC":
		sc, err := sched.NFDTDC(tasks, c)
		if err != nil {
			return 0, 0, err
		}
		t2 = time.Now()
		ex = cluster.ExecuteLevelSync(sc, deadline)
	default:
		sc, err := sched.FFDTDC(tasks, c)
		if err != nil {
			return 0, 0, err
		}
		t2 = time.Now()
		if ex, err = cluster.ExecuteBackfill(cluster.FlattenSchedule(sc), c, deadline); err != nil {
			return 0, 0, err
		}
	}
	t3 := time.Now()
	s.tr.record(i, "sched.tasks", "replay", "", t0, t1)
	s.tr.record(i, "sched.pack", "replay", n.Heuristic, t1, t2)
	s.tr.record(i, "cluster.exec", "replay", n.Heuristic, t2, t3)
	s.tasks += len(tasks)
	s.pack = append(s.pack, t2.Sub(t1).Seconds()*1000)
	s.exec = append(s.exec, t3.Sub(t2).Seconds()*1000)
	s.utilization = append(s.utilization, ex.Utilization)
	return ex.Makespan, ex.Utilization, nil
}

func (s *nightStack) layers() map[string]float64 {
	m := s.serveStack.layers()
	m["sched.tasks"] = float64(s.tasks)
	m["sched.pack_ms"] = median(s.pack)
	m["cluster.exec_ms"] = median(s.exec)
	m["cluster.utilization"] = median(s.utilization)
	return m
}
