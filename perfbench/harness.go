package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named traffic mix.
type workload struct {
	// rate is the nominal op rate on the reference host (2 vCPUs). A run
	// with -seconds S times a fixed count of about rate·S ops, so the op
	// count follows from the arguments, never from how fast this
	// particular run happens to go.
	rate float64
	// cycle is the period of the op mix. Rounds hold whole cycles, so every
	// round carries the same mix.
	cycle int
	// rounds splits the timed window into equal op counts, each a fraction
	// of a second to a second long, so that rounds the hypervisor stole
	// CPU time from can be set aside (see cleanRounds). A traced run
	// alternates untraced and traced rounds.
	rounds int
	// setup builds a fresh, warmed-up stack for the generated inputs.
	setup func(in *inputs, traced bool) (stack, error)
	// generate makes the timed ops (and any warm-up) from the seed.
	generate func(seed uint64, n int) *inputs
}

// inputs are a run's generated ops; the concrete payload is per workload.
type inputs struct {
	n    int
	data any
}

// stack is one set-up instance of the system under test.
type stack interface {
	// do performs op i and reports its latency and whether it succeeded
	// (including the inline output checks).
	do(i int) outcome
	// setTracing turns span recording on or off between rounds.
	setTracing(on bool)
	// roundStart / roundEnd bracket every traced round, so counter deltas
	// cover traced work only.
	roundStart() error
	roundEnd() error
	// check runs the after-window output checks over the completed ops and
	// returns the indices of ops whose outputs failed them.
	check(done []bool) (failed []int, err error)
	// layers reports the per-layer metrics of the traced rounds.
	layers() map[string]float64
	// setupLayers reports layer timings taken during set-up.
	setupLayers() map[string]float64
	// writeTrace writes the recorded spans as JSON lines.
	writeTrace(path string) error
	close() error
}

// outcome is one op's client-side measurement.
type outcome struct {
	lat time.Duration
	err error
}

// measurement is what a run produced before formatting.
type measurement struct {
	attempted, failed int
	checkErr          error
	tailLabel         string
	roundTput         []float64
	// kept is how many rounds the end-to-end metrics were computed over;
	// stealPct is the share of the machine stolen over the timed window.
	kept     int
	stealPct float64
	values   map[string]float64
}

// setupReps is how many times a run sets the stack up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 7

// tailBeyond is how many samples must lie beyond the reported tail
// percentile, chosen as the highest of tailLadder that leaves that many.
const tailBeyond = 10

// tailGroupOps and maxTailGroups split a large sample for the tail: the
// kept rounds are cut into as many groups of consecutive rounds as hold at
// least tailGroupOps ops each, at most maxTailGroups, and the tail is the
// median of the groups' tails. Every group's tail is then p99 or higher,
// and a burst of interference confined to one group does not move it. A
// sample under 2·tailGroupOps ops is one group.
const (
	tailGroupOps  = 1000
	maxTailGroups = 5
)

var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// opCount is the fixed number of timed ops for a run of the given length.
func opCount(w *workload, seconds float64, smoke bool) int {
	if smoke {
		return 2 * w.rounds
	}
	per := w.cycle
	n := int(math.Round(w.rate * seconds))
	perRound := (n + w.rounds - 1) / w.rounds
	perRound = (perRound + per - 1) / per * per
	return perRound * w.rounds
}

// tail returns the highest ladder percentile of sorted latencies with at
// least tailBeyond samples beyond it, and its label; the maximum when the
// sample is too small for any.
func tail(lats []float64) (float64, string) {
	n := len(lats)
	for _, q := range tailLadder {
		k := int(math.Ceil(q / 100 * float64(n)))
		if k >= 1 && n-k >= tailBeyond {
			return lats[k-1], fmt.Sprintf("%g", q)
		}
	}
	return lats[n-1], "100"
}

// groupTail is the tail of the ops of the selected rounds (see
// tailGroupOps): the median over groups of consecutive rounds of each
// group's tail, and the percentile label shared by the groups. lat returns
// op i's latency in ms, or +Inf when it failed; failed ops outside the
// selected rounds count as beyond any limit in every group.
func groupTail(sel []round, lat func(i int) float64, elsewhere int) (float64, string) {
	ops := 0
	for _, r := range sel {
		ops += r.ran
	}
	sel = append([]round(nil), sel...)
	sort.Slice(sel, func(i, j int) bool { return sel[i].lo < sel[j].lo })
	g := min(max(ops/tailGroupOps, 1), maxTailGroups, len(sel))
	var tails []float64
	var labels []string
	for k := 0; k < g; k++ {
		var lats []float64
		for _, r := range sel[k*len(sel)/g : (k+1)*len(sel)/g] {
			for i := r.lo; i < r.hi; i++ {
				if v := lat(i); !math.IsNaN(v) {
					lats = append(lats, v)
				}
			}
		}
		for j := 0; j < elsewhere; j++ {
			lats = append(lats, math.Inf(1))
		}
		sort.Float64s(lats)
		v, label := tail(lats)
		tails = append(tails, v)
		if !slices.Contains(labels, label) {
			labels = append(labels, label)
		}
	}
	return median(tails), strings.Join(labels, "/")
}

// round is one slice of the timed window.
type round struct {
	lo, hi  int // op indices
	traced  bool
	ran, ok int
	wall    float64 // seconds
	cpu     float64 // seconds
	steal   float64 // seconds of CPU time the hypervisor took, all CPUs
}

func (r round) tput() float64 { return float64(r.ok) / r.wall }

// stealShare is the share of the machine's CPU time the hypervisor took
// during the round.
func (r round) stealShare() float64 {
	return r.steal / (r.wall * float64(runtime.NumCPU()))
}

// maxStealShare is the most steal a round may see and still count as
// clean. Idle-host rounds read 0 to 2%.
const maxStealShare = 0.05

// cleanRounds returns the rounds of the given tracing state that ran with
// at most maxStealShare of the machine stolen. The host's virtual CPUs are
// shared with other tenants, and while one of them is busy the hypervisor
// takes a share of our CPU time that comes and goes within seconds and
// reached 43% of the machine over a whole run. Steal is measured independently of the
// code under test, so setting those rounds aside keeps a slowdown of the
// code visible in every kept round. When fewer than half the rounds are
// clean, the half with the least steal is returned.
func cleanRounds(rs []round, traced bool) []round {
	var all, clean []round
	for _, r := range rs {
		if r.traced != traced || r.ran == 0 {
			continue
		}
		all = append(all, r)
		if r.stealShare() <= maxStealShare {
			clean = append(clean, r)
		}
	}
	half := (len(all) + 1) / 2
	if len(clean) >= half {
		return clean
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].stealShare() < all[j].stealShare() })
	return all[:half]
}

func totals(rs []round) (ok, ran int, wall, cpu float64) {
	for _, r := range rs {
		ok, ran, wall, cpu = ok+r.ok, ran+r.ran, wall+r.wall, cpu+r.cpu
	}
	return
}

func measure(w *workload, o options) (*measurement, error) {
	n := opCount(w, o.seconds, o.smoke)
	in := w.generate(o.seed, n)
	reps := setupReps
	if o.smoke {
		reps = 1
	}
	var st stack
	setupSecs := make([]float64, 0, reps)
	setupLayerVals := map[string][]float64{}
	for r := 0; r < reps; r++ {
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		s, err := w.setup(in, o.trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		for k, v := range s.setupLayers() {
			setupLayerVals[k] = append(setupLayerVals[k], v)
		}
		if r < reps-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		st = s
	}
	defer st.close()

	outs := make([]outcome, n)
	done := make([]bool, n)
	perRound := n / w.rounds
	// deadline bounds the timed window if the system under test got far
	// slower than the rate the op count was sized for; ops left over are
	// not attempted.
	deadline := time.Now().Add(time.Duration(6*o.seconds*float64(time.Second)) + 30*time.Second)
	var memBefore, memAfter runtime.MemStats
	var allocBytes, gcCycles uint64
	var checkErrs []error
	rs := make([]round, w.rounds)
	for k := range rs {
		r := &rs[k]
		r.lo, r.hi, r.traced = k*perRound, (k+1)*perRound, o.trace && k%2 == 1
		st.setTracing(r.traced)
		if r.traced {
			if err := st.roundStart(); err != nil {
				checkErrs = append(checkErrs, err)
			}
			runtime.ReadMemStats(&memBefore)
		}
		cpu0, steal0 := cpuTime(), stealTime()
		t0 := time.Now()
		for i := r.lo; i < r.hi && time.Now().Before(deadline); i++ {
			outs[i] = st.do(i)
			done[i] = true
		}
		r.wall = time.Since(t0).Seconds()
		r.cpu = (cpuTime() - cpu0).Seconds()
		r.steal = (stealTime() - steal0).Seconds()
		if r.traced {
			runtime.ReadMemStats(&memAfter)
			allocBytes += memAfter.TotalAlloc - memBefore.TotalAlloc
			gcCycles += uint64(memAfter.NumGC - memBefore.NumGC)
			if err := st.roundEnd(); err != nil {
				checkErrs = append(checkErrs, err)
			}
		}
		for i := r.lo; i < r.hi; i++ {
			if done[i] {
				r.ran++
				if outs[i].err == nil {
					r.ok++
				}
			}
		}
	}
	st.setTracing(false)

	m := &measurement{values: map[string]float64{}}
	var wall, steal float64
	for _, r := range rs {
		if r.ran > 0 {
			m.roundTput = append(m.roundTput, r.tput())
			wall, steal = wall+r.wall, steal+r.steal
		}
	}
	if wall > 0 {
		m.stealPct = 100 * steal / (wall * float64(runtime.NumCPU()))
	}
	failed := map[int]bool{}
	for i := 0; i < n; i++ {
		if !done[i] {
			continue
		}
		m.attempted++
		if outs[i].err != nil {
			failed[i] = true
			if len(checkErrs) < 5 {
				checkErrs = append(checkErrs, fmt.Errorf("op %d: %w", i, outs[i].err))
			}
		}
	}
	failedIdx, err := st.check(done)
	if err != nil {
		checkErrs = append(checkErrs, err)
	}
	for _, i := range failedIdx {
		failed[i] = true
	}
	m.failed = len(failed)
	m.checkErr = errors.Join(checkErrs...)
	if m.attempted == 0 {
		return nil, fmt.Errorf("no op completed before the deadline")
	}

	if !o.trace {
		sel := cleanRounds(rs, false)
		m.kept = len(sel)
		ok, ran, wall, cpu := totals(sel)
		// Latencies of the selected rounds; every failed op of the run counts
		// as beyond any limit, wherever it happened.
		var lats []float64
		inSel := map[int]bool{}
		for _, r := range sel {
			for i := r.lo; i < r.hi; i++ {
				inSel[i] = true
				if done[i] && !failed[i] {
					lats = append(lats, outs[i].lat.Seconds()*1000)
				}
			}
		}
		sort.Float64s(lats)
		elsewhere := 0
		for i := range failed {
			lats = append(lats, math.Inf(1))
			if !inSel[i] {
				elsewhere++
			}
		}
		tailV, label := groupTail(sel, func(i int) float64 {
			switch {
			case !done[i]:
				return math.NaN()
			case failed[i]:
				return math.Inf(1)
			}
			return outs[i].lat.Seconds() * 1000
		}, elsewhere)
		m.tailLabel = label
		capInf := func(v float64) float64 {
			if math.IsInf(v, 1) {
				return time.Since(processStart).Seconds() * 1000
			}
			return v
		}
		m.values["setup_s"] = median(setupSecs)
		m.values["throughput_ops"] = float64(ok) / wall
		m.values["latency_p50_ms"] = capInf(quantileSorted(lats, 0.5))
		m.values["latency_tail_ms"] = capInf(tailV)
		m.values["cpu_ms_per_op"] = cpu * 1000 / float64(ran)
		m.values["peak_rss_mb"] = peakRSSMB()
		return m, nil
	}
	for k, v := range st.layers() {
		m.values[k] = v
	}
	for k, vs := range setupLayerVals {
		m.values[k] = median(vs)
	}
	var tracedOps int
	for _, r := range rs {
		if r.traced {
			tracedOps += r.ran
		}
	}
	if tracedOps > 0 {
		m.values["runtime.alloc_kb_per_op"] = float64(allocBytes) / 1024 / float64(tracedOps)
	}
	m.values["runtime.gc_cycles"] = float64(gcCycles)
	offOK, _, offWall, _ := totals(cleanRounds(rs, false))
	onOK, _, onWall, _ := totals(cleanRounds(rs, true))
	if offOK > 0 && onWall > 0 {
		off, on := float64(offOK)/offWall, float64(onOK)/onWall
		m.values["trace.overhead_pct"] = (off - on) / off * 100
	}
	if o.traceOut != "" {
		if err := st.writeTrace(o.traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return m, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the unit of /proc/stat's counters (USER_HZ, 100 on Linux).
const userHZ = 100

// stealTime is the CPU time the hypervisor has taken from this machine's
// virtual CPUs since boot, summed over CPUs: the steal column of the
// aggregate line of /proc/stat. Where that cannot be read it is 0, and
// every round counts as clean.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of unsorted values (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted interpolates the q-quantile of sorted values.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
