package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"algossip/internal/graph"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in print order.
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trial_s_p50", "s"},
	{"trials_per_s", "1/s"},
	{"stop_rounds_mean", "rounds"},
	{"alloc_mb_per_trial", "MB"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics a traced run reports, in print order. A layer
// a workload does not run reports 0.
var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"algebraic.setup_s", "s"},
	{"algebraic.sent", "count"},
	{"algebraic.helpful", "count"},
	{"algebraic.useless", "count"},
	{"algebraic.helpful_ratio", "ratio"},
	{"sim.wake_s", "s"},
	{"sim.commit_s", "s"},
	{"sim.round_ms_p50", "ms"},
	{"sim.round_ms_p99", "ms"},
	{"sim.ns_per_contact", "ns"},
	{"sim.shard_busy_s", "s"},
	{"sim.shard_idle_ratio", "ratio"},
	{"sim.active_ratio", "ratio"},
	{"rlnc.decode_s", "s"},
	{"rlnc.decode_ms_p50", "ms"},
	{"linalg.add_us", "us"},
	{"linalg.combine_us", "us"},
	{"gf.addmul_gbps", "GB/s"},
	{"runtime.run_s", "s"},
	{"runtime.sent", "count"},
	{"runtime.dropped", "count"},
	{"runtime.drop_ratio", "ratio"},
	{"runtime.ticks_mean", "ticks"},
	{"runtime.done_tick_max", "ticks"},
	{"trace.overhead_ratio", "ratio"},
}

// value is one measured metric value with the sample count behind it.
type value struct {
	v       float64
	samples int
}

// outcome is everything one benchmark run produced.
type outcome struct {
	attempted, failed int
	failures          []string
	values            map[string]value
	failRatio         float64
}

func (o *outcome) set(name string, v float64, samples int) {
	o.values[name] = value{v, samples}
}

// check records one attempted trial or cross-check and its error, if any.
func (o *outcome) check(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
	}
	return err == nil
}

// config is one run's settings.
type config struct {
	w      workload
	seed   uint64
	budget time.Duration
	traced bool
	shards int
}

// loop runs whole passes over the workload's trial-seed list, calling
// trial(pass, i) for seed i, until another pass would overrun the budget;
// it always runs one. It returns the wall time of the passes. Whole passes
// give every seed the same number of samples, so the mix of seeds behind
// a run's figures does not depend on how fast the host is.
func loop(c config, trial func(pass, i int)) time.Duration {
	start := time.Now()
	for pass := 0; ; pass++ {
		p0 := time.Now()
		for i := 0; i < c.w.seeds; i++ {
			// Collect the previous trial's garbage outside the timed calls,
			// so every trial starts from the same heap state.
			goruntime.GC()
			trial(pass, i)
		}
		if el := time.Since(start); el+time.Since(p0) > c.budget {
			return el
		}
	}
}

// seedMean is the mean over the trial seeds of the median of each seed's
// samples of f, so every seed weighs the same. It also returns the number
// of samples behind it.
func seedMean[T any](bySeed [][]T, f func(T) float64) (float64, int) {
	var perSeed []float64
	n := 0
	for _, ts := range bySeed {
		if len(ts) == 0 {
			continue
		}
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = f(t)
		}
		perSeed = append(perSeed, median(xs))
		n += len(ts)
	}
	return mean(perSeed), n
}

// setSeedMean sets metric name to seedMean(bySeed, f).
func setSeedMean[T any](o *outcome, name string, bySeed [][]T, f func(T) float64) {
	v, n := seedMean(bySeed, f)
	o.set(name, v, n)
}

// count is the number of trials in bySeed.
func count[T any](bySeed [][]T) int {
	n := 0
	for _, ts := range bySeed {
		n += len(ts)
	}
	return n
}

// endToEndValues fills the end-to-end metrics that simulated and live
// trials share.
func endToEndValues[T any](o *outcome, bySeed [][]T, wall time.Duration, setup, trial func(T) time.Duration,
	alloc, heapPeak func(T) uint64) {
	n := count(bySeed)
	if n == 0 {
		return
	}
	setSeedMean(o, "setup_s", bySeed, func(t T) float64 { return setup(t).Seconds() })
	setSeedMean(o, "trial_s_p50", bySeed, func(t T) float64 { return trial(t).Seconds() })
	o.set("trials_per_s", float64(n)/wall.Seconds(), n)
	setSeedMean(o, "alloc_mb_per_trial", bySeed, func(t T) float64 { return float64(alloc(t)) / 1e6 })
	setSeedMean(o, "heap_peak_mb", bySeed, func(t T) float64 { return float64(heapPeak(t)) / 1e6 })
}

// runSim runs a simulated workload. Untraced, it times the end-to-end path
// (harness.Execute, or the direct path on the payload and graph-input
// workloads). Traced, it alternates that path with the traced one on each
// seed, requires identical trajectories, and reports per-layer metrics.
func runSim(c config) outcome {
	o := outcome{values: map[string]value{}}
	w := c.w
	graphs := make([]*graph.Graph, w.seeds)
	graphBuild := make([]time.Duration, w.seeds)
	if w.graphInput {
		for i := range graphs {
			t0 := time.Now()
			g, err := w.buildGraph(trialSeed(c.seed, i))
			if !o.check(fmt.Sprintf("graph %d", i), err) {
				return o
			}
			graphs[i], graphBuild[i] = g, time.Since(t0)
		}
	}
	plain := make([][]simTrial, w.seeds)
	traced := make([][]simTrial, w.seeds)
	wall := loop(c, func(pass, i int) {
		seed := trialSeed(c.seed, i)
		u, err := w.untraced(seed, c.shards, graphs[i])
		if c.traced && err == nil {
			// Start the traced trial from the same heap state as the
			// untraced one.
			goruntime.GC()
			var t simTrial
			t, err = runDirect(w, seed, c.shards, true, graphs[i])
			if err == nil {
				err = sameTrajectory(u, t)
			}
			if err == nil {
				traced[i] = append(traced[i], t)
			}
		}
		if o.check(fmt.Sprintf("pass %d seed %d", pass, i), err) {
			plain[i] = append(plain[i], u)
		}
	})
	first := trialSeed(c.seed, 0)
	if c.traced && !w.viaExecute() && len(traced[0]) > 0 {
		// The traced trials above were compared with the direct path;
		// compare one with harness.Execute as well.
		e, err := runExecute(w, first, c.shards, graphs[0])
		if err == nil {
			err = sameTrajectory(e, traced[0][0])
		}
		o.check("harness.Execute cross-check", err)
	}
	if w.sharded && len(plain[0]) > 0 {
		// The sharded trajectory must not depend on the shard count.
		one, err := runExecute(w, first, 1, graphs[0])
		if err == nil {
			err = sameTrajectory(one, plain[0][0])
		}
		o.check("shards=1 rerun", err)
	}
	if !c.traced {
		endToEndValues(&o, plain, wall,
			func(t simTrial) time.Duration { return t.setup }, func(t simTrial) time.Duration { return t.trial },
			func(t simTrial) uint64 { return t.alloc }, func(t simTrial) uint64 { return t.heapPeak })
		// Stopping rounds repeat exactly on a seed.
		setSeedMean(&o, "stop_rounds_mean", plain, func(t simTrial) float64 { return float64(t.rounds) })
		return o
	}
	o.simLayers(c, plain, traced, graphBuild)
	return o
}

// simLayers fills the per-layer metrics of a traced simulated run.
// graphBuild holds the build times of pregenerated input graphs.
func (o *outcome) simLayers(c config, plain, traced [][]simTrial, graphBuild []time.Duration) {
	n := count(traced)
	if n == 0 {
		return
	}
	secs := func(f func(simTrial) time.Duration) func(simTrial) float64 {
		return func(t simTrial) float64 { return f(t).Seconds() }
	}
	if c.w.graphInput {
		o.set("graph.build_s", mean(seconds(graphBuild)), len(graphBuild))
	} else {
		setSeedMean(o, "graph.build_s", traced, secs(func(t simTrial) time.Duration { return t.graphBuild }))
	}
	setSeedMean(o, "algebraic.setup_s", traced, secs(func(t simTrial) time.Duration { return t.algSetup }))
	// Traffic repeats exactly on a seed.
	traffic := func(f func(simTrial) int) func(simTrial) float64 {
		return func(t simTrial) float64 { return float64(f(t)) }
	}
	setSeedMean(o, "algebraic.sent", traced, traffic(func(t simTrial) int { return t.traffic.Sent }))
	setSeedMean(o, "algebraic.helpful", traced, traffic(func(t simTrial) int { return t.traffic.Helpful }))
	setSeedMean(o, "algebraic.useless", traced, traffic(func(t simTrial) int { return t.traffic.Useless }))
	if h, u := o.values["algebraic.helpful"], o.values["algebraic.useless"]; h.v+u.v > 0 {
		o.set("algebraic.helpful_ratio", h.v/(h.v+u.v), h.samples)
	}
	setSeedMean(o, "sim.wake_s", traced, secs(func(t simTrial) time.Duration { return t.tr.wake }))
	setSeedMean(o, "sim.commit_s", traced, secs(func(t simTrial) time.Duration { return t.tr.commit }))
	var roundMS, decodeMS []float64
	for _, ts := range traced {
		for _, t := range ts {
			for _, d := range t.tr.roundTimes {
				roundMS = append(roundMS, d.Seconds()*1e3)
			}
			for _, d := range t.decodeEach {
				decodeMS = append(decodeMS, d.Seconds()*1e3)
			}
		}
	}
	o.set("sim.round_ms_p50", percentile(roundMS, 50), len(roundMS))
	o.set("sim.round_ms_p99", percentile(roundMS, 99), len(roundMS))
	setSeedMean(o, "sim.ns_per_contact", traced, func(t simTrial) float64 {
		return float64(t.tr.wake+t.tr.commit) / float64(max(t.traffic.Sent, 1))
	})
	if c.w.sharded {
		busy := func(t simTrial) time.Duration { return time.Duration(t.tr.shardBusy.Load()) }
		setSeedMean(o, "sim.shard_busy_s", traced, secs(busy))
		setSeedMean(o, "sim.shard_idle_ratio", traced, func(t simTrial) float64 {
			return 1 - busy(t).Seconds()/(float64(c.shards)*max(t.tr.wake.Seconds(), 1e-9))
		})
		setSeedMean(o, "sim.active_ratio", traced, func(t simTrial) float64 {
			return float64(t.tr.activeBits) / float64(t.n*len(t.tr.roundTimes))
		})
	} else {
		// The classic engine wakes every node in every round.
		o.set("sim.active_ratio", 1, n)
	}
	if c.w.r > 0 {
		setSeedMean(o, "rlnc.decode_s", traced, secs(func(t simTrial) time.Duration { return t.decode }))
		o.set("rlnc.decode_ms_p50", percentile(decodeMS, 50), len(decodeMS))
	}
	plainTrial, _ := seedMean(plain, secs(func(t simTrial) time.Duration { return t.trial }))
	tracedTrial, _ := seedMean(traced, secs(func(t simTrial) time.Duration { return t.trial }))
	o.set("trace.overhead_ratio", tracedTrial/plainTrial-1, n)
	o.probes(c)
}

// probes fills the linalg and gf probe metrics at the workload's shape.
func (o *outcome) probes(c config) {
	k := c.w.k
	if c.w.gen > 0 {
		k = c.w.gen
	}
	add, combine := probeLinalg(c.w.q, k, c.w.r, c.seed)
	o.set("linalg.add_us", add, probeReps)
	o.set("linalg.combine_us", combine, probeReps)
	r := c.w.r
	if r == 0 {
		r = 1024 // rank-only workloads: the payload width of the others
	}
	o.set("gf.addmul_gbps", probeAddMul(c.w.q, r, c.seed), probeReps)
}

// runLiveWorkload runs the live workload. Its trials always record the
// runtime and decode split, so the traced run differs only in what it
// reports: the runtime, decode and probe metrics, with no tracing
// overhead.
func runLiveWorkload(c config) outcome {
	o := outcome{values: map[string]value{}}
	w := c.w
	trials := make([][]liveTrial, w.seeds)
	wall := loop(c, func(pass, i int) {
		t, err := runLive(w, trialSeed(c.seed, i))
		if o.check(fmt.Sprintf("pass %d seed %d", pass, i), err) {
			trials[i] = append(trials[i], t)
		}
	})
	n := count(trials)
	if n == 0 {
		return o
	}
	secs := func(f func(liveTrial) time.Duration) func(liveTrial) float64 {
		return func(t liveTrial) float64 { return f(t).Seconds() }
	}
	doneTick := func(t liveTrial) float64 { return float64(t.doneTickMax) }
	if !c.traced {
		endToEndValues(&o, trials, wall,
			func(t liveTrial) time.Duration { return t.setup }, func(t liveTrial) time.Duration { return t.trial },
			func(t liveTrial) uint64 { return t.alloc }, func(t liveTrial) uint64 { return t.heapPeak })
		// Cluster stopping ticks vary with scheduling even on one seed,
		// so the mean covers every cluster of the run; whole passes give
		// each seed the same weight.
		o.set("stop_rounds_mean", meanOf(trials, doneTick), n)
		return o
	}
	var decodeMS []float64
	for _, ts := range trials {
		for _, t := range ts {
			for _, d := range t.decodeEach {
				decodeMS = append(decodeMS, d.Seconds()*1e3)
			}
		}
	}
	setSeedMean(&o, "graph.build_s", trials, secs(func(t liveTrial) time.Duration { return t.graphBuild }))
	setSeedMean(&o, "rlnc.decode_s", trials, secs(func(t liveTrial) time.Duration { return t.decode }))
	o.set("rlnc.decode_ms_p50", percentile(decodeMS, 50), len(decodeMS))
	setSeedMean(&o, "runtime.run_s", trials, secs(func(t liveTrial) time.Duration { return t.run }))
	sent, dropped := meanOf(trials, func(t liveTrial) float64 { return float64(t.sent) }),
		meanOf(trials, func(t liveTrial) float64 { return float64(t.dropped) })
	o.set("runtime.sent", sent, n)
	o.set("runtime.dropped", dropped, n)
	if sent > 0 {
		o.set("runtime.drop_ratio", dropped/sent, n)
	}
	o.set("runtime.ticks_mean", meanOf(trials, func(t liveTrial) float64 { return t.ticksMean }), n)
	o.set("runtime.done_tick_max", meanOf(trials, doneTick), n)
	o.probes(c)
	return o
}

// meanOf is the mean of f over every trial in bySeed.
func meanOf[T any](bySeed [][]T, f func(T) float64) float64 {
	var xs []float64
	for _, ts := range bySeed {
		for _, t := range ts {
			xs = append(xs, f(t))
		}
	}
	return mean(xs)
}

// run dispatches one configured run.
func (c config) run() outcome {
	var o outcome
	if c.w.live {
		o = runLiveWorkload(c)
	} else {
		o = runSim(c)
	}
	if o.attempted > 0 {
		o.failRatio = float64(o.failed) / float64(o.attempted)
	}
	return o
}
