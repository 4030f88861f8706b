package main

import (
	"fmt"
	"io"
	"sort"

	"imc/internal/core"
)

// perLayer lists every per-layer metric with its unit, in print order.
// A traced run reports all of them; one a workload never crosses reads 0.
var perLayer = []struct{ name, unit string }{
	{"expt.build_s", "s"},
	{"expt.eval_s", "s"},
	{"expt.eval_samples", "count"},
	{"ric.generate_s", "s"},
	{"ric.generated_samples", "count"},
	{"ric.samples_per_s", "1/s"},
	{"ric.pool_samples", "count"},
	{"ric.doublings", "count"},
	{"ric.cpu_s", "s"},
	{"core.estimate_s", "s"},
	{"core.estimate_calls", "count"},
	{"core.stop_ratio", "ratio"},
	{"core.other_s", "s"},
	{"core.cpu_s", "s"},
	{"maxr.solve_s", "s"},
	{"maxr.calls", "count"},
	{"maxr.cpu_s", "s"},
	{"poolcache.load_s", "s"},
	{"poolcache.adopt_s", "s"},
	{"poolcache.hit_ratio", "ratio"},
	{"poolcache.adopted_ratio", "ratio"},
	{"poolcache.hit_latency_p50_s", "s"},
	{"poolcache.miss_latency_p50_s", "s"},
	{"poolcache.save_s", "s"},
	{"poolcache.saves", "count"},
	{"poolcache.bytes", "bytes"},
	{"poolcache.errors", "count"},
	{"serve.overhead_s", "s"},
	{"serve.shed", "count"},
	{"serve.errors_4xx", "count"},
	{"serve.errors_5xx", "count"},
	{"job.queue_wait_s", "s"},
	{"job.run_s", "s"},
	{"job.checkpoint_s", "s"},
	{"job.generator_lag_s", "s"},
	{"job.queue_depth_max", "count"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.span_coverage_min", "ratio"},
}

// minCoverage is the share of every core.SolveCtx wall time the named
// child spans must cover.
const minCoverage = 0.95

// opLayers is one operation's per-layer totals: self seconds, work
// counts, CPU seconds and span counts by span name.
type opLayers struct {
	self  map[string]float64
	count map[string]int
	cpu   map[string]float64
	spans map[string]int
}

// layerTotals folds spans into per-operation totals. A span's self time
// is its duration minus that of its children; children of one span run
// one after another on the operation's goroutine, so their durations
// add without overlap.
func layerTotals(spans []span) map[int]*opLayers {
	childDur := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.dur()
		}
	}
	ops := make(map[int]*opLayers)
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		l := ops[s.Op]
		if l == nil {
			l = &opLayers{self: map[string]float64{}, count: map[string]int{}, cpu: map[string]float64{}, spans: map[string]int{}}
			ops[s.Op] = l
		}
		l.self[s.Name] += max(s.dur()-childDur[s.ID], 0)
		l.count[s.Name] += s.Count
		l.cpu[s.Name] += s.CPU
		l.spans[s.Name]++
	}
	return ops
}

// coverage returns the smallest share of a core.solve span its named
// children cover, and how many solves fell below minCoverage.
func coverage(spans []span) (minShare float64, below int) {
	named := make(map[string]bool, len(solveChildren))
	for _, n := range solveChildren {
		named[n] = true
	}
	covered := make(map[int]float64)
	for _, s := range spans {
		if s.Parent >= 0 && named[s.Name] {
			covered[s.Parent] += s.dur()
		}
	}
	minShare = 1
	for _, s := range spans {
		if s.Name != spanSolve || s.dur() <= 0 {
			continue
		}
		share := covered[s.ID] / s.dur()
		minShare = min(minShare, share)
		if share < minCoverage {
			below++
		}
	}
	return minShare, below
}

// spanMetrics reports the span-derived layer metrics and the runtime
// counters of the untraced phase, and returns whether the span coverage
// check passed.
func spanMetrics(spans []span, outcomes map[int]solveOutcome, untraced, traced *phase, rep *report, out io.Writer) bool {
	ops := layerTotals(spans)
	ids := make([]int, 0, len(ops))
	for id := range ops {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	perOp := func(f func(l *opLayers) float64) []float64 {
		xs := make([]float64, len(ids))
		for i, id := range ids {
			xs[i] = f(ops[id])
		}
		return xs
	}
	self := func(name string) float64 { return median(perOp(func(l *opLayers) float64 { return l.self[name] })) }
	cpu := func(name string) float64 { return median(perOp(func(l *opLayers) float64 { return l.cpu[name] })) }
	nOps := float64(max(len(ids), 1))

	var builds, evalSamples []float64
	genSamples, genSeconds := 0, 0.0
	for _, s := range spans {
		switch s.Name {
		case spanBuild:
			builds = append(builds, s.dur())
		case spanEval:
			evalSamples = append(evalSamples, float64(s.Count))
		case spanGenerate:
			genSamples += s.Count
			genSeconds += s.dur()
		}
	}
	rep.add("expt.build_s", "s", median(builds), fmt.Sprintf("%d builds", len(builds)))
	rep.add("expt.eval_s", "s", self(spanEval), "")
	rep.add("expt.eval_samples", "count", median(evalSamples), "")
	rep.add("ric.generate_s", "s", self(spanGenerate), "")
	rep.add("ric.generated_samples", "count", median(perOp(func(l *opLayers) float64 { return float64(l.count[spanGenerate]) })), "")
	rate := 0.0
	if genSeconds > 0 {
		rate = float64(genSamples) / genSeconds
	}
	rep.add("ric.samples_per_s", "1/s", rate, "")

	var pool, doublings []float64
	estCalls, stops, adopted, poolTotal := 0, 0, 0, 0
	for _, o := range outcomes {
		pool = append(pool, float64(o.ans.Samples))
		doublings = append(doublings, float64(o.ans.Doublings))
		estCalls += o.estCalls
		if o.stopped == core.StopCondition {
			stops++
		}
		adopted += o.adopted
		poolTotal += o.ans.Samples
	}
	rep.add("ric.pool_samples", "count", median(pool), "")
	rep.add("ric.doublings", "count", median(doublings), "")
	rep.add("ric.cpu_s", "s", cpu(spanGenerate), "")
	rep.add("core.estimate_s", "s", self(spanEstimate), "")
	rep.add("core.estimate_calls", "count", float64(estCalls)/nOps, "per op")
	stopRatio := 0.0
	if estCalls > 0 {
		stopRatio = float64(stops) / float64(estCalls)
	}
	rep.add("core.stop_ratio", "ratio", stopRatio, fmt.Sprintf("%d of %d calls ended the loop", stops, estCalls))
	rep.add("core.other_s", "s", self(spanSolve), "solve minus its child spans")
	rep.add("core.cpu_s", "s", cpu(spanEstimate), "")
	rep.add("maxr.solve_s", "s", self(spanMaxr), "")
	rep.add("maxr.calls", "count", median(perOp(func(l *opLayers) float64 { return float64(l.spans[spanMaxr]) })), "per op")
	rep.add("maxr.cpu_s", "s", cpu(spanMaxr), "")

	// Cache spans: load time over the operations that found a snapshot,
	// adoption over those that adopted samples, saves over those that
	// saved.
	var loads, adopts, saves, checkpoints []float64
	for _, id := range ids {
		l := ops[id]
		if outcomes[id].hit {
			loads = append(loads, l.self[spanLoad])
		}
		if l.count[spanAdopt] > 0 {
			adopts = append(adopts, l.self[spanAdopt])
		}
		if l.spans[spanSave] > 0 {
			saves = append(saves, l.self[spanSave])
		}
		if l.spans[spanCheckpoint] > 0 {
			checkpoints = append(checkpoints, l.self[spanCheckpoint])
		}
	}
	rep.add("poolcache.load_s", "s", median(loads), fmt.Sprintf("%d hits", len(loads)))
	rep.add("poolcache.adopt_s", "s", median(adopts), fmt.Sprintf("%d adopting ops", len(adopts)))
	adoptedRatio := 0.0
	if poolTotal > 0 {
		adoptedRatio = float64(adopted) / float64(poolTotal)
	}
	rep.add("poolcache.adopted_ratio", "ratio", adoptedRatio, fmt.Sprintf("%d of %d pool samples adopted", adopted, poolTotal))
	rep.add("poolcache.save_s", "s", median(saves), "per op")
	rep.add("job.checkpoint_s", "s", median(checkpoints), "per op")

	alloc, gcs, gcCPU := runtimeCounters(untraced, len(untraced.okOps()))
	rep.add("runtime.alloc_mb_per_op", "MiB", alloc, "untraced phase")
	rep.add("runtime.gc_cycles_per_op", "count", gcs, "untraced phase")
	rep.add("runtime.gc_cpu_fraction", "ratio", gcCPU, "since process start")

	overhead := 0.0
	if base := median(untraced.latencies()); base > 0 {
		overhead = median(traced.latencies()) / base
	}
	rep.add("trace.overhead_ratio", "ratio", overhead, "traced p50 / untraced p50")
	share, below := coverage(spans)
	rep.add("trace.span_coverage_min", "ratio", share, fmt.Sprintf("%d solves below %.2f", below, minCoverage))
	if below > 0 {
		fmt.Fprintf(out, "# span coverage check FAILED: %d solves are less than %.0f%% covered by %v\n", below, 100*minCoverage, solveChildren)
	}
	return below == 0
}

// fillLayers reports 0 for every per-layer metric the workload did not
// set, so each traced run carries the full set.
func fillLayers(rep *report) {
	for _, m := range perLayer {
		if _, ok := rep.m[m.name]; !ok {
			rep.add(m.name, m.unit, 0, "not crossed by this workload")
		}
	}
}
