// Command imcperf is the repository's benchmark. It runs one workload
// per process, prints every end-to-end metric (or, with -trace 1, every
// per-layer metric) by name with its unit, checks every answer, and
// ends its output with one JSON result line.
//
//	imcperf -workload maf-facebook -seed 1 -seconds 30 -trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string // scratch directory for caches and job stores
	traceOut string // where the traced run writes its spans
}

// setupRepeats is how many times a run performs its whole set-up; the
// reported setup_s is their median and the last one is measured.
const setupRepeats = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: maf-facebook | serve-zipf | jobs-open")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "work"), "scratch directory for caches and job stores")
	fs.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "imcperf: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	w, ok := newWorkload(o)
	if !ok {
		fmt.Fprintf(stderr, "imcperf: unknown workload %q (valid: %v)\n", o.workload, workloadNames)
		return 2
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "imcperf: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "imcperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	writeHeader(stdout, o)
	res, err := runWorkload(context.Background(), o, w, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "imcperf: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "imcperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the metrics of the result line as it prints them.
type report struct {
	w io.Writer
	m map[string]metric
}

func newReport(w io.Writer) *report { return &report{w: w, m: make(map[string]metric)} }

func (r *report) add(name, unit string, v float64, note string) {
	r.m[name] = metric{Value: v, Unit: unit}
	r.print(name, unit, v, note)
}

// print prints a metric line without putting it in the result line.
func (r *report) print(name, unit string, v float64, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.w, "%-34s %14.6g %-6s%s\n", name, v, unit, note)
}

// workload is one benchmark workload. A run calls setup setupRepeats
// times (tearing down all but the last), measures, and, when traced,
// replays the measured operations through the traced library path.
type workload interface {
	// setup builds everything a measured phase needs and completes one
	// warm-up operation on a key outside the measured set.
	setup(ctx context.Context, t *tracer) error
	teardown()
	// measure runs the untraced load for the given duration.
	measure(ctx context.Context, d time.Duration) (*phase, error)
	// reference computes operation idx's answer through the library
	// with no cache, reporting samples and doublings.
	reference(ctx context.Context, idx int) (answer, error)
	// replay re-runs the operations of ph through the traced library
	// path at the workload's own concurrency and schedule, writing its
	// layer metrics (other than the span-derived ones) into r.
	replay(ctx context.Context, t *tracer, ph *phase, r *report) (*phase, map[int]solveOutcome, error)
	// layerCounters reports the counters the untraced phase exposes
	// (cache, server and job-store counters).
	layerCounters(ph *phase, r *report)
}

var workloadNames = []string{"maf-facebook", "serve-zipf", "jobs-open"}

func newWorkload(o options) (workload, bool) {
	switch o.workload {
	case "maf-facebook":
		return &mafBench{seed: o.seed}, true
	case "serve-zipf":
		return &serveBench{seed: o.seed, workDir: o.workDir, zipf: newZipf(zipfKeys, zipfExponent, zipfPatternSeed)}, true
	case "jobs-open":
		return &jobsBench{seed: o.seed, workDir: o.workDir}, true
	}
	return nil, false
}

// runWorkload performs one run of w and returns its result line.
func runWorkload(ctx context.Context, o options, w workload, out io.Writer) (result, error) {
	var t *tracer
	if o.trace {
		t = newTracer(o.workload == "maf-facebook")
	}
	defer w.teardown()
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
		}
		start := time.Now()
		if err := w.setup(ctx, t); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	measured := time.Duration(o.seconds) * time.Second
	if o.trace {
		// The traced run measures half the time untraced, then replays
		// the same operations traced.
		measured /= 2
	}
	ph, err := w.measure(ctx, measured)
	if err != nil {
		return result{}, fmt.Errorf("measure: %w", err)
	}
	correct, err := checkDigest(ctx, o, w, ph, out)
	if err != nil {
		return result{}, err
	}
	rep := newReport(out)
	if !o.trace {
		endToEnd(ph, setups, rep)
		return finish(correct, rep, ph), nil
	}
	traced, outcomes, err := w.replay(ctx, t, ph, rep)
	if err != nil {
		return result{}, fmt.Errorf("traced replay: %w", err)
	}
	mismatches := compareReplay(ph, traced, out)
	covered := spanMetrics(t.snapshot(), outcomes, ph, traced, rep, out)
	w.layerCounters(ph, rep)
	fillLayers(rep)
	if err := writeSpans(o, t); err != nil {
		return result{}, err
	}
	res := finish(correct && covered, rep, ph, traced)
	res.Failed += mismatches
	res.Correct = res.Correct && mismatches == 0
	return res, nil
}

// finish builds the result line from the run's phases and metrics.
func finish(correct bool, rep *report, phases ...*phase) result {
	attempted, failed := 0, 0
	for _, ph := range phases {
		attempted += ph.attempted
		failed += ph.attempted - len(ph.okOps())
	}
	return result{
		Correct:   correct && failed == 0 && attempted > 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics:   rep.m,
	}
}

// endToEnd reports the end-to-end metrics of an untraced phase, and
// prints its failed_ratio and runtime counters beside them.
func endToEnd(ph *phase, setups []float64, rep *report) {
	lat := ph.latencies()
	ok := len(lat)
	failed := ph.attempted - ok
	tailV, tailP, tailN := tail(lat)
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups: %s", len(setups), fmtList(setups)))
	throughput := 0.0
	if ph.wall > 0 {
		throughput = float64(ok) / ph.wall
	}
	rep.add("throughput_ops_s", "1/s", throughput, fmt.Sprintf("%d ops in %.3f s", ok, ph.wall))
	rep.add("latency_p50_s", "s", median(lat), fmt.Sprintf("n=%d", ok))
	rep.add("latency_tail_s", "s", tailV, fmt.Sprintf("p%.1f of n=%d, %d samples beyond", tailP, tailN, tailN-int(tailP/100*float64(tailN)+0.5)))
	rep.add("cpu_s_per_op", "s", ph.cpu/float64(max(ok, 1)), fmt.Sprintf("%.3f CPU s total", ph.cpu))
	rep.add("peak_rss_mb", "MiB", peakRSSMB(), "VmHWM")
	failedRatio := 1.0
	if ph.attempted > 0 {
		failedRatio = float64(failed) / float64(ph.attempted)
	}
	rep.print("failed_ratio", "ratio", failedRatio, fmt.Sprintf("%d of %d failed; counted in the result line's failed", failed, ph.attempted))
	alloc, gcs, gcCPU := runtimeCounters(ph, ok)
	fmt.Fprintf(rep.w, "# runtime: alloc_mb_per_op=%.3f gc_cycles_per_op=%.3f gc_cpu_fraction=%.4f\n", alloc, gcs, gcCPU)
	for _, op := range ph.ops {
		if op.err != nil {
			fmt.Fprintf(rep.w, "# failed op %d: %v\n", op.idx, op.err)
		}
	}
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

// checkDigest computes the answer digest over the first digestOps
// operations, filling in any the phase lacks (or whose answers lack
// sample counts) from the library reference, and compares it with the
// pinned digest on the default seed. Reference answers that disagree
// with the measured ones mark those operations failed.
func checkDigest(ctx context.Context, o options, w workload, ph *phase, out io.Writer) (bool, error) {
	byIdx := make(map[int]int, len(ph.ops))
	for i, op := range ph.ops {
		byIdx[op.idx] = i
	}
	answers := make([]answer, digestOps)
	for i := range answers {
		pos, seen := byIdx[i]
		if seen && ph.ops[pos].err == nil && ph.ops[pos].ans.Samples > 0 {
			answers[i] = ph.ops[pos].ans
			continue
		}
		ref, err := w.reference(ctx, i)
		if err != nil {
			return false, fmt.Errorf("reference answer %d: %w", i, err)
		}
		if seen && ph.ops[pos].err == nil && !ref.sameResult(ph.ops[pos].ans) {
			ph.ops[pos].err = errors.New("answer differs from the library reference")
		}
		answers[i] = ref
	}
	got := digest(o.workload, answers)
	want := pinnedDigests[o.workload]
	switch {
	case o.seed != defaultSeed:
		fmt.Fprintf(out, "# answer digest %s (not pinned for seed %d)\n", got, o.seed)
		return true, nil
	case got == want:
		fmt.Fprintf(out, "# answer digest %s matches the pinned digest\n", got)
		return true, nil
	default:
		fmt.Fprintf(out, "# answer digest %s DIFFERS from the pinned %s\n", got, want)
		return false, nil
	}
}

// compareReplay counts operations whose traced answer differs from the
// untraced one.
func compareReplay(untraced, traced *phase, out io.Writer) int {
	want := make(map[int]answer, len(untraced.ops))
	for _, op := range untraced.ops {
		if op.err == nil {
			want[op.idx] = op.ans
		}
	}
	n := 0
	for _, op := range traced.ops {
		a, ok := want[op.idx]
		if ok && op.err == nil && !a.sameResult(op.ans) {
			fmt.Fprintf(out, "# op %d: traced answer differs from the untraced one\n", op.idx)
			n++
		}
	}
	return n
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(o options, t *tracer) error {
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := t.write(f); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
