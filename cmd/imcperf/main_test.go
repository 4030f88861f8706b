package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"imc/internal/core"
	"imc/internal/diffusion"
	"imc/internal/expt"
	"imc/internal/poolcache"
)

func smallInstance(t *testing.T) *expt.Instance {
	t.Helper()
	inst, err := expt.BuildInstance(expt.InstanceConfig{Dataset: "facebook", Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestEstimateSpanFromLogger pins the Logger seam: a solve that ends on
// the Estimate stop check must yield a non-zero core.estimate span. If
// core renames its "imcaf round" / "imcaf estimate check" records, this
// fails instead of the benchmark reading a faster Estimate.
func TestEstimateSpanFromLogger(t *testing.T) {
	inst := smallInstance(t)
	tr := newTracer(true)
	o, err := tracedSolve(context.Background(), tr, 0, noParent, solveRequest{inst: inst, alg: expt.AlgUBG, k: 3, seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if o.stopped != core.StopCondition {
		t.Fatalf("solve stopped by %v; the test needs one that reaches the stop condition", o.stopped)
	}
	total := 0.0
	n := 0
	for _, s := range tr.snapshot() {
		if s.Name == spanEstimate {
			total += s.dur()
			n++
		}
	}
	if n == 0 || total <= 0 || o.estCalls != n {
		t.Fatalf("core.estimate spans: %d totalling %gs (estCalls %d); want at least one with positive time", n, total, o.estCalls)
	}
	if share, below := coverage(tr.snapshot()); below > 0 {
		t.Errorf("span coverage %.3f below %.2f", share, minCoverage)
	}
}

// TestTracedSolveMatchesLibrary checks the traced replay against
// expt.RunAlgCtx: same seeds, benefit bits, samples and doublings, with
// and without a pool cache and a durable checkpoint hook.
func TestTracedSolveMatchesLibrary(t *testing.T) {
	inst := smallInstance(t)
	ctx := context.Background()
	for _, alg := range []string{expt.AlgUBG, expt.AlgMAF} {
		want, err := librarySolve(ctx, inst, alg, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := poolcache.Open(t.TempDir(), poolcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkpoints := 0
		for round := 0; round < 2; round++ { // round 1 hits the cache round 0 filled
			tr := newTracer(false)
			o, err := tracedSolve(ctx, tr, 0, noParent, solveRequest{
				inst: inst, alg: alg, k: 3, seed: 5,
				sess:    cache.Begin(inst.G, inst.Part, diffusion.IC, 5),
				durable: func(core.Checkpoint) error { checkpoints++; return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			if !o.ans.sameResult(want) || o.ans.Samples != want.Samples {
				t.Fatalf("%s round %d: traced %s, library %s", alg, round, o.ans.line(), want.line())
			}
			if o.hit != (round == 1) {
				t.Errorf("%s round %d: hit = %v", alg, round, o.hit)
			}
		}
		if checkpoints == 0 {
			t.Errorf("%s: durable checkpoint hook never ran", alg)
		}
	}
}

func TestAnswerCheck(t *testing.T) {
	ok := answer{Seeds: []int32{0, 4, 2}, Benefit: 3, Total: 10}
	if err := ok.check(3, 5); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	bad := map[string]answer{
		"short":     {Seeds: []int32{0, 4}, Benefit: 3, Total: 10},
		"repeated":  {Seeds: []int32{0, 4, 4}, Benefit: 3, Total: 10},
		"range":     {Seeds: []int32{0, 4, 5}, Benefit: 3, Total: 10},
		"negative":  {Seeds: []int32{0, 4, 2}, Benefit: -1, Total: 10},
		"over":      {Seeds: []int32{0, 4, 2}, Benefit: 11, Total: 10},
		"nan":       {Seeds: []int32{0, 4, 2}, Benefit: math.NaN(), Total: 10},
		"node < 0:": {Seeds: []int32{0, -1, 2}, Benefit: 3, Total: 10},
	}
	for name, a := range bad {
		if a.check(3, 5) == nil {
			t.Errorf("%s: invalid answer accepted", name)
		}
	}
	flipped := ok
	flipped.Benefit = math.Nextafter(3, 4)
	if ok.sameResult(flipped) {
		t.Error("answers one ULP apart compare equal")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, p, n := tail(xs)
	if v != 29 || p != 75 || n != 40 {
		t.Fatalf("tail = %v, p%v, n=%d; want 29, p75, 40", v, p, n)
	}
	if v, p, _ := tail(xs[:15]); v != 7 || p != 50 {
		t.Fatalf("short tail = %v p%v; want the median 7 at p50", v, p)
	}
}

// TestKeysStable pins key derivation: workload inputs must not change
// between commits, or their runs are not comparable.
func TestKeysStable(t *testing.T) {
	if got := deriveSeed(1, tagOps, 0); got != deriveSeed(1, tagOps, 0) || got == deriveSeed(2, tagOps, 0) || got >= 1<<40 {
		t.Fatalf("deriveSeed(1, ops, 0) = %d", got)
	}
	z := newZipf(zipfKeys, zipfExponent, 1)
	counts := make(map[int]int)
	for i := 0; i < 2000; i++ {
		counts[z.rank(i)]++
	}
	if counts[0] < counts[1] || counts[1] < counts[10] || len(counts) < 100 {
		t.Fatalf("zipf draws not skewed over a wide key space: top %d, second %d, distinct %d", counts[0], counts[1], len(counts))
	}
}

// TestRunMafSmoke drives the whole command once, traced, on the
// cheapest workload and checks the result line.
func TestRunMafSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full solves")
	}
	var out, errb bytes.Buffer
	dir := t.TempDir()
	code := run([]string{"-workload", "maf-facebook", "-seconds", "2", "-trace", "1",
		"-work-dir", filepath.Join(dir, "work"), "-trace-out", filepath.Join(dir, "traces")}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	for _, m := range perLayer {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("per-layer metric %s (%s): got %+v", m.name, m.unit, got)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "maf-facebook", "-trace", "2"},
		{"-workload", "maf-facebook", "-seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON ties BENCHMARK.json at the repository root to what
// the command reports: the untraced run's metrics are exactly its
// end_to_end list and the traced run's exactly its per_layer list, with
// the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ph := &phase{attempted: 2, wall: 1, cpu: 1, ops: []opRecord{{latency: 1}, {latency: 2}}}
	rep := newReport(io.Discard)
	endToEnd(ph, []float64{1}, rep)
	if len(rep.m) != len(spec.EndToEnd) {
		t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d", len(rep.m), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := rep.m[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i := range min(len(spec.PerLayer), len(perLayer)) {
		if got, want := spec.PerLayer[i], perLayer[i]; got.Name != want.name || got.Unit != want.unit {
			t.Errorf("per-layer #%d: BENCHMARK.json %s (%s), traced run %s (%s)", i, got.Name, got.Unit, want.name, want.unit)
		}
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one of %v", w.Name, workloadNames)
		}
	}
}
