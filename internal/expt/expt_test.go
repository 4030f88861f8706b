package expt

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"imc/internal/diffusion"
)

// tinyCfg keeps experiment tests fast on one core: microscopic datasets
// and small sampling budgets.
func tinyCfg() Config {
	return Config{
		Scale: 0.03,
		Run: RunConfig{
			Seed:       1,
			Runs:       1,
			MaxSamples: 1 << 12,
			EvalTMax:   1 << 12,
			BTMaxRoots: 8,
		},
		Ks:       []int{3, 6},
		SizeCaps: []int{4, 8},
		Datasets: []string{"facebook", "wikivote"},
	}
}

func TestBuildInstanceDefaults(t *testing.T) {
	inst, err := BuildInstance(InstanceConfig{Dataset: "facebook", Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inst.G.NumNodes() < 16 {
		t.Fatalf("n = %d", inst.G.NumNodes())
	}
	if err := inst.Part.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range inst.Part.Sizes() {
		if s > 8 {
			t.Fatalf("community of size %d exceeds default cap 8", s)
		}
	}
	// Regular thresholds: h = ⌈|C|/2⌉.
	for i := 0; i < inst.Part.NumCommunities(); i++ {
		c := inst.Part.Community(i)
		want := (len(c.Members) + 1) / 2
		if c.Threshold != want {
			t.Fatalf("community %d: threshold %d, want %d", i, c.Threshold, want)
		}
		if c.Benefit != float64(len(c.Members)) {
			t.Fatalf("community %d: benefit %g, want population", i, c.Benefit)
		}
	}
	if !strings.Contains(inst.Name, "facebook/louvain/s=8/regular") {
		t.Fatalf("instance name %q", inst.Name)
	}
}

func TestBuildInstanceBoundedAndRandom(t *testing.T) {
	inst, err := BuildInstance(InstanceConfig{
		Dataset:   "wikivote",
		Scale:     0.03,
		Formation: RandomFormation,
		SizeCap:   6,
		Bounded:   true,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inst.Part.NumCommunities(); i++ {
		c := inst.Part.Community(i)
		want := 2
		if len(c.Members) < 2 {
			want = len(c.Members)
		}
		if c.Threshold != want {
			t.Fatalf("bounded threshold = %d for size %d", c.Threshold, len(c.Members))
		}
	}
	if !strings.Contains(inst.Name, "random") || !strings.Contains(inst.Name, "bounded") {
		t.Fatalf("instance name %q", inst.Name)
	}
}

func TestBuildInstanceUnknownDataset(t *testing.T) {
	if _, err := BuildInstance(InstanceConfig{Dataset: "nope"}); err == nil {
		t.Fatal("want error")
	}
}

// TestBuildInstanceScaleRange pins that a scale outside (0, 1] is an
// error, not a silent full-size build, while the unset 0 still means
// the full-size default.
func TestBuildInstanceScaleRange(t *testing.T) {
	for _, scale := range []float64{math.NaN(), 5, -0.5, 1.0000001, math.Inf(1)} {
		if _, err := BuildInstance(InstanceConfig{Dataset: "facebook", Scale: scale, Seed: 1}); err == nil {
			t.Errorf("scale %g: want an out-of-range error", scale)
		} else if !strings.Contains(err.Error(), "out of (0, 1]") {
			t.Errorf("scale %g: err = %v, want the range error", scale, err)
		}
	}
	def, err := BuildInstance(InstanceConfig{Dataset: "facebook", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildInstance(InstanceConfig{Dataset: "facebook", Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if def.Config.Scale != 1 || def.G.NumNodes() != full.G.NumNodes() {
		t.Fatalf("Scale 0 built scale %g with %d nodes, want the full-size %d", def.Config.Scale, def.G.NumNodes(), full.G.NumNodes())
	}
}

func TestRunAlgAllAlgorithms(t *testing.T) {
	inst, err := BuildInstance(InstanceConfig{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg().Run
	for _, alg := range AllAlgorithms {
		res, err := RunAlgCtx(context.Background(), inst, alg, 4, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Alg != alg {
			t.Fatalf("alg echo %q", res.Alg)
		}
		if res.Benefit < 0 || res.Benefit > inst.Part.TotalBenefit() {
			t.Fatalf("%s benefit %g out of range", alg, res.Benefit)
		}
	}
	if _, err := RunAlgCtx(context.Background(), inst, "nope", 4, cfg); err == nil {
		t.Fatal("want unknown-algorithm error")
	}
	// Extension algorithms beyond the paper's legend.
	for _, alg := range []string{AlgUBGLS, AlgDD} {
		res, err := RunAlgCtx(context.Background(), inst, alg, 4, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Benefit < 0 || res.Benefit > inst.Part.TotalBenefit() {
			t.Fatalf("%s benefit %g out of range", alg, res.Benefit)
		}
	}
}

func TestRunAlgAveragesRuns(t *testing.T) {
	inst, err := BuildInstance(InstanceConfig{Dataset: "facebook", Scale: 0.03, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg().Run
	cfg.Runs = 3
	res, err := RunAlgCtx(context.Background(), inst, AlgMAF, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benefit <= 0 {
		t.Fatalf("averaged benefit %g", res.Benefit)
	}
}

func TestTable1(t *testing.T) {
	cfg := tinyCfg()
	cfg.Datasets = nil // all five
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // defaultDatasets excludes pokec
		t.Fatalf("got %d rows", len(rows))
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"facebook", "wikivote", "747", "Table I"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	cfg := tinyCfg()
	cfg.SizeCaps = []int{4}
	cfg.Ks = []int{4}
	rows, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 panels × 1 cap × (5 or 6 algorithms).
	if len(rows) != 5+5+6+5 {
		t.Fatalf("got %d rows", len(rows))
	}
	panels := map[string]bool{}
	for _, r := range rows {
		panels[r.Panel] = true
		if r.X != "s=4" {
			t.Fatalf("x = %q", r.X)
		}
	}
	if len(panels) != 4 {
		t.Fatalf("panels = %v", panels)
	}
}

func TestFig5AndFig6Shape(t *testing.T) {
	cfg := tinyCfg()
	rows5, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 ks × 5 algs.
	if len(rows5) != 20 {
		t.Fatalf("fig5: %d rows", len(rows5))
	}
	rows6, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 ks × 6 algs, minus MB on the last dataset (2 ks).
	if len(rows6) != 24-2 {
		t.Fatalf("fig6: %d rows", len(rows6))
	}
	sawMBOnLast := false
	for _, r := range rows6 {
		if r.Alg == AlgMB && r.Panel == "wikivote" {
			sawMBOnLast = true
		}
	}
	if sawMBOnLast {
		t.Fatal("MB should be skipped on the largest dataset")
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := tinyCfg()
	cfg.Datasets = []string{"facebook", "wikivote"}
	cfg.Ks = []int{3}
	rows, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// bounded: fb(MAF,UBG,MB) + wv(MAF,UBG) = 5; regular: 2+2 = 4.
	if len(rows) != 9 {
		t.Fatalf("fig7: %d rows", len(rows))
	}
	for _, r := range rows {
		if r.RuntimeSec < 0 {
			t.Fatalf("negative runtime in %+v", r)
		}
	}
}

func TestFig8RatioInRange(t *testing.T) {
	cfg := tinyCfg()
	cfg.Ks = []int{3}
	cfg.Datasets = []string{"facebook"}
	rows, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // regular + bounded
		t.Fatalf("fig8: %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 0 || r.Ratio > 1.15 { // MC noise can nudge past 1
			t.Fatalf("ratio %g out of range in %+v", r.Ratio, r)
		}
	}
}

func TestRenderRows(t *testing.T) {
	var buf bytes.Buffer
	err := RenderRows(&buf, "demo", []Row{{Panel: "p", X: "k=1", Alg: "UBG", Benefit: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "UBG") {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestFormationString(t *testing.T) {
	if Louvain.String() != "louvain" || RandomFormation.String() != "random" {
		t.Fatal("formation strings")
	}
	if Formation(9).String() != "Formation(9)" {
		t.Fatal("unknown formation string")
	}
}

// TestRunAlgLTModel exercises the harness end to end under the Linear
// Threshold extension.
func TestRunAlgLTModel(t *testing.T) {
	inst, err := BuildInstance(InstanceConfig{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg().Run
	cfg.Model = diffusion.LT
	for _, alg := range []string{AlgUBG, AlgMAF, AlgIM} {
		res, err := RunAlgCtx(context.Background(), inst, alg, 4, cfg)
		if err != nil {
			t.Fatalf("LT %s: %v", alg, err)
		}
		if res.Benefit < 0 || res.Benefit > inst.Part.TotalBenefit() {
			t.Fatalf("LT %s benefit %g out of range", alg, res.Benefit)
		}
	}
}

// TestRenderRowsCSV checks the CSV output path used for plotting.
func TestRenderRowsCSV(t *testing.T) {
	var buf bytes.Buffer
	rows := []Row{
		{Panel: "p1", X: "k=5", Alg: "UBG", Benefit: 1.25, RuntimeSec: 0.5},
		{Panel: "p2", X: "k=10", Alg: "MAF", Ratio: 0.75},
	}
	if err := RenderRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines: %v", lines)
	}
	if lines[0] != "panel,x,algorithm,benefit,benefit_ci95,runtime_sec,ratio" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "p1,k=5,UBG,1.2500,") {
		t.Fatalf("row %q", lines[1])
	}
}

// TestConvergenceShrinksError runs the estimator-quality experiment
// and asserts the defining property: the relative error at the largest
// pool is below the error at the smallest (up to a small tolerance).
func TestConvergenceShrinksError(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.1
	cfg.Ks = []int{5}
	cfg.Datasets = []string{"facebook"}
	cfg.Run.MaxSamples = 1 << 14
	rows, err := Convergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("only %d pool sizes measured", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.Ratio > first.Ratio+0.05 {
		t.Fatalf("relative error grew from %g (R small) to %g (R large)", first.Ratio, last.Ratio)
	}
	if last.Ratio > 0.2 {
		t.Fatalf("final relative error %g too large", last.Ratio)
	}
}

// TestExtensionsShape runs the extensions comparison at tiny scale.
func TestExtensionsShape(t *testing.T) {
	cfg := tinyCfg()
	cfg.Ks = []int{3}
	cfg.Datasets = []string{"facebook"}
	rows, err := Extensions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // 1 dataset × 1 k × 5 algorithms
		t.Fatalf("got %d rows", len(rows))
	}
	var ubg, ubgLS float64
	for _, r := range rows {
		switch r.Alg {
		case AlgUBG:
			ubg = r.Benefit
		case AlgUBGLS:
			ubgLS = r.Benefit
		}
	}
	// Local search never regresses pool coverage; the Dagum-scored
	// benefit may wiggle, so allow generous noise.
	if ubgLS < 0.6*ubg {
		t.Fatalf("UBG+LS %g implausibly below UBG %g", ubgLS, ubg)
	}
}

// TestWinCount checks the who-wins digest.
func TestWinCount(t *testing.T) {
	rows := []Row{
		{Panel: "p1", X: "k=5", Alg: "UBG", Benefit: 10},
		{Panel: "p1", X: "k=5", Alg: "KS", Benefit: 4},
		{Panel: "p1", X: "k=10", Alg: "UBG", Benefit: 20},
		{Panel: "p1", X: "k=10", Alg: "KS", Benefit: 20}, // tie
		{Panel: "p2", X: "k=5", Alg: "KS", Benefit: 7},
		{Panel: "p3", X: "k=5", Alg: "KS", Benefit: 0}, // zero never wins
	}
	wins := WinCount(rows)
	if wins["UBG"] != 2 {
		t.Fatalf("UBG wins = %d, want 2", wins["UBG"])
	}
	if wins["KS"] != 2 { // tie at p1/k=10 plus solo win at p2
		t.Fatalf("KS wins = %d, want 2", wins["KS"])
	}
}

// TestScaleForOverrides checks per-dataset scale resolution.
func TestScaleForOverrides(t *testing.T) {
	cfg := Config{Scale: 0.1, ScaleFor: map[string]float64{"facebook": 1.0, "bogus": -1}}
	if got := cfg.scaleOf("facebook"); got != 1.0 {
		t.Fatalf("facebook scale = %g", got)
	}
	if got := cfg.scaleOf("wikivote"); got != 0.1 {
		t.Fatalf("fallback scale = %g", got)
	}
	// Invalid override falls back to the global scale.
	if got := cfg.scaleOf("bogus"); got != 0.1 {
		t.Fatalf("invalid override used: %g", got)
	}
	// Table1 honors the override.
	tcfg := tinyCfg()
	tcfg.Datasets = []string{"facebook"}
	tcfg.ScaleFor = map[string]float64{"facebook": 0.1}
	rows, err := Table1(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Nodes != 74 {
		t.Fatalf("facebook at 0.1 scale has %d nodes, want 74", rows[0].Nodes)
	}
}

// TestWriteReport runs the full Markdown report at microscopic scale.
func TestWriteReport(t *testing.T) {
	cfg := tinyCfg()
	cfg.Ks = []int{3}
	cfg.SizeCaps = []int{4}
	cfg.Datasets = []string{"facebook"}
	var buf bytes.Buffer
	if err := WriteReport(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# IMC evaluation report",
		"## Table I",
		"## Fig. 4",
		"## Fig. 8",
		"| facebook |",
		"_Generated in",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestRenderRowsPlot checks the ASCII-chart path groups panels and
// series correctly.
func TestRenderRowsPlot(t *testing.T) {
	var buf bytes.Buffer
	rows := []Row{
		{Panel: "p1", X: "k=5", Alg: "UBG", Benefit: 10},
		{Panel: "p1", X: "k=10", Alg: "UBG", Benefit: 20},
		{Panel: "p1", X: "k=5", Alg: "KS", Benefit: 4},
		{Panel: "p1", X: "k=10", Alg: "KS", Benefit: 6},
		{Panel: "p2", X: "k=5", Alg: "MAF", Benefit: 3},
	}
	if err := RenderRowsPlot(&buf, "title", rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"title", "panel p1", "panel p2", "* UBG", "o KS", "* MAF", "k=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot output missing %q:\n%s", want, out)
		}
	}
	// Ratio-only rows fall back to the ratio metric without error.
	buf.Reset()
	if err := RenderRowsPlot(&buf, "r", []Row{{Panel: "p", X: "k=1", Alg: "UBG", Ratio: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.50") {
		t.Fatalf("ratio axis missing:\n%s", buf.String())
	}
}

// TestPaperShapeUBGBeatsKS asserts the headline qualitative result on a
// small instance: UBG's benefit is at least KS's (the paper's worst
// baseline) at every k.
func TestPaperShapeUBGBeatsKS(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.1
	cfg.Datasets = []string{"wikivote"}
	cfg.Ks = []int{10}
	rows, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byAlg := map[string]float64{}
	for _, r := range rows {
		byAlg[r.Alg] = r.Benefit
	}
	if byAlg[AlgUBG] < byAlg[AlgKS] {
		t.Fatalf("UBG %g below KS %g", byAlg[AlgUBG], byAlg[AlgKS])
	}
}
