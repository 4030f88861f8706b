package expt

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"imc/internal/diffusion"
	"imc/internal/maxr"
	"imc/internal/ric"
)

// Config parameterizes a whole experiment (one table or figure).
type Config struct {
	// Scale shrinks every dataset analog; (0, 1]. The defaults in
	// cmd/imcbench keep single-core runtimes reasonable.
	Scale float64
	// ScaleFor overrides Scale per dataset (e.g. facebook can run at
	// its true size while pokec stays scaled down).
	ScaleFor map[string]float64
	// Run configures algorithm execution.
	Run RunConfig
	// Ks overrides the seed-budget sweep where applicable.
	Ks []int
	// SizeCaps overrides Fig. 4's community-size-cap sweep.
	SizeCaps []int
	// Datasets overrides the dataset list where applicable.
	Datasets []string
	// Checkpoint, when non-nil, persists finished cells and serves them
	// on re-runs so interrupted sweeps resume instead of recomputing.
	Checkpoint *Checkpoint
}

func (c Config) normalized() Config {
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 0.05
	}
	c.Run = c.Run.normalized()
	return c
}

// scaleOf resolves the effective scale for one dataset.
func (c Config) scaleOf(dataset string) float64 {
	if s, ok := c.ScaleFor[dataset]; ok && s > 0 && s <= 1 {
		return s
	}
	return c.Scale
}

// Row is one data point of a figure: a (panel, x, algorithm) triple
// with the measured quantities.
type Row struct {
	// Panel identifies the sub-plot, e.g. "facebook/louvain".
	Panel string
	// X is the swept variable rendered as "k=10" or "s=8".
	X string
	// Alg names the algorithm.
	Alg string
	// Benefit is the estimated expected benefit (0 for runtime-only
	// figures).
	Benefit float64
	// BenefitCI95 is the 95% confidence half-width across runs (0 for a
	// single run).
	BenefitCI95 float64
	// RuntimeSec is the mean selection time in seconds.
	RuntimeSec float64
	// Ratio is Fig. 8's c(S_ν)/ν(S_ν) (0 elsewhere).
	Ratio float64
}

// RenderRows pretty-prints figure rows as an aligned table.
func RenderRows(w io.Writer, title string, rows []Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprintln(tw, "panel\tx\talgorithm\tbenefit\t±95%\truntime(s)\tratio")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%.2f\t%.3f\t%.3f\n",
			r.Panel, r.X, r.Alg, r.Benefit, r.BenefitCI95, r.RuntimeSec, r.Ratio)
	}
	return tw.Flush()
}

// RenderRowsCSV emits figure rows as CSV for external plotting.
func RenderRowsCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"panel", "x", "algorithm", "benefit", "benefit_ci95", "runtime_sec", "ratio"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Panel,
			r.X,
			r.Alg,
			strconv.FormatFloat(r.Benefit, 'f', 4, 64),
			strconv.FormatFloat(r.BenefitCI95, 'f', 4, 64),
			strconv.FormatFloat(r.RuntimeSec, 'f', 6, 64),
			strconv.FormatFloat(r.Ratio, 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WinCount summarizes how often each algorithm achieved the best
// benefit across the (panel, x) cells of a row set — the "who wins"
// digest used in reports. Ties award every tied algorithm.
func WinCount(rows []Row) map[string]int {
	type cell struct{ panel, x string }
	best := make(map[cell]float64)
	for _, r := range rows {
		c := cell{r.Panel, r.X}
		if r.Benefit > best[c] {
			best[c] = r.Benefit
		}
	}
	wins := make(map[string]int)
	for _, r := range rows {
		c := cell{r.Panel, r.X}
		if r.Benefit > 0 && r.Benefit >= best[c]-1e-9 {
			wins[r.Alg]++
		}
	}
	return wins
}

// Table1Row is one dataset-statistics row (paper Table I).
type Table1Row struct {
	Name       string
	Family     string
	Directed   bool
	Nodes      int
	Edges      int
	PaperNodes int
	PaperEdges int
}

// Table1 regenerates the dataset-statistics table against the synthetic
// analogs at the given scale.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.normalized()
	datasets := cfg.Datasets
	if datasets == nil {
		datasets = defaultDatasets()
	}
	reg := registry()
	rows := make([]Table1Row, 0, len(datasets))
	for _, name := range datasets {
		d, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("expt: unknown dataset %q", name)
		}
		g, err := d.Build(cfg.scaleOf(name), cfg.Run.Seed)
		if err != nil {
			return nil, err
		}
		edges := g.NumEdges()
		if !d.Directed {
			edges /= 2 // report undirected edge count like the paper
		}
		rows = append(rows, Table1Row{
			Name:       d.Name,
			Family:     d.Family,
			Directed:   d.Directed,
			Nodes:      g.NumNodes(),
			Edges:      edges,
			PaperNodes: d.PaperNodes,
			PaperEdges: d.PaperEdges,
		})
	}
	return rows, nil
}

// RenderTable1 pretty-prints Table I rows.
func RenderTable1(w io.Writer, rows []Table1Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table I: dataset statistics (synthetic analogs; paper values in parentheses)")
	fmt.Fprintln(tw, "data\ttype\tgenerator\tnodes\tedges")
	for _, r := range rows {
		typ := "Undirected"
		if r.Directed {
			typ = "Directed"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d (%d)\t%d (%d)\n",
			r.Name, typ, r.Family, r.Nodes, r.PaperNodes, r.Edges, r.PaperEdges)
	}
	return tw.Flush()
}

// Fig4 compares solution quality across community formations and size
// caps s at fixed k=10: (a) facebook/Louvain, (b) facebook/Random,
// (c) facebook/Louvain with bounded thresholds, (d) dblp/Louvain.
func Fig4(cfg Config) ([]Row, error) {
	cfg = cfg.normalized()
	caps := cfg.SizeCaps
	if caps == nil {
		caps = []int{4, 8, 16, 32}
	}
	k := 10
	if len(cfg.Ks) > 0 {
		k = cfg.Ks[0]
	}
	type panel struct {
		name      string
		dataset   string
		formation Formation
		bounded   bool
		algs      []string
	}
	regular := []string{AlgUBG, AlgMAF, AlgHBC, AlgKS, AlgIM}
	bounded := []string{AlgUBG, AlgMAF, AlgMB, AlgHBC, AlgKS, AlgIM}
	panels := []panel{
		{"a:facebook/louvain", "facebook", Louvain, false, regular},
		{"b:facebook/random", "facebook", RandomFormation, false, regular},
		{"c:facebook/bounded", "facebook", Louvain, true, bounded},
		{"d:dblp/louvain", "dblp", Louvain, false, regular},
	}
	cells := 0
	for _, p := range panels {
		cells += len(caps) * len(p.algs)
	}
	rows := make([]Row, 0, cells)
	for _, p := range panels {
		for _, s := range caps {
			inst, err := BuildInstance(InstanceConfig{
				Dataset:   p.dataset,
				Scale:     cfg.scaleOf(p.dataset),
				Formation: p.formation,
				SizeCap:   s,
				Bounded:   p.bounded,
				Seed:      cfg.Run.Seed,
			})
			if err != nil {
				return nil, err
			}
			for _, alg := range p.algs {
				row, err := runCell(cfg.Checkpoint, inst, alg, k, cfg.Run, p.name, fmt.Sprintf("s=%d", s))
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// Fig5 compares benefit versus seed budget k under regular (50%)
// thresholds.
func Fig5(cfg Config) ([]Row, error) {
	cfg = cfg.normalized()
	return benefitVsK(cfg, false, []string{AlgUBG, AlgMAF, AlgHBC, AlgKS, AlgIM}, nil)
}

// Fig6 compares benefit versus k under bounded thresholds (h=2),
// including MB. Mirroring the paper (which discarded MB's Pokec runs
// for exceeding the runtime limit), MB is skipped on the final —
// largest — dataset of the sweep.
func Fig6(cfg Config) ([]Row, error) {
	cfg = cfg.normalized()
	datasets := cfg.Datasets
	if datasets == nil {
		datasets = defaultDatasets()
	}
	skipMB := map[string]bool{datasets[len(datasets)-1]: true}
	return benefitVsK(cfg, true, []string{AlgUBG, AlgMAF, AlgMB, AlgHBC, AlgKS, AlgIM}, skipMB)
}

func benefitVsK(cfg Config, bounded bool, algs []string, skipMB map[string]bool) ([]Row, error) {
	ks := cfg.Ks
	if ks == nil {
		ks = []int{5, 10, 20, 30, 40, 50}
	}
	datasets := cfg.Datasets
	if datasets == nil {
		datasets = defaultDatasets()
	}
	rows := make([]Row, 0, len(datasets)*len(ks)*len(algs))
	for _, ds := range datasets {
		inst, err := BuildInstance(InstanceConfig{
			Dataset: ds,
			Scale:   cfg.scaleOf(ds),
			Bounded: bounded,
			Seed:    cfg.Run.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			for _, alg := range algs {
				if alg == AlgMB && skipMB[ds] {
					continue
				}
				// Key bounded/regular separately so one checkpoint file
				// can serve both Fig. 5 and Fig. 6.
				panelKey := ds
				if bounded {
					panelKey = "bounded:" + ds
				}
				row, err := runCell(cfg.Checkpoint, inst, alg, k, cfg.Run, panelKey, fmt.Sprintf("k=%d", k))
				if err != nil {
					return nil, err
				}
				row.Panel = ds
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// Fig7 measures seed-selection runtime on the two largest datasets:
// panel (a) bounded thresholds with MAF/UBG/MB (MB skipped on the
// largest, as in the paper), panel (b) regular thresholds with MAF/UBG.
func Fig7(cfg Config) ([]Row, error) {
	cfg = cfg.normalized()
	datasets := cfg.Datasets
	if datasets == nil {
		datasets = []string{"dblp", "pokec"}
	}
	ks := cfg.Ks
	if ks == nil {
		ks = []int{10, 50, 100}
	}
	largest := datasets[len(datasets)-1]
	// Two regular algorithms plus three bounded ones: five cells per
	// (dataset, k) pair across the two modes.
	rows := make([]Row, 0, 5*len(datasets)*len(ks))
	for _, bounded := range []bool{true, false} {
		panelTag := "b:regular"
		algs := []string{AlgMAF, AlgUBG}
		if bounded {
			panelTag = "a:bounded"
			algs = []string{AlgMAF, AlgUBG, AlgMB}
		}
		for _, ds := range datasets {
			inst, err := BuildInstance(InstanceConfig{
				Dataset: ds,
				Scale:   cfg.scaleOf(ds),
				Bounded: bounded,
				Seed:    cfg.Run.Seed,
			})
			if err != nil {
				return nil, err
			}
			for _, k := range ks {
				for _, alg := range algs {
					if alg == AlgMB && ds == largest {
						continue
					}
					if row, ok := cfg.Checkpoint.lookup(panelTag+"/"+ds, fmt.Sprintf("k=%d", k), alg); ok {
						rows = append(rows, row)
						continue
					}
					res, err := RunAlgCtx(context.Background(), inst, alg, k, cfg.Run)
					if err != nil {
						return nil, err
					}
					row := Row{
						Panel:      panelTag + "/" + ds,
						X:          fmt.Sprintf("k=%d", k),
						Alg:        alg,
						RuntimeSec: res.Runtime.Seconds(),
						Benefit:    res.Benefit,
					}
					if err := cfg.Checkpoint.record(row); err != nil {
						return nil, err
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

// Fig8 measures UBG's empirical sandwich ratio c(S_ν)/ν(S_ν) versus k,
// in both threshold regimes, estimating c and ν by Monte Carlo exactly
// as the paper describes.
func Fig8(cfg Config) ([]Row, error) {
	cfg = cfg.normalized()
	datasets := cfg.Datasets
	if datasets == nil {
		datasets = []string{"facebook", "wikivote"}
	}
	ks := cfg.Ks
	if ks == nil {
		ks = []int{5, 10, 20, 50}
	}
	rows := make([]Row, 0, 2*len(datasets)*len(ks))
	for _, bounded := range []bool{false, true} {
		mode := "regular"
		if bounded {
			mode = "bounded"
		}
		for _, ds := range datasets {
			inst, err := BuildInstance(InstanceConfig{
				Dataset: ds,
				Scale:   cfg.scaleOf(ds),
				Bounded: bounded,
				Seed:    cfg.Run.Seed,
			})
			if err != nil {
				return nil, err
			}
			for _, k := range ks {
				if row, ok := cfg.Checkpoint.lookup(mode+"/"+ds, fmt.Sprintf("k=%d", k), AlgUBG); ok {
					rows = append(rows, row)
					continue
				}
				ratio, err := SandwichRatioMC(inst, k, cfg.Run)
				if err != nil {
					return nil, err
				}
				row := Row{
					Panel: mode + "/" + ds,
					X:     fmt.Sprintf("k=%d", k),
					Alg:   AlgUBG,
					Ratio: ratio,
				}
				if err := cfg.Checkpoint.record(row); err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// SandwichRatioMC computes Fig. 8's statistic: obtain S_ν by greedy on
// ν_R over a fixed pool, then Monte-Carlo estimate c(S_ν) and ν(S_ν)
// with forward cascades.
func SandwichRatioMC(inst *Instance, k int, cfg RunConfig) (float64, error) {
	cfg = cfg.normalized()
	ctx := context.Background()
	poolSize := cfg.MaxSamples / 8
	if poolSize < 2000 {
		poolSize = 2000
	}
	pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: cfg.Seed, Workers: cfg.Workers, Model: cfg.Model})
	if err != nil {
		return 0, err
	}
	if err := pool.GenerateCtx(ctx, poolSize); err != nil {
		return 0, err
	}
	seeds, err := maxr.GreedyNuCtx(ctx, pool, k)
	if err != nil {
		return 0, err
	}
	mc := diffusion.MCOptions{Iterations: 4000, Seed: cfg.Seed + 1, Workers: cfg.Workers, Model: cfg.Model}
	c, err := diffusion.EstimateBenefitCtx(ctx, inst.G, inst.Part, seeds, mc)
	if err != nil {
		return 0, err
	}
	nu, err := diffusion.EstimateFractionalBenefitCtx(ctx, inst.G, inst.Part, seeds, mc)
	if err != nil {
		return 0, err
	}
	if nu <= 0 {
		return 0, nil
	}
	return c / nu, nil
}
