// Command imcrun solves one IMC instance with one algorithm and prints
// the selected seed set and its estimated benefit.
//
// Usage:
//
//	imcrun -dataset facebook -scale 0.5 -alg UBG -k 10
//	imcrun -graph edges.txt -directed -alg MAF -k 20 -bounded
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"imc"
	"imc/internal/expt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "imcrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset   = flag.String("dataset", "facebook", "dataset analog name (ignored when -graph is set)")
		scale     = flag.Float64("scale", 0.1, "dataset scale in (0, 1]")
		graphFile = flag.String("graph", "", "edge-list file to load instead of a synthetic dataset")
		directed  = flag.Bool("directed", true, "treat -graph edge list as directed")
		alg       = flag.String("alg", "UBG", "algorithm: UBG|MAF|MB|HBC|KS|IM|DD|UBG+LS")
		allAlgs   = flag.Bool("all", false, "run every paper algorithm and print a comparison table")
		k         = flag.Int("k", 10, "seed budget")
		eps       = flag.Float64("eps", 0.2, "approximation slack ε")
		delta     = flag.Float64("delta", 0.2, "failure probability δ")
		seed      = flag.Uint64("seed", 42, "random seed")
		sizeCap   = flag.Int("s", 8, "community size cap")
		formation = flag.String("formation", "louvain", "community formation: louvain|random")
		bounded   = flag.Bool("bounded", false, "bounded thresholds h=2 (default: 50% of population)")
		maxSamp   = flag.Int("maxsamples", 1<<17, "RIC sample cap")
		btRoots   = flag.Int("btroots", 64, "BT root cap inside MB (0 = all)")
		commFile  = flag.String("communities", "", "partition JSON to load (skips formation/threshold flags)")
		saveComm  = flag.String("save-communities", "", "write the instance's partition JSON here")
	)
	flag.Parse()

	var inst *expt.Instance
	if *graphFile != "" {
		f, err := os.Open(*graphFile)
		if err != nil {
			return err
		}
		var g *imc.Graph
		if strings.HasSuffix(*graphFile, ".imcg") {
			g, err = imc.ReadBinaryGraph(f)
		} else {
			g, err = imc.ReadEdgeList(f, *directed)
		}
		f.Close()
		if err != nil {
			return err
		}
		g = imc.ApplyWeights(g, imc.WeightedCascade, 0, *seed)
		var part *imc.Partition
		if *commFile != "" {
			part, err = loadPartition(*commFile)
			if err != nil {
				return err
			}
		} else {
			part, err = formCommunities(g, *formation, *sizeCap, *seed)
			if err != nil {
				return err
			}
			part, err = part.SplitBySize(*sizeCap, *seed)
			if err != nil {
				return err
			}
			if *bounded {
				part.SetBoundedThresholds(2)
			} else {
				part.SetFractionThresholds(0.5)
			}
			part.SetPopulationBenefits()
		}
		inst = &expt.Instance{Name: *graphFile, G: g, Part: part}
	} else {
		form := expt.Louvain
		if strings.EqualFold(*formation, "random") {
			form = expt.RandomFormation
		}
		var err error
		inst, err = expt.BuildInstance(expt.InstanceConfig{
			Dataset:   *dataset,
			Scale:     *scale,
			Formation: form,
			SizeCap:   *sizeCap,
			Bounded:   *bounded,
			Seed:      *seed,
		})
		if err != nil {
			return err
		}
	}

	fmt.Printf("instance %s: n=%d m=%d r=%d b=%.0f\n",
		inst.Name, inst.G.NumNodes(), inst.G.NumEdges(),
		inst.Part.NumCommunities(), inst.Part.TotalBenefit())
	fmt.Printf("seed       %d\n", *seed)

	if *saveComm != "" {
		f, err := os.Create(*saveComm)
		if err != nil {
			return err
		}
		err = imc.WritePartitionJSON(f, inst.Part)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("partition saved to %s\n", *saveComm)
	}

	runCfg := expt.RunConfig{
		Eps:        *eps,
		Delta:      *delta,
		Seed:       *seed,
		Runs:       1,
		MaxSamples: *maxSamp,
		BTMaxRoots: *btRoots,
	}
	ctx := context.Background()
	// Timings go to stderr: stdout carries only seed-determined values,
	// so two runs with the same -seed are byte-identical.
	if *allAlgs {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "algorithm\tbenefit")
		for _, name := range expt.AllAlgorithms {
			res, err := expt.RunAlgCtx(ctx, inst, name, *k, runCfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%.2f\n", res.Alg, res.Benefit)
			fmt.Fprintf(os.Stderr, "%-8s select %.3fs\n", res.Alg, res.Runtime.Seconds())
		}
		return tw.Flush()
	}
	start := time.Now()
	res, err := expt.RunAlgCtx(ctx, inst, strings.ToUpper(*alg), *k, runCfg)
	if err != nil {
		return err
	}
	fmt.Printf("algorithm  %s\n", res.Alg)
	fmt.Printf("seeds      %v\n", res.Seeds)
	fmt.Printf("benefit    %.2f (of total %.0f)\n", res.Benefit, inst.Part.TotalBenefit())
	fmt.Fprintf(os.Stderr, "select     %s\n", res.Runtime)
	fmt.Fprintf(os.Stderr, "wall       %s\n", time.Since(start))
	return nil
}

func loadPartition(path string) (*imc.Partition, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return imc.ReadPartitionJSON(f)
}

func formCommunities(g *imc.Graph, formation string, sizeCap int, seed uint64) (*imc.Partition, error) {
	if strings.EqualFold(formation, "random") {
		r := g.NumNodes() / sizeCap
		if r < 1 {
			r = 1
		}
		return imc.RandomCommunities(g.NumNodes(), r, seed)
	}
	return imc.Louvain(g, seed)
}
