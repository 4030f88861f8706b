// Package expt is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section VI) against the
// synthetic dataset analogs. Each experiment returns structured rows
// and can render itself as an aligned text table; cmd/imcbench and the
// repository benchmarks are thin wrappers around this package.
package expt

import (
	"fmt"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
)

// Formation selects how communities are formed, matching the paper's
// two community-formation regimes.
type Formation int

const (
	// Louvain uses modularity-based detection (the paper's default).
	Louvain Formation = iota + 1
	// RandomFormation assigns nodes to communities uniformly.
	RandomFormation
)

// String implements fmt.Stringer.
func (f Formation) String() string {
	switch f {
	case Louvain:
		return "louvain"
	case RandomFormation:
		return "random"
	default:
		return fmt.Sprintf("Formation(%d)", int(f))
	}
}

// InstanceConfig describes one experimental (graph, communities)
// configuration.
type InstanceConfig struct {
	// Dataset is a registry name from internal/gen ("facebook", ...).
	Dataset string
	// Scale shrinks the dataset analog; (0, 1], 0 meaning 1. Any other
	// value outside (0, 1] is an error.
	Scale float64
	// Formation picks Louvain (default) or random communities.
	Formation Formation
	// SizeCap is the paper's s (default 8): larger communities split.
	SizeCap int
	// Bounded selects h_i = 2 (bounded case) instead of h_i = ⌈|C_i|/2⌉.
	Bounded bool
	// Seed drives generation, community formation, and splitting.
	Seed uint64
}

func (c InstanceConfig) normalized() InstanceConfig {
	// Only the unset scale defaults; gen.BuildDataset rejects the rest
	// of what lies outside (0, 1].
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Formation == 0 {
		c.Formation = Louvain
	}
	if c.SizeCap <= 0 {
		c.SizeCap = 8
	}
	return c
}

// Instance is a ready-to-solve experimental configuration: the weighted
// graph plus the thresholded, benefit-assigned partition.
type Instance struct {
	// Name identifies the configuration in reports.
	Name string
	// G carries weighted-cascade edge weights.
	G *graph.Graph
	// Part is size-capped with thresholds and benefits assigned.
	Part *community.Partition
	// Config echoes the configuration that produced the instance.
	Config InstanceConfig
}

// BuildInstance generates the dataset analog, applies weighted-cascade
// weights, forms communities, splits to the size cap, and assigns the
// paper's thresholds (h=2 bounded / 50% regular) and population
// benefits.
func BuildInstance(cfg InstanceConfig) (*Instance, error) {
	cfg = cfg.normalized()
	g, err := gen.BuildDataset(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("expt: build dataset: %w", err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, cfg.Seed)

	var part *community.Partition
	switch cfg.Formation {
	case RandomFormation:
		r := g.NumNodes() / cfg.SizeCap
		if r < 1 {
			r = 1
		}
		part, err = community.Random(g.NumNodes(), r, cfg.Seed+1)
	default:
		part, err = community.Louvain(g, cfg.Seed+1)
	}
	if err != nil {
		return nil, fmt.Errorf("expt: form communities: %w", err)
	}
	part, err = part.SplitBySize(cfg.SizeCap, cfg.Seed+2)
	if err != nil {
		return nil, fmt.Errorf("expt: split communities: %w", err)
	}
	if cfg.Bounded {
		part.SetBoundedThresholds(2)
	} else {
		part.SetFractionThresholds(0.5)
	}
	part.SetPopulationBenefits()

	mode := "regular"
	if cfg.Bounded {
		mode = "bounded"
	}
	return &Instance{
		Name:   fmt.Sprintf("%s/%s/s=%d/%s", cfg.Dataset, cfg.Formation, cfg.SizeCap, mode),
		G:      g,
		Part:   part,
		Config: cfg,
	}, nil
}
