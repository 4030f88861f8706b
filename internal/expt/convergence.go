package expt

import (
	"context"
	"fmt"
	"math"

	"imc/internal/diffusion"
	"imc/internal/maxr"
	"imc/internal/ric"
)

// Convergence measures RIC-estimator quality as the pool doubles: for
// a fixed seed set (greedy on a warm-up pool), it reports ĉ_R(S) at
// each pool size against a high-effort forward Monte-Carlo reference.
// Not a paper figure — it is the natural appendix experiment
// certifying Lemma 1's estimator in practice, and the bench suite uses
// it to watch for estimator regressions.
//
// Returned rows: Panel = dataset, X = "R=<pool size>", Benefit = ĉ_R,
// Ratio = relative error |ĉ_R − c_MC| / max(c_MC, 1).
func Convergence(cfg Config) ([]Row, error) {
	cfg = cfg.normalized()
	datasets := cfg.Datasets
	if datasets == nil {
		datasets = []string{"facebook"}
	}
	k := 10
	if len(cfg.Ks) > 0 {
		k = cfg.Ks[0]
	}
	ctx := context.Background()
	var rows []Row
	for _, ds := range datasets {
		inst, err := BuildInstance(InstanceConfig{
			Dataset: ds,
			Scale:   cfg.scaleOf(ds),
			Bounded: true,
			Seed:    cfg.Run.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Fix a seed set from a warm-up pool so every measurement
		// evaluates the same S.
		warm, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: cfg.Run.Seed, Workers: cfg.Run.Workers})
		if err != nil {
			return nil, err
		}
		if err := warm.GenerateCtx(ctx, 2000); err != nil {
			return nil, err
		}
		res, err := (maxr.UBG{}).SolveCtx(ctx, warm, k)
		if err != nil {
			return nil, err
		}
		seeds := res.Seeds

		reference, err := diffusion.EstimateBenefitCtx(ctx, inst.G, inst.Part, seeds, diffusion.MCOptions{
			Iterations: 20000,
			Seed:       cfg.Run.Seed + 7,
			Workers:    cfg.Run.Workers,
		})
		if err != nil {
			return nil, err
		}

		pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: cfg.Run.Seed + 13, Workers: cfg.Run.Workers})
		if err != nil {
			return nil, err
		}
		size := 250
		limit := cfg.Run.MaxSamples
		if limit > 1<<15 {
			limit = 1 << 15
		}
		if err := pool.GenerateCtx(ctx, size); err != nil {
			return nil, err
		}
		for {
			chat := pool.CHat(seeds)
			rows = append(rows, Row{
				Panel:   ds,
				X:       fmt.Sprintf("R=%d", pool.NumSamples()),
				Alg:     AlgUBG,
				Benefit: chat,
				Ratio:   math.Abs(chat-reference) / math.Max(reference, 1),
			})
			if pool.NumSamples()*2 > limit {
				break
			}
			if err := pool.DoubleCtx(ctx); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}
