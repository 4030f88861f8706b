package maxr

import (
	"context"
	"math"

	"imc/internal/graph"
	"imc/internal/ric"
)

// UBG is the Upper-Bound Greedy / sandwich solver (paper Alg. 2). It
// greedily optimizes the submodular upper bound ν_R and, separately,
// ĉ_R itself, and keeps whichever seed set scores higher under ĉ_R.
// Theorem 2 gives the data-dependent guarantee
// (ĉ_R(S_ν)/ν_R(S_ν))·(1−1/e).
type UBG struct{}

var _ Solver = UBG{}

// Name implements Solver.
func (UBG) Name() string { return "UBG" }

// Guarantee implements Solver. The data-dependent sandwich factor is
// only known post hoc (see Result-side SandwichRatio); for sample-size
// planning we use the nominal 1−1/e.
func (UBG) Guarantee(_ *ric.Pool, _ int) float64 { return 1 - 1/math.E }

// SolveCtx implements Solver: both greedy halves poll ctx at batch
// boundaries.
//
//imc:longrun
func (UBG) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (Result, error) {
	if err := validate(pool, k); err != nil {
		return Result{}, err
	}
	sNu, err := GreedyNuCtx(ctx, pool, k)
	if err != nil {
		return Result{}, err
	}
	sC, err := GreedyCHatCtx(ctx, pool, k)
	if err != nil {
		return Result{}, err
	}
	rNu := finalize(pool, sNu)
	rC := finalize(pool, sC)
	if rC.Coverage > rNu.Coverage {
		return rC, nil
	}
	return rNu, nil
}

// SandwichRatio reports ĉ_R(S)/ν_R(S) for a seed set — the empirical
// factor in UBG's guarantee, plotted in the paper's Fig. 8 (there
// against the Monte-Carlo estimates of c and ν).
func SandwichRatio(pool *ric.Pool, seeds []graph.NodeID) float64 {
	nu := pool.NuHat(seeds)
	if nu <= 0 {
		return 0
	}
	return pool.CHat(seeds) / nu
}
