// Package core implements the paper's Section V: the IMC Algorithmic
// Framework (IMCAF, Alg. 5) that wraps any α-approximate MAXR solver
// into an α(1−ε)-approximate IMC algorithm with probability ≥ 1−δ, and
// the Estimate verification procedure (Alg. 6) built on the
// Dagum–Karp–Luby–Ross stopping rule.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/ric"
	"imc/internal/xrand"
)

// estimateBatch is how many consecutive draws one worker evaluates per
// Estimate round. The caller folds a round's outcomes in draw order and
// stops at the first draw that reaches the threshold, so a call draws
// at most workers·estimateBatch−1 samples past the stopping one; 128
// keeps that waste small next to the thousands of draws a call makes,
// while a round is still long enough to amortize its goroutine
// hand-off. The ctx poll runs once per round.
const estimateBatch = 128

// EstimateResult is the outcome of the Estimate procedure. One is
// produced per stop-and-stare round; the layout is pinned waste-free
// (24 bytes, flag byte in the tail word's slack).
//
//imc:compact
type EstimateResult struct {
	// Benefit is the estimated c(S) (or ν(S) in fractional mode).
	Benefit float64
	// Samples is the number of RIC samples drawn.
	Samples int
	// Converged reports whether the stopping rule triggered before
	// TMax; a false value corresponds to Alg. 6 returning −1.
	Converged bool
}

// EstimateOptions configures the Estimate procedure.
type EstimateOptions struct {
	// Eps is ε′, the relative error target.
	Eps float64
	// Delta is δ′, the failure probability.
	Delta float64
	// TMax caps the number of samples (Alg. 6's T_max).
	TMax int
	// Model selects the propagation model for fresh samples.
	Model diffusion.Model
	// Seed drives the fresh sample stream.
	Seed uint64
	// Fractional switches the per-sample statistic from the 0/1
	// indicator X_g(S) to min(|I_g(S)|/h_g, 1) — estimating ν(S)
	// instead of c(S). Used by the ν-guided UBG stop rule.
	Fractional bool
	// Workers bounds the goroutines drawing samples; 0 means
	// GOMAXPROCS. The result does not depend on it: draw t always uses
	// PRNG stream t and outcomes are folded in t order.
	Workers int
}

// EstimateCtx implements the paper's Alg. 6: draw fresh RIC samples
// until the influenced mass reaches the stopping-rule threshold,
// returning an estimate of c(S) with relative error ≤ ε′ with
// probability ≥ 1−δ′.
//
// Draws are evaluated in parallel rounds: worker w of a round
// evaluates the fixed range of estimateBatch draws starting at
// base+w·estimateBatch+1 on its own generator, draw t reseeded from
// PRNG stream t, and the caller then folds the round's outcomes in t
// order, stopping at the first t whose mass reaches Λ′. The float
// additions therefore happen in exactly the serial order, so Benefit,
// Samples and Converged are bit-identical for every Workers value,
// fractional mode included. ctx is polled before each round (never per
// sample), so a completed run is byte-identical under any ctx.
//
//imc:longrun
func EstimateCtx(ctx context.Context, g *graph.Graph, part *community.Partition, seeds []graph.NodeID, opts EstimateOptions) (EstimateResult, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return EstimateResult{}, fmt.Errorf("core: estimate eps %g out of (0, 1)", opts.Eps)
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return EstimateResult{}, fmt.Errorf("core: estimate delta %g out of (0, 1)", opts.Delta)
	}
	if opts.TMax < 1 {
		return EstimateResult{}, fmt.Errorf("core: estimate TMax %d must be ≥ 1", opts.TMax)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A worker past the last batch TMax holds would never draw.
	if batches := (opts.TMax + estimateBatch - 1) / estimateBatch; workers > batches {
		workers = batches
	}
	est := &estimator{
		root:       xrand.New(opts.Seed),
		inSeed:     make([]bool, g.NumNodes()),
		fractional: opts.Fractional,
		gens:       make([]*ric.Generator, workers),
		out:        make([]float64, workers*estimateBatch),
	}
	for w := range est.gens {
		gen, err := ric.NewGenerator(g, part, opts.Model)
		if err != nil {
			return EstimateResult{}, err
		}
		est.gens[w] = gen
	}
	for _, s := range seeds {
		if s >= 0 && int(s) < len(est.inSeed) {
			est.inSeed[s] = true
		}
	}
	// Λ' = 1 + 4(e−2)·ln(2/δ')·(1+ε')/ε'².
	lambda := 1 + 4*(math.E-2)*math.Log(2/opts.Delta)*(1+opts.Eps)/(opts.Eps*opts.Eps)
	mass := 0.0
	roundSize := workers * estimateBatch
	for base := 0; base < opts.TMax; base += roundSize {
		if err := ctx.Err(); err != nil {
			return EstimateResult{}, err
		}
		n := min(roundSize, opts.TMax-base)
		est.round(base, n)
		for i, x := range est.out[:n] {
			mass += x
			if mass >= lambda {
				t := base + i + 1
				return EstimateResult{
					Benefit:   part.TotalBenefit() * lambda / float64(t),
					Samples:   t,
					Converged: true,
				}, nil
			}
		}
	}
	// Alg. 6 returns −1 here; we surface the best-effort mean with
	// Converged=false so callers can fall through to pool doubling.
	return EstimateResult{
		Benefit:   part.TotalBenefit() * mass / float64(opts.TMax),
		Samples:   opts.TMax,
		Converged: false,
	}, nil
}

// estimator is one Estimate call's shared state: the read-only seed
// membership and root stream, one generator per worker, and the
// outcome buffer a round fills.
type estimator struct {
	root   *xrand.RNG
	inSeed []bool
	gens   []*ric.Generator
	// out[i] is the statistic of draw base+i+1 in the current round:
	// 0 or 1 in indicator mode, the fractional influence otherwise.
	// Worker w writes only out[w·estimateBatch : (w+1)·estimateBatch].
	out        []float64
	fractional bool
}

// round evaluates draws base+1 … base+n, worker w taking the w-th
// estimateBatch-long range. The caller's goroutine takes range 0, so a
// one-worker call never spawns; every spawned worker has joined when
// round returns.
func (e *estimator) round(base, n int) {
	var wg sync.WaitGroup
	for w := 1; w*estimateBatch < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.evalBatch(w, base, n)
		}(w)
	}
	e.evalBatch(0, base, n)
	wg.Wait()
}

// evalBatch evaluates worker w's range of the current round on its own
// generator, reseeding draw t from PRNG stream t.
//
//imc:hotpath
func (e *estimator) evalBatch(w, base, n int) {
	lo := w * estimateBatch
	hi := min(lo+estimateBatch, n)
	gen := e.gens[w]
	inSeed := e.inSeed
	out := e.out[lo:hi]
	var rng xrand.RNG
	for i := range out {
		e.root.SplitInto(uint64(base+lo+i+1), &rng)
		switch {
		case e.fractional:
			out[i] = gen.FractionalInfluence(&rng, inSeed)
		case gen.Influenced(&rng, inSeed):
			out[i] = 1
		default:
			out[i] = 0
		}
	}
}
