package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"imc/internal/community"
	"imc/internal/graph"
	"imc/internal/ric"
	"imc/internal/xrand"
)

// serialEstimate is the reference one-draw-at-a-time loop: draw t from
// PRNG stream t, add its statistic, stop at the first t whose mass
// reaches Λ′. EstimateCtx must reproduce it bit for bit at every
// worker count.
func serialEstimate(t *testing.T, g *graph.Graph, part *community.Partition, seeds []graph.NodeID, opts EstimateOptions) EstimateResult {
	t.Helper()
	gen, err := ric.NewGenerator(g, part, opts.Model)
	if err != nil {
		t.Fatal(err)
	}
	inSeed := make([]bool, g.NumNodes())
	for _, s := range seeds {
		inSeed[s] = true
	}
	root := xrand.New(opts.Seed)
	lambda := 1 + 4*(math.E-2)*math.Log(2/opts.Delta)*(1+opts.Eps)/(opts.Eps*opts.Eps)
	mass := 0.0
	var rng xrand.RNG
	for i := 1; i <= opts.TMax; i++ {
		root.SplitInto(uint64(i), &rng)
		if opts.Fractional {
			mass += gen.FractionalInfluence(&rng, inSeed)
		} else if gen.Influenced(&rng, inSeed) {
			mass++
		}
		if mass >= lambda {
			return EstimateResult{Benefit: part.TotalBenefit() * lambda / float64(i), Samples: i, Converged: true}
		}
	}
	return EstimateResult{Benefit: part.TotalBenefit() * mass / float64(opts.TMax), Samples: opts.TMax}
}

// TestEstimateWorkerIndependence: EstimateResult is bit-identical to
// the serial loop for every worker count, in indicator and fractional
// mode, whether the call converges, exhausts TMax over several rounds,
// has a TMax shorter than one batch, or stops at the earliest draw the
// rule allows (Λ′ > 1, so with every node seeded that is draw ⌈Λ′⌉).
func TestEstimateWorkerIndependence(t *testing.T) {
	g, part := testInstance(t, 61)
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	cases := []struct {
		name      string
		seeds     []graph.NodeID
		opts      EstimateOptions
		converged bool
	}{
		{"converged", []graph.NodeID{0, 1, 2, 3, 4, 5}, EstimateOptions{Eps: 0.1, Delta: 0.1, TMax: 1 << 18, Seed: 3}, true},
		{"exhausts-tmax", []graph.NodeID{7}, EstimateOptions{Eps: 0.05, Delta: 0.05, TMax: 3000, Seed: 5}, false},
		{"tmax-below-batch", []graph.NodeID{0, 1, 2}, EstimateOptions{Eps: 0.1, Delta: 0.1, TMax: estimateBatch / 2, Seed: 7}, false},
		{"first-possible-draw", all, EstimateOptions{Eps: 0.9, Delta: 0.9, TMax: 1 << 10, Seed: 11}, true},
	}
	for _, c := range cases {
		for _, frac := range []bool{false, true} {
			opts := c.opts
			opts.Fractional = frac
			want := serialEstimate(t, g, part, c.seeds, opts)
			if want.Converged != c.converged {
				t.Fatalf("%s (fractional=%v): reference converged=%v, case expects %v", c.name, frac, want.Converged, c.converged)
			}
			if c.name == "first-possible-draw" {
				lambda := 1 + 4*(math.E-2)*math.Log(2/opts.Delta)*(1+opts.Eps)/(opts.Eps*opts.Eps)
				if want.Samples != int(math.Ceil(lambda)) {
					t.Fatalf("%s: reference stopped at draw %d, want ⌈Λ′⌉ = %d", c.name, want.Samples, int(math.Ceil(lambda)))
				}
			}
			for _, workers := range []int{1, 2, 3, 8} {
				opts.Workers = workers
				got, err := EstimateCtx(context.Background(), g, part, c.seeds, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s (fractional=%v) workers=%d: %+v, serial loop gives %+v", c.name, frac, workers, got, want)
				}
			}
		}
	}
}

// pollCountCtx reports cancellation from its limit-th Err poll on,
// cancelling an Estimate call part-way through a deterministic number
// of rounds.
type pollCountCtx struct {
	context.Context
	polls atomic.Int32
	limit int32
}

func (c *pollCountCtx) Err() error {
	if c.polls.Add(1) >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestEstimateCancelMidway: a ctx cancelled after some rounds have run
// returns ctx.Err() and leaves no worker goroutine behind.
func TestEstimateCancelMidway(t *testing.T) {
	g, part := testInstance(t, 61)
	opts := EstimateOptions{Eps: 0.01, Delta: 0.01, TMax: 1 << 20, Seed: 3, Workers: 4}
	runtime.GC()
	before := runtime.NumGoroutine()
	for _, limit := range []int32{1, 2, 5} {
		ctx := &pollCountCtx{Context: context.Background(), limit: limit}
		_, err := EstimateCtx(ctx, g, part, []graph.NodeID{7}, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: err = %v, want context.Canceled", limit, err)
		}
		if got := ctx.polls.Load(); got != limit {
			t.Fatalf("limit %d: Estimate polled ctx %d times, want it to stop at the cancelling poll", limit, got)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d after cancelled Estimate calls", before, after)
	}
}
