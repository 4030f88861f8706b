package ris

import (
	"context"
	"math"
	"testing"

	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
)

func TestSolveValidation(t *testing.T) {
	g, err := gen.PathGraph(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveCtx(context.Background(), g, Options{K: 0}); err == nil {
		t.Fatal("want K error")
	}
	if _, err := SolveCtx(context.Background(), g, Options{K: 10}); err == nil {
		t.Fatal("want K > n error")
	}
	if _, err := SolveCtx(context.Background(), g, Options{K: 1, Eps: 2}); err == nil {
		t.Fatal("want eps error")
	}
}

func TestSolvePicksPathHead(t *testing.T) {
	// On a weight-1 path, node 0 reaches everything: spread({0}) = n.
	g, err := gen.PathGraph(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveCtx(context.Background(), g, Options{K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) != 1 || sol.Seeds[0] != 0 {
		t.Fatalf("seeds = %v, want [0]", sol.Seeds)
	}
	if math.Abs(sol.SpreadEstimate-8) > 0.5 {
		t.Fatalf("spread estimate %g, want ≈8", sol.SpreadEstimate)
	}
}

func TestSolveSpreadMatchesMonteCarlo(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	sol, err := SolveCtx(context.Background(), g, Options{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) != 5 {
		t.Fatalf("got %d seeds", len(sol.Seeds))
	}
	mc, err := diffusion.EstimateSpreadCtx(context.Background(), g, sol.Seeds, diffusion.MCOptions{Iterations: 20000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.SpreadEstimate-mc) > 0.2*mc+1 {
		t.Fatalf("RIS estimate %g vs MC %g", sol.SpreadEstimate, mc)
	}
}

func TestSolveBeatsRandomSeeds(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	sol, err := SolveCtx(context.Background(), g, Options{K: 5, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	opt := diffusion.MCOptions{Iterations: 5000, Seed: 23}
	risSpread, err := diffusion.EstimateSpreadCtx(context.Background(), g, sol.Seeds, opt)
	if err != nil {
		t.Fatal(err)
	}
	randSpread, err := diffusion.EstimateSpreadCtx(context.Background(), g, []graph.NodeID{290, 291, 292, 293, 294}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if risSpread <= randSpread {
		t.Fatalf("RIS spread %g not above arbitrary-seed spread %g", risSpread, randSpread)
	}
}

func TestSolveLTModel(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	sol, err := SolveCtx(context.Background(), g, Options{K: 3, Seed: 31, Model: diffusion.LT})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) != 3 {
		t.Fatalf("LT: got %d seeds", len(sol.Seeds))
	}
	if sol.SpreadEstimate < 3 {
		t.Fatalf("LT spread estimate %g below k", sol.SpreadEstimate)
	}
}

func TestSolveDeterministic(t *testing.T) {
	g, err := gen.BarabasiAlbert(100, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	a, err := SolveCtx(context.Background(), g, Options{K: 4, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveCtx(context.Background(), g, Options{K: 4, Seed: 43, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seeds differ across worker counts: %v vs %v", a.Seeds, b.Seeds)
		}
	}
}
