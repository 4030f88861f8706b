package ris

import (
	"context"
	"math"
	"testing"

	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
)

func TestIMMValidation(t *testing.T) {
	g, err := gen.PathGraph(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveIMMCtx(context.Background(), g, Options{K: 0}); err == nil {
		t.Fatal("want K error")
	}
	if _, err := SolveIMMCtx(context.Background(), g, Options{K: 10}); err == nil {
		t.Fatal("want K > n error")
	}
	if _, err := SolveIMMCtx(context.Background(), g, Options{K: 1, Delta: 7}); err == nil {
		t.Fatal("want delta error")
	}
}

func TestIMMPicksPathHead(t *testing.T) {
	g, err := gen.PathGraph(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveIMMCtx(context.Background(), g, Options{K: 1, Seed: 5, MaxSamples: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seeds) != 1 || sol.Seeds[0] != 0 {
		t.Fatalf("seeds = %v, want [0]", sol.Seeds)
	}
	if math.Abs(sol.SpreadEstimate-8) > 0.8 {
		t.Fatalf("spread estimate %g, want ≈8", sol.SpreadEstimate)
	}
}

func TestIMMMatchesSSAQuality(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	imm, err := SolveIMMCtx(context.Background(), g, Options{K: 5, Seed: 23, MaxSamples: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	ssa, err := SolveCtx(context.Background(), g, Options{K: 5, Seed: 23, MaxSamples: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	mc := diffusion.MCOptions{Iterations: 8000, Seed: 29}
	immSpread, err := diffusion.EstimateSpreadCtx(context.Background(), g, imm.Seeds, mc)
	if err != nil {
		t.Fatal(err)
	}
	ssaSpread, err := diffusion.EstimateSpreadCtx(context.Background(), g, ssa.Seeds, mc)
	if err != nil {
		t.Fatal(err)
	}
	// The two frameworks should land within 15% of each other.
	if math.Abs(immSpread-ssaSpread) > 0.15*math.Max(immSpread, ssaSpread) {
		t.Fatalf("IMM spread %g vs SSA spread %g diverge", immSpread, ssaSpread)
	}
}

func TestIMMDeterministic(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	a, err := SolveIMMCtx(context.Background(), g, Options{K: 4, Seed: 37, MaxSamples: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveIMMCtx(context.Background(), g, Options{K: 4, Seed: 37, MaxSamples: 1 << 15, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seeds differ across worker counts: %v vs %v", a.Seeds, b.Seeds)
		}
	}
}
