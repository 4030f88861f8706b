package baselines

import (
	"context"
	"testing"

	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
)

func TestDegreeDiscountValidation(t *testing.T) {
	g, err := gen.PathGraph(5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DegreeDiscount(g, 0, 0.01); err == nil {
		t.Fatal("want k error")
	}
	if _, err := DegreeDiscount(g, 10, 0.01); err == nil {
		t.Fatal("want k > n error")
	}
}

func TestDegreeDiscountPicksHubFirst(t *testing.T) {
	// Star: node 0 points at everyone.
	b := graph.NewBuilder(6)
	for v := int32(1); v < 6; v++ {
		b.AddEdge(0, v, 0.5)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := DegreeDiscount(g, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if seeds[0] != 0 {
		t.Fatalf("first seed = %d, want hub 0", seeds[0])
	}
}

func TestDegreeDiscountDiscountsNeighbors(t *testing.T) {
	// Two hubs sharing all their neighbors vs one independent hub with
	// slightly fewer neighbors: after picking hub A, hub B (overlapping)
	// must be discounted below the independent hub C.
	b := graph.NewBuilder(12)
	shared := []int32{3, 4, 5, 6, 7}
	for _, v := range shared {
		b.AddEdge(0, v, 0.5) // hub A, degree 5
		b.AddEdge(1, v, 0.5) // hub B, degree 5, fully overlapping
	}
	// A also points at B so B gets discounted when A is chosen.
	b.AddEdge(0, 1, 0.5)
	for _, v := range []int32{8, 9, 10, 11} {
		b.AddEdge(2, v, 0.5) // hub C, degree 4, independent
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := DegreeDiscount(g, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if seeds[0] != 0 {
		t.Fatalf("first seed = %d, want hub A (degree 6)", seeds[0])
	}
	if seeds[1] != 2 {
		t.Fatalf("second seed = %d, want independent hub C over discounted B", seeds[1])
	}
}

func TestDegreeDiscountDistinctSeeds(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := DegreeDiscount(g, 20, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[graph.NodeID]bool)
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	if len(seeds) != 20 {
		t.Fatalf("got %d seeds", len(seeds))
	}
}

func TestDegreeDiscountCompetitiveSpread(t *testing.T) {
	g, err := gen.BarabasiAlbert(500, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	dd, err := DegreeDiscount(g, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	opt := diffusion.MCOptions{Iterations: 3000, Seed: 13}
	ddSpread, err := diffusion.EstimateSpreadCtx(context.Background(), g, dd, opt)
	if err != nil {
		t.Fatal(err)
	}
	tail := []graph.NodeID{490, 491, 492, 493, 494, 495, 496, 497, 498, 499}
	tailSpread, err := diffusion.EstimateSpreadCtx(context.Background(), g, tail, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ddSpread <= tailSpread {
		t.Fatalf("degree-discount spread %g not above arbitrary tail %g", ddSpread, tailSpread)
	}
}

func TestDegreeDiscountDefaultP(t *testing.T) {
	g, err := gen.BarabasiAlbert(50, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range p falls back to the default without error.
	if _, err := DegreeDiscount(g, 5, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := DegreeDiscount(g, 5, 2); err != nil {
		t.Fatal(err)
	}
}
