package imc_test

import (
	"context"
	"fmt"

	"imc"
)

// ExampleSolve runs the full IMCAF pipeline on a small deterministic
// instance: two chained communities where seeding node 0 activates
// everything.
func ExampleSolve() {
	b := imc.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g, _ := b.Build()

	part, _ := imc.NewPartition(4, [][]imc.NodeID{{0, 1}, {2, 3}})
	part.SetBoundedThresholds(2)
	part.SetUniformBenefits(1)

	sol, _ := imc.Solve(g, part, imc.NewUBG(), imc.Options{
		K: 1, Eps: 0.3, Delta: 0.3, Seed: 1, MaxSamples: 1 << 12,
	})
	fmt.Println("seeds:", sol.Seeds)
	fmt.Printf("benefit: %.0f of 2\n", sol.CHat)
	// Output:
	// seeds: [0]
	// benefit: 2 of 2
}

// ExampleNewPool estimates c(S) directly from a RIC sample pool.
func ExampleNewPool() {
	b := imc.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	g, _ := b.Build()

	part, _ := imc.NewPartition(3, [][]imc.NodeID{{1, 2}})
	part.SetBoundedThresholds(2)
	part.SetUniformBenefits(1)

	pool, _ := imc.NewPool(g, part, imc.PoolOptions{Seed: 1})
	_ = pool.GenerateCtx(context.Background(), 1000)
	// Node 0 reaches both members via weight-1 edges: ĉ({0}) = 1.
	fmt.Printf("c({0}) = %.0f\n", pool.CHat([]imc.NodeID{0}))
	fmt.Printf("c({1}) = %.0f\n", pool.CHat([]imc.NodeID{1}))
	// Output:
	// c({0}) = 1
	// c({1}) = 0
}

// ExampleKS shows the knapsack baseline on communities with unequal
// costs and benefits.
func ExampleKS() {
	b := imc.NewBuilder(5)
	g, _ := b.Build() // no edges: pure knapsack

	part, _ := imc.NewPartition(5, [][]imc.NodeID{{0, 1}, {2, 3, 4}})
	part.SetFractionThresholds(1) // must seed whole community
	part.SetUniformBenefits(1)
	_ = part.SetBenefit(1, 5)

	// Budget 3 fits only the 3-node community worth 5.
	seeds, _ := imc.KS(g, part, 3)
	fmt.Println(seeds)
	// Output:
	// [2 3 4]
}

// ExamplePartition demonstrates threshold and benefit policies.
func ExamplePartition() {
	part, _ := imc.NewPartition(6, [][]imc.NodeID{{0, 1, 2, 3}, {4, 5}})
	part.SetFractionThresholds(0.5)
	part.SetPopulationBenefits()
	for i := 0; i < part.NumCommunities(); i++ {
		c := part.Community(i)
		fmt.Printf("community %d: size=%d h=%d b=%.0f\n", i, len(c.Members), c.Threshold, c.Benefit)
	}
	// Output:
	// community 0: size=4 h=2 b=4
	// community 1: size=2 h=1 b=2
}
