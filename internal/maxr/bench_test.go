package maxr

import (
	"context"
	"strconv"
	"testing"

	"imc/internal/community"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/ric"
)

func benchPool(b *testing.B, samples int) *ric.Pool {
	b.Helper()
	g, err := gen.BarabasiAlbert(1500, 5, 7)
	if err != nil {
		b.Fatal(err)
	}
	g = graph.ApplyWeights(g, graph.WeightedCascade, 0, 0)
	part, err := community.Louvain(g, 7)
	if err != nil {
		b.Fatal(err)
	}
	part, err = part.SplitBySize(8, 7)
	if err != nil {
		b.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), samples); err != nil {
		b.Fatal(err)
	}
	return pool
}

// BenchmarkUBG measures the full sandwich solver on a 3K-sample pool.
func BenchmarkUBG(b *testing.B) {
	pool := benchPool(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (UBG{}).SolveCtx(context.Background(), pool, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMAF measures the frequency-based solver (the paper's fast
// option).
func BenchmarkMAF(b *testing.B) {
	pool := benchPool(b, 3000)
	solver := MAF{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveCtx(context.Background(), pool, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBT measures the bounded-threshold solver with a root cap.
func BenchmarkBT(b *testing.B) {
	pool := benchPool(b, 1000)
	solver := BT{MaxRoots: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveCtx(context.Background(), pool, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyNuByK shows CELF's scaling with the seed budget.
func BenchmarkGreedyNuByK(b *testing.B) {
	pool := benchPool(b, 3000)
	for _, k := range []int{5, 20, 50} {
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := GreedyNuCtx(context.Background(), pool, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyCHatByK shows plain greedy's scaling with k — the
// contrast with CELF explains Fig. 7's UBG-vs-MAF runtime gap.
func BenchmarkGreedyCHatByK(b *testing.B) {
	pool := benchPool(b, 3000)
	for _, k := range []int{5, 20, 50} {
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := GreedyCHatCtx(context.Background(), pool, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}
