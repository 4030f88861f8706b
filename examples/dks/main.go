// DkS via IMC: the paper's Theorem 1 reduction, run forwards — solve a
// Densest k-Subgraph instance by converting it to an IMC instance,
// running a MAXR solver, and projecting the seeds back. This is the
// construction behind IMC's inapproximability bound, demonstrated as a
// working algorithm.
package main

import (
	"context"
	"fmt"
	"log"

	"imc/internal/maxr"
	"imc/internal/reduction"
	"imc/internal/ric"
	"imc/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 12-node graph with a planted dense 5-clique (nodes 0-4) plus
	// sparse noise edges: the densest 5-subgraph is the clique.
	var edges []reduction.DkSEdge
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			edges = append(edges, reduction.DkSEdge{A: a, B: b})
		}
	}
	rng := xrand.New(7)
	for len(edges) < 18 {
		a, b := rng.Intn(12), rng.Intn(12)
		if a == b || (a < 5 && b < 5) {
			continue
		}
		dup := false
		for _, e := range edges {
			if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
				dup = true
			}
		}
		if !dup {
			edges = append(edges, reduction.DkSEdge{A: a, B: b})
		}
	}
	inst, err := reduction.FromDkS(12, edges)
	if err != nil {
		return err
	}
	fmt.Printf("DkS instance: 12 nodes, %d edges (planted 5-clique on 0..4)\n", len(edges))
	fmt.Printf("reduced IMC instance: %d nodes, %d two-member communities\n",
		inst.G.NumNodes(), inst.NumCommunities())

	// Solve the reduced instance with UBG over a RIC pool (weight-1
	// edges make sampling deterministic; the pool just replays the
	// reachability structure).
	pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: 7})
	if err != nil {
		return err
	}
	if err := pool.GenerateCtx(context.Background(), 4000); err != nil {
		return err
	}
	res, err := maxr.UBG{}.SolveCtx(context.Background(), pool, 5)
	if err != nil {
		return err
	}
	nodes, err := inst.ProjectSeeds(res.Seeds)
	if err != nil {
		return err
	}
	fmt.Printf("\nprojected DkS solution: %v\n", nodes)
	fmt.Printf("induced edges e(S) = %d (optimum: 10, the clique)\n", inst.InducedEdges(nodes))
	fmt.Printf("IMC benefit c(S)   = %.0f (Theorem 1: e(S) = c(S))\n", inst.Benefit(res.Seeds))
	return nil
}
