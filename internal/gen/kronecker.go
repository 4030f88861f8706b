package gen

import (
	"fmt"

	"imc/internal/graph"
	"imc/internal/xrand"
)

// RMAT generates a stochastic Kronecker (R-MAT) graph with 2^levels
// nodes and approximately m directed edges, using the classic
// recursive-quadrant sampling with initiator probabilities
// (a, b, c, d), a+b+c+d = 1. R-MAT is the generative model SNAP
// itself fits to its social graphs, so it complements the analog
// catalog for ablations on degree skew and community mixing.
//
// Standard parameterization: a=0.57, b=0.19, c=0.19, d=0.05 (the
// "Graph500" initiator) yields heavy-tailed degrees with core-periphery
// structure.
func RMAT(levels, m int, a, b, c, d float64, seed uint64) (*graph.Graph, error) {
	if levels < 1 || levels > 30 {
		return nil, fmt.Errorf("gen: RMAT levels %d out of [1, 30]", levels)
	}
	if m < 1 {
		return nil, fmt.Errorf("gen: RMAT edge count %d must be positive", m)
	}
	total := a + b + c + d
	if total <= 0 || a < 0 || b < 0 || c < 0 || d < 0 {
		return nil, fmt.Errorf("gen: RMAT initiator (%g, %g, %g, %g) invalid", a, b, c, d)
	}
	a, b, c = a/total, b/total, c/total // d implied by the remainder
	n := 1 << levels
	rng := xrand.New(seed)
	builder := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		row, col := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			row <<= 1
			col <<= 1
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				col |= 1
			case r < a+b+c:
				row |= 1
			default:
				row |= 1
				col |= 1
			}
		}
		builder.AddEdge(graph.NodeID(row), graph.NodeID(col), 1)
	}
	return builder.Build()
}
