// Package gen produces synthetic graphs used as stand-ins for the SNAP
// datasets of the paper's evaluation (the environment has no network
// access, see DESIGN.md §4).
//
// Each generator is deterministic in its seed and returns a directed
// graph (undirected families emit both arc directions, matching how the
// paper treats undirected datasets). Weights default to 1 and are meant
// to be reassigned with graph.ApplyWeights — the paper uses the
// weighted-cascade scheme.
package gen

import (
	"math"

	"imc/internal/graph"
	"imc/internal/xrand"
)

// ErdosRenyi generates G(n, m~): a directed graph with approximately
// avgOutDeg random out-edges per node.
func ErdosRenyi(n int, avgOutDeg float64, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, graph.ErrNoNodes
	}
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	target := int(avgOutDeg * float64(n))
	for i := 0; i < target; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		b.AddEdge(u, v, 1)
	}
	return b.Build()
}

// BarabasiAlbert generates an undirected preferential-attachment graph
// with n nodes, each new node attaching to m existing nodes, then emits
// both arc directions. Degree distribution is power-law, matching the
// heavy-tailed SNAP social graphs.
func BarabasiAlbert(n, m int, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, graph.ErrNoNodes
	}
	if m < 1 {
		m = 1
	}
	if m >= n {
		m = n - 1
	}
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	// targets holds one entry per edge endpoint: sampling uniformly from
	// it realizes preferential attachment.
	targets := make([]int32, 0, 2*m*n)
	// Seed clique over the first m+1 nodes.
	for i := 0; i <= m && i < n; i++ {
		for j := 0; j < i; j++ {
			b.AddUndirected(int32(i), int32(j), 1)
			targets = append(targets, int32(i), int32(j))
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := make(map[int32]struct{}, m)
		picks := make([]int32, 0, m)
		for len(picks) < m {
			var t int32
			if len(targets) == 0 {
				t = int32(rng.Intn(v))
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if int(t) == v {
				continue
			}
			if _, dup := chosen[t]; dup {
				continue
			}
			chosen[t] = struct{}{}
			picks = append(picks, t)
		}
		for _, t := range picks {
			b.AddUndirected(int32(v), t, 1)
			targets = append(targets, int32(v), t)
		}
	}
	return b.Build()
}

// WattsStrogatz generates an undirected small-world ring lattice with n
// nodes, k nearest neighbors per side... per node (k must be even), and
// rewiring probability beta, then emits both arc directions. High
// clustering mimics the dense Facebook ego-network.
func WattsStrogatz(n, k int, beta float64, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, graph.ErrNoNodes
	}
	if k < 2 {
		k = 2
	}
	if k%2 == 1 {
		k++
	}
	if k >= n {
		k = n - 1
		if k%2 == 1 {
			k--
		}
	}
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Bernoulli(beta) {
				// Rewire to a uniform random endpoint.
				v = rng.Intn(n)
				if v == u {
					v = (u + 1) % n
				}
			}
			b.AddUndirected(int32(u), int32(v), 1)
		}
	}
	return b.Build()
}

// SBM generates a planted-partition (stochastic block model) graph:
// blocks communities of near-equal size; each node gets approximately
// inDeg intra-block and outDeg inter-block undirected edges. This mimics
// collaboration networks such as DBLP with strong community structure.
func SBM(n, blocks int, inDeg, outDeg float64, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, graph.ErrNoNodes
	}
	if blocks < 1 {
		blocks = 1
	}
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	blockOf := make([]int, n)
	members := make([][]int32, blocks)
	for i := 0; i < n; i++ {
		blk := i % blocks
		blockOf[i] = blk
		members[blk] = append(members[blk], int32(i))
	}
	intra := int(inDeg * float64(n) / 2)
	inter := int(outDeg * float64(n) / 2)
	for i := 0; i < intra; i++ {
		u := rng.Intn(n)
		peers := members[blockOf[u]]
		v := peers[rng.Intn(len(peers))]
		b.AddUndirected(int32(u), v, 1)
	}
	for i := 0; i < inter; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if blockOf[u] == blockOf[v] {
			continue
		}
		b.AddUndirected(int32(u), int32(v), 1)
	}
	return b.Build()
}

// PowerLawConfig generates a directed graph via the configuration model
// with power-law out- and in-degree sequences of exponent gamma
// (typically 2.1–2.5), average degree avgDeg. Mimics trust networks such
// as Epinions.
func PowerLawConfig(n int, avgDeg, gamma float64, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, graph.ErrNoNodes
	}
	if gamma <= 1 {
		gamma = 2.2
	}
	rng := xrand.New(seed)
	degOut := powerLawDegrees(n, avgDeg, gamma, rng)
	degIn := powerLawDegrees(n, avgDeg, gamma, rng.Split(1))
	stubsOut := expandStubs(degOut)
	stubsIn := expandStubs(degIn)
	rng.ShuffleInts(stubsOut)
	rng.ShuffleInts(stubsIn)
	b := graph.NewBuilder(n)
	limit := len(stubsOut)
	if len(stubsIn) < limit {
		limit = len(stubsIn)
	}
	for i := 0; i < limit; i++ {
		b.AddEdge(int32(stubsOut[i]), int32(stubsIn[i]), 1)
	}
	return b.Build()
}

// powerLawDegrees draws n degrees from a discrete power law with the
// requested exponent, rescaled to hit the average degree.
func powerLawDegrees(n int, avgDeg, gamma float64, rng *xrand.RNG) []int {
	raw := make([]float64, n)
	total := 0.0
	for i := range raw {
		// Inverse-CDF sampling of a Pareto tail starting at 1.
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		raw[i] = math.Pow(u, -1.0/(gamma-1))
		total += raw[i]
	}
	scale := avgDeg * float64(n) / total
	deg := make([]int, n)
	for i, r := range raw {
		d := int(r*scale + 0.5)
		if d < 1 {
			d = 1
		}
		if d > n-1 {
			d = n - 1
		}
		deg[i] = d
	}
	return deg
}

func expandStubs(deg []int) []int {
	total := 0
	for _, d := range deg {
		total += d
	}
	stubs := make([]int, 0, total)
	for i, d := range deg {
		for j := 0; j < d; j++ {
			stubs = append(stubs, i)
		}
	}
	return stubs
}

// PathGraph builds a directed path 0->1->...->n-1 with constant edge
// weight w; handy for hand-checkable unit tests.
func PathGraph(n int, w float64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, graph.ErrNoNodes
	}
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1), w)
	}
	return b.Build()
}

// RandomDirected generates a uniformly random directed graph with
// exactly min(m, n*(n-1)) distinct edges and uniform random weights in
// (0, maxW]. Used heavily by property-based tests.
func RandomDirected(n, m int, maxW float64, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, graph.ErrNoNodes
	}
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	maxEdges := n * (n - 1)
	if m > maxEdges {
		m = maxEdges
	}
	seen := make(map[int64]struct{}, m)
	for len(seen) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		key := int64(u)*int64(n) + int64(v)
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		w := rng.Float64() * maxW
		if w <= 0 {
			w = maxW / 2
		}
		b.AddEdge(int32(u), int32(v), w)
	}
	return b.Build()
}
