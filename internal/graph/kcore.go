package graph

// KCore computes the k-core decomposition of the graph's undirected
// projection: core[v] is the largest k such that v belongs to a
// subgraph in which every node has (undirected) degree ≥ k. Computed
// by the classic Matula–Beck peeling in O(n + m). Core numbers
// summarize how deep in the dense nucleus each node sits — a cheap
// structural signal for analyzing which nodes the solvers favor.
func KCore(g *Graph) []int32 {
	n := g.NumNodes()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		d := int32(g.OutDegree(NodeID(v)) + g.InDegree(NodeID(v)))
		deg[v] = d
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Bucket sort nodes by degree.
	binStart := make([]int32, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for i := int32(1); i <= maxDeg+1; i++ {
		binStart[i] += binStart[i-1]
	}
	pos := make([]int32, n)   // node -> index in order
	order := make([]int32, n) // peeling order
	cursor := make([]int32, maxDeg+1)
	copy(cursor, binStart[:maxDeg+1])
	for v := 0; v < n; v++ {
		p := cursor[deg[v]]
		cursor[deg[v]]++
		order[p] = int32(v)
		pos[v] = p
	}

	core := make([]int32, n)
	copy(core, deg)
	// Peel in degree order, lowering neighbors as we go.
	for i := 0; i < n; i++ {
		v := order[i]
		lowerNeighbor := func(u NodeID) {
			if core[u] > core[v] {
				// Swap u toward the front of its bucket, then shrink it.
				du := core[u]
				pu := pos[u]
				pw := binStart[du]
				w := order[pw]
				if u != w {
					order[pu], order[pw] = w, int32(u)
					pos[u], pos[w] = pw, pu
				}
				binStart[du]++
				core[u]--
			}
		}
		tos, _ := g.OutNeighbors(v)
		for _, u := range tos {
			lowerNeighbor(u)
		}
		froms, _, _ := g.InNeighbors(v)
		for _, u := range froms {
			lowerNeighbor(u)
		}
	}
	return core
}
