package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"imc/internal/xrand"
)

func TestKCoreCliqueWithTail(t *testing.T) {
	// A 4-clique (undirected) with a pendant path: clique nodes are
	// 3-core, path nodes 1-core.
	b := NewBuilder(6)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddUndirected(i, j, 1)
		}
	}
	b.AddUndirected(3, 4, 1)
	b.AddUndirected(4, 5, 1)
	g := mustBuild(t, b)
	core := KCore(g)
	for v := 0; v < 4; v++ {
		// Each undirected pair is 2 arcs, so degrees double: the clique
		// core is 6 in arc terms (3 undirected neighbors × 2).
		if core[v] != 6 {
			t.Fatalf("clique node %d core = %d, want 6", v, core[v])
		}
	}
	if core[5] != 2 {
		t.Fatalf("pendant node core = %d, want 2", core[5])
	}
	if slices.Max(core) != 6 {
		t.Fatalf("degeneracy = %d", slices.Max(core))
	}
}

func TestKCoreEmptyAndIsolated(t *testing.T) {
	g := mustBuild(t, NewBuilder(3))
	core := KCore(g)
	for v, c := range core {
		if c != 0 {
			t.Fatalf("isolated node %d core = %d", v, c)
		}
	}
	if slices.Max(core) != 0 {
		t.Fatal("degeneracy of empty graph")
	}
}

// Property: the k-core invariant — within the subgraph induced by
// {v : core[v] ≥ k}, every node has degree ≥ k (checked for k =
// degeneracy, the strictest level).
func TestQuickKCoreInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 8 + rng.Intn(20)
		b := NewBuilder(n)
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			b.AddUndirected(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 1)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		core := KCore(g)
		k := slices.Max(core)
		if k == 0 {
			return true
		}
		inCore := make([]bool, n)
		for v, c := range core {
			inCore[v] = c >= k
		}
		for v := 0; v < n; v++ {
			if !inCore[v] {
				continue
			}
			d := int32(0)
			tos, _ := g.OutNeighbors(NodeID(v))
			for _, u := range tos {
				if inCore[u] {
					d++
				}
			}
			froms, _, _ := g.InNeighbors(NodeID(v))
			for _, u := range froms {
				if inCore[u] {
					d++
				}
			}
			if d < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: core numbers never exceed degree and are monotone under
// the peeling (no core number exceeds the degeneracy).
func TestQuickKCoreBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(15)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 1)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		core := KCore(g)
		degeneracy := slices.Max(core)
		for v := 0; v < n; v++ {
			d := int32(g.OutDegree(NodeID(v)) + g.InDegree(NodeID(v)))
			if core[v] > d || core[v] > degeneracy || core[v] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
