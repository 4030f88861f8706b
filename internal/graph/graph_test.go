package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"imc/internal/xrand"
)

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	b.AddEdge(2, 0, 1)
	return mustBuild(t, b)
}

func TestBasicShape(t *testing.T) {
	g := triangle(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %s", g)
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 {
		t.Fatalf("degrees of node 0: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if w := g.Weight(1, 2); w != 0.25 {
		t.Fatalf("Weight(1,2) = %g", w)
	}
	if g.Weight(2, 1) != 0 {
		t.Fatal("nonexistent edge has nonzero weight")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge mismatch")
	}
}

func TestForwardReverseConsistency(t *testing.T) {
	g := triangle(t)
	// Every forward edge must appear in the reverse CSR with the same
	// weight and edge ID.
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		tos, ws := g.OutNeighbors(u)
		eids := g.OutEdgeIDs(u)
		for i, v := range tos {
			froms, iws, ieids := g.InNeighbors(v)
			found := false
			for j, f := range froms {
				if f == u && ieids[j] == eids[i] {
					if iws[j] != ws[i] {
						t.Fatalf("weight mismatch on edge %d", eids[i])
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from reverse CSR", u, v)
			}
		}
	}
}

func TestDuplicateLastWins(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0.2)
	b.AddEdge(0, 1, 0.9)
	g := mustBuild(t, b)
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edge not merged: m=%d", g.NumEdges())
	}
	if w := g.Weight(0, 1); w != 0.9 {
		t.Fatalf("want last weight 0.9, got %g", w)
	}
}

func TestSelfLoopsAndInvalidDropped(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1, 0.5)
	b.AddEdge(-1, 0, 0.5)
	b.AddEdge(0, 5, 0.5)
	g := mustBuild(t, b)
	if g.NumEdges() != 0 {
		t.Fatalf("invalid edges kept: m=%d", g.NumEdges())
	}
}

func TestWeightsClamped(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 1.5)
	g := mustBuild(t, b)
	if w := g.Weight(0, 1); w != 1 {
		t.Fatalf("weight not clamped: %g", w)
	}
}

// TestNaNWeightIsZero: AddEdge's clamp covers NaN (both of its range
// tests are false for NaN), so a built graph always round-trips
// through the binary format and has a threshold for every edge.
func TestNaNWeightIsZero(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, math.NaN())
	g := mustBuild(t, b)
	if w := g.Weight(0, 1); w != 0 || math.Signbit(w) {
		t.Fatalf("NaN weight stored as %g, want 0", w)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err != nil {
		t.Fatalf("binary round trip rejected a built graph: %v", err)
	}
	if c := ApplyWeights(g, ConstantWeight, math.NaN(), 0); c.Weight(0, 1) != 0 {
		t.Fatalf("ConstantWeight(NaN) stored %g, want 0", c.Weight(0, 1))
	}
}

// TestInThresholds: every construction site fills the threshold
// table, parallel to InNeighbors and equal to BernoulliThreshold of
// each in-edge weight.
func TestInThresholds(t *testing.T) {
	base := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, base); err != nil {
		t.Fatal(err)
	}
	fromBinary, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*Graph{
		"build":       base,
		"binary":      fromBinary,
		"cascade":     ApplyWeights(base, WeightedCascade, 0, 0),
		"constant":    ApplyWeights(base, ConstantWeight, 0.3, 0),
		"constant>1":  ApplyWeights(base, ConstantWeight, 7, 0),
		"trivalency":  ApplyWeights(base, Trivalency, 0, 5),
		"unknown-tag": ApplyWeights(base, WeightScheme(99), 0, 0),
	}
	for name, g := range graphs {
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			froms, ws, _ := g.InNeighbors(v)
			thrs := g.InThresholds(v)
			if len(thrs) != len(froms) {
				t.Fatalf("%s: node %d has %d thresholds for %d in-edges", name, v, len(thrs), len(froms))
			}
			for i, w := range ws {
				if want := xrand.BernoulliThreshold(w); thrs[i] != want {
					t.Errorf("%s: edge %d->%d w=%g threshold %d, want %d", name, froms[i], v, w, thrs[i], want)
				}
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := NewBuilder(0).Build(); err == nil {
		t.Fatal("want error for zero nodes")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := triangle(t)
	g2, err := FromEdges(3, g.Edges())
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("Edges round trip lost edges")
	}
	for _, e := range g.Edges() {
		if g2.Weight(e.From, e.To) != e.Weight {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestWeightedCascade(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 3, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 0, 1)
	g := ApplyWeights(mustBuild(t, b), WeightedCascade, 0, 0)
	for _, u := range []NodeID{0, 1, 2} {
		if w := g.Weight(u, 3); w != 1.0/3 {
			t.Fatalf("w(%d,3) = %g, want 1/3", u, w)
		}
	}
	if w := g.Weight(3, 0); w != 1 {
		t.Fatalf("w(3,0) = %g, want 1 (in-degree 1)", w)
	}
}

func TestApplyWeightsDoesNotMutate(t *testing.T) {
	g := triangle(t)
	_ = ApplyWeights(g, ConstantWeight, 0.123, 0)
	if g.Weight(0, 1) != 0.5 {
		t.Fatal("ApplyWeights mutated the input graph")
	}
}

func TestConstantAndTrivalency(t *testing.T) {
	g := triangle(t)
	c := ApplyWeights(g, ConstantWeight, 0.07, 0)
	for _, e := range c.Edges() {
		if e.Weight != 0.07 {
			t.Fatalf("constant weight %g", e.Weight)
		}
	}
	tri := ApplyWeights(g, Trivalency, 0, 99)
	for _, e := range tri.Edges() {
		if e.Weight != 0.1 && e.Weight != 0.01 && e.Weight != 0.001 {
			t.Fatalf("trivalency weight %g", e.Weight)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := triangle(t)
	s := g.ComputeStats()
	if s.Nodes != 3 || s.Edges != 3 || s.MaxOutDegree != 1 || s.MaxInDegree != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgDegree != 1 {
		t.Fatalf("avg degree = %g", s.AvgDegree)
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
0 1 0.5
1 2
% another comment
2 0 0.75
`
	g, err := ReadEdgeList(strings.NewReader(in), true)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %s", g)
	}
	if g.Weight(1, 2) != 1 {
		t.Fatal("default weight should be 1")
	}
	if g.Weight(0, 1) != 0.5 {
		t.Fatal("explicit weight lost")
	}
}

func TestReadEdgeListUndirected(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected load missing a direction")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"abc 1\n", "1 xyz\n", "1\n", "-1 2\n", "0 1 notaweight\n", "", "0 1 NaN\n"}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c), true); err == nil {
			t.Fatalf("input %q: want error", c)
		}
	}
	_, err := ReadEdgeList(strings.NewReader("0 1 0.5\n# c\n1 2 nan\n"), true)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("NaN weight error %v does not name line 3", err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if g2.Weight(e.From, e.To) != e.Weight {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
}

// Property: for random edge sets, out-degree sums and in-degree sums
// both equal the edge count, and every reverse edge matches a forward
// edge.
func TestQuickDegreeConservation(t *testing.T) {
	f := func(pairs []uint16) bool {
		n := 40
		b := NewBuilder(n)
		for _, p := range pairs {
			u := NodeID(int(p>>8) % n)
			v := NodeID(int(p&0xff) % n)
			b.AddEdge(u, v, 0.5)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		outSum, inSum := 0, 0
		for u := NodeID(0); int(u) < n; u++ {
			outSum += g.OutDegree(u)
			inSum += g.InDegree(u)
		}
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
