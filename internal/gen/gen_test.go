package gen

import (
	"testing"

	"imc/internal/graph"
)

func TestErdosRenyiShape(t *testing.T) {
	g, err := ErdosRenyi(500, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// Duplicates/self-loops shrink the count slightly; stay within 15%.
	if m := g.NumEdges(); m < 1700 || m > 2000 {
		t.Fatalf("m = %d, want ≈2000", m)
	}
}

func TestBarabasiAlbertPowerLaw(t *testing.T) {
	g, err := BarabasiAlbert(2000, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	st := g.ComputeStats()
	// Hub degrees should far exceed the mean in a preferential-
	// attachment graph.
	if float64(st.MaxOutDegree) < 5*st.AvgDegree {
		t.Fatalf("max degree %d vs avg %.1f: no heavy tail", st.MaxOutDegree, st.AvgDegree)
	}
	// Undirected emission: in-degree equals out-degree for every node.
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if g.OutDegree(u) != g.InDegree(u) {
			t.Fatalf("node %d: out %d != in %d", u, g.OutDegree(u), g.InDegree(u))
		}
	}
}

func TestWattsStrogatzShape(t *testing.T) {
	g, err := WattsStrogatz(300, 10, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	if st.AvgDegree < 8 || st.AvgDegree > 11 {
		t.Fatalf("avg degree %.1f, want ≈10", st.AvgDegree)
	}
	// Odd k is rounded up.
	if _, err := WattsStrogatz(50, 3, 0.1, 3); err != nil {
		t.Fatal(err)
	}
}

func TestSBMShape(t *testing.T) {
	g, err := SBM(400, 8, 4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 400 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Fatal("SBM produced no edges")
	}
}

func TestPowerLawConfigShape(t *testing.T) {
	g, err := PowerLawConfig(1000, 5, 2.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	if st.AvgDegree < 2 || st.AvgDegree > 8 {
		t.Fatalf("avg degree %.1f, want ≈5", st.AvgDegree)
	}
	if float64(st.MaxInDegree) < 4*st.AvgDegree {
		t.Fatalf("max in-degree %d: no heavy tail", st.MaxInDegree)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	build := func() []*graph.Graph {
		var gs []*graph.Graph
		for _, f := range []func() (*graph.Graph, error){
			func() (*graph.Graph, error) { return ErdosRenyi(100, 3, 9) },
			func() (*graph.Graph, error) { return BarabasiAlbert(100, 2, 9) },
			func() (*graph.Graph, error) { return WattsStrogatz(100, 4, 0.2, 9) },
			func() (*graph.Graph, error) { return SBM(100, 4, 3, 1, 9) },
			func() (*graph.Graph, error) { return PowerLawConfig(100, 4, 2.2, 9) },
			func() (*graph.Graph, error) { return RandomDirected(100, 200, 0.5, 9) },
		} {
			g, err := f()
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
		return gs
	}
	a, b := build(), build()
	for i := range a {
		if a[i].NumEdges() != b[i].NumEdges() {
			t.Fatalf("generator %d nondeterministic: %d vs %d edges", i, a[i].NumEdges(), b[i].NumEdges())
		}
		ea, eb := a[i].Edges(), b[i].Edges()
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("generator %d: edge %d differs", i, j)
			}
		}
	}
}

func TestPathGraph(t *testing.T) {
	p, err := PathGraph(5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 4 || !p.HasEdge(0, 1) || p.HasEdge(1, 0) {
		t.Fatal("path graph malformed")
	}
}

func TestRandomDirectedExactEdgeCount(t *testing.T) {
	g, err := RandomDirected(20, 50, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 50 {
		t.Fatalf("m = %d, want exactly 50", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.Weight <= 0 || e.Weight > 0.8 {
			t.Fatalf("weight %g out of (0, 0.8]", e.Weight)
		}
	}
	// Request beyond capacity clamps to n(n-1).
	g2, err := RandomDirected(5, 1000, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 20 {
		t.Fatalf("m = %d, want 20", g2.NumEdges())
	}
}

func TestRegistryAnalogsMatchPaperShapes(t *testing.T) {
	reg := Registry()
	if len(reg) != 6 {
		t.Fatalf("registry has %d datasets", len(reg))
	}
	for _, name := range Names() {
		if _, ok := reg[name]; !ok {
			t.Fatalf("registry missing %q", name)
		}
	}
	// Facebook analog at full scale: node count exact, undirected edge
	// count (directed arcs / 2) within 30% of the paper's 60 K.
	fb, err := BuildDataset("facebook", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fb.NumNodes() != 747 {
		t.Fatalf("facebook n = %d, want 747", fb.NumNodes())
	}
	if und := fb.NumEdges() / 2; und < 42000 || und > 78000 {
		t.Fatalf("facebook undirected edges = %d, want within 30%% of 60K", und)
	}
	// Wikivote analog at full scale.
	wv, err := BuildDataset("wikivote", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wv.NumNodes() != 7100 {
		t.Fatalf("wikivote n = %d", wv.NumNodes())
	}
}

func TestBuildDatasetErrors(t *testing.T) {
	if _, err := BuildDataset("nope", 1, 1); err == nil {
		t.Fatal("want unknown-dataset error")
	}
	if _, err := BuildDataset("facebook", 0, 1); err == nil {
		t.Fatal("want scale error")
	}
	if _, err := BuildDataset("facebook", 1.5, 1); err == nil {
		t.Fatal("want scale error")
	}
}

func TestScaledDatasets(t *testing.T) {
	small, err := BuildDataset("epinions", 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := small.NumNodes(); n < 500 || n > 1000 {
		t.Fatalf("epinions at 1%% scale has %d nodes", n)
	}
}

// TestKarateFixtureShape: the registry's karate entry is the real club
// — fixed 34 nodes and 78 undirected edges (156 arcs) at every scale
// and seed, byte-identical across builds.
func TestKarateFixtureShape(t *testing.T) {
	a, err := BuildDataset("karate", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != 34 || a.NumEdges() != 156 {
		t.Fatalf("karate analog is %d nodes / %d arcs, want 34 / 156", a.NumNodes(), a.NumEdges())
	}
	b, err := BuildDataset("karate", 0.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.WeightDigest() != b.WeightDigest() {
		t.Fatal("karate fixture varies with scale or seed")
	}
}
