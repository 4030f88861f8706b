package gen

import (
	"fmt"
	"sort"

	"imc/internal/graph"
)

// Dataset describes one synthetic analog of a SNAP dataset from the
// paper's Table I (see DESIGN.md §4 for the substitution rationale).
type Dataset struct {
	// Name is the registry key, e.g. "facebook".
	Name string
	// PaperNodes / PaperEdges are the statistics reported in Table I.
	PaperNodes int
	PaperEdges int
	// Directed records whether the original dataset is directed.
	Directed bool
	// Family is a short human-readable generator description.
	Family string
	// Build generates the analog at the given scale in (0, 1]: scale 1
	// targets the paper's size (subject to the generator's granularity),
	// smaller scales shrink the node count proportionally.
	Build func(scale float64, seed uint64) (*graph.Graph, error)
}

// Registry returns the five dataset analogs keyed by name. The builders
// are deterministic in (scale, seed).
func Registry() map[string]Dataset {
	ds := []Dataset{
		{
			Name:       "facebook",
			PaperNodes: 747, PaperEdges: 60050, Directed: false,
			Family: "dense preferential attachment (Barabási–Albert)",
			Build: func(scale float64, seed uint64) (*graph.Graph, error) {
				n := scaled(747, scale)
				// The ego network is extremely dense (~80 undirected
				// neighbors per node) AND heavily degree-skewed — hubs
				// matter for who is cheap to influence under the
				// weighted-cascade weights. Dense BA reproduces both;
				// a Watts–Strogatz analog matches density but its
				// degree homogeneity erases the diffusion signal.
				m := scaled(80, scale)
				if m < 3 {
					m = 3
				}
				return BarabasiAlbert(n, m, seed)
			},
		},
		{
			Name:       "wikivote",
			PaperNodes: 7100, PaperEdges: 103600, Directed: true,
			Family: "preferential attachment (Barabási–Albert)",
			Build: func(scale float64, seed uint64) (*graph.Graph, error) {
				n := scaled(7100, scale)
				return BarabasiAlbert(n, 7, seed)
			},
		},
		{
			Name:       "epinions",
			PaperNodes: 76000, PaperEdges: 508800, Directed: true,
			Family: "power-law configuration model",
			Build: func(scale float64, seed uint64) (*graph.Graph, error) {
				n := scaled(76000, scale)
				return PowerLawConfig(n, 6.7, 2.2, seed)
			},
		},
		{
			Name:       "dblp",
			PaperNodes: 317000, PaperEdges: 1050000, Directed: false,
			Family: "stochastic block model (strong clustering)",
			Build: func(scale float64, seed uint64) (*graph.Graph, error) {
				n := scaled(317000, scale)
				blocks := n / 12
				if blocks < 1 {
					blocks = 1
				}
				return SBM(n, blocks, 2.6, 0.7, seed)
			},
		},
		{
			Name:       "pokec",
			PaperNodes: 1600000, PaperEdges: 30600000, Directed: true,
			Family: "preferential attachment (Barabási–Albert)",
			Build: func(scale float64, seed uint64) (*graph.Graph, error) {
				n := scaled(1600000, scale)
				return BarabasiAlbert(n, 10, seed)
			},
		},
		{
			Name:       "karate",
			PaperNodes: 34, PaperEdges: 78, Directed: false,
			Family: "fixed graph (Zachary's karate club)",
			Build: func(scale float64, seed uint64) (*graph.Graph, error) {
				// Not an analog: the real 34-node club, byte-identical at
				// every scale and seed. Small enough for exact checks, so
				// it anchors CI smoke jobs (the distributed shard runtime
				// byte-compares multi-process and single-process solves on
				// it) and mirrors the repo-root testdata/karate.txt fixture.
				return Karate()
			},
		},
	}
	out := make(map[string]Dataset, len(ds))
	for _, d := range ds {
		out[d.Name] = d
	}
	return out
}

// karateEdges is Zachary's karate club (34 nodes, 78 undirected edges),
// identical to testdata/karate.txt.
var karateEdges = [78][2]int32{
	{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8},
	{0, 10}, {0, 11}, {0, 12}, {0, 13}, {0, 17}, {0, 19}, {0, 21},
	{0, 31}, {1, 2}, {1, 3}, {1, 7}, {1, 13}, {1, 17}, {1, 19}, {1, 21},
	{1, 30}, {2, 3}, {2, 7}, {2, 8}, {2, 9}, {2, 13}, {2, 27}, {2, 28},
	{2, 32}, {3, 7}, {3, 12}, {3, 13}, {4, 6}, {4, 10}, {5, 6}, {5, 10},
	{5, 16}, {6, 16}, {8, 30}, {8, 32}, {8, 33}, {9, 33}, {13, 33},
	{14, 32}, {14, 33}, {15, 32}, {15, 33}, {18, 32}, {18, 33}, {19, 33},
	{20, 32}, {20, 33}, {22, 32}, {22, 33}, {23, 25}, {23, 27}, {23, 29},
	{23, 32}, {23, 33}, {24, 25}, {24, 27}, {24, 31}, {25, 31}, {26, 29},
	{26, 33}, {27, 33}, {28, 31}, {28, 33}, {29, 32}, {29, 33}, {30, 32},
	{30, 33}, {31, 32}, {31, 33}, {32, 33},
}

// Karate builds Zachary's karate club as an arc-doubled graph with unit
// weights (reassign with ApplyWeights), matching
// ReadEdgeList(testdata/karate.txt, directed=false) exactly.
func Karate() (*graph.Graph, error) {
	b := graph.NewBuilder(34)
	for _, e := range karateEdges {
		b.AddUndirected(e[0], e[1], 1)
	}
	return b.Build()
}

// Names returns the registry keys in Table I order, plus the karate
// fixture.
func Names() []string {
	return []string{"facebook", "wikivote", "epinions", "dblp", "pokec", "karate"}
}

// BuildDataset generates the named analog or returns an error listing
// the valid names.
func BuildDataset(name string, scale float64, seed uint64) (*graph.Graph, error) {
	d, ok := Registry()[name]
	if !ok {
		valid := Names()
		sort.Strings(valid)
		return nil, fmt.Errorf("gen: unknown dataset %q (valid: %v)", name, valid)
	}
	if !(scale > 0 && scale <= 1) { // NaN fails both comparisons
		return nil, fmt.Errorf("gen: scale %g out of (0, 1]", scale)
	}
	return d.Build(scale, seed)
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 16 {
		v = 16
	}
	return v
}
