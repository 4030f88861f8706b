package maxr

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"

	"imc/internal/graph"
	"imc/internal/ric"
)

// BT is the bounded-threshold solver (paper Alg. 4 and its §IV-C
// extension to thresholds ≤ d). For every candidate root u it restricts
// the pool to the samples u touches, credits u's member coverage, and
// solves the residual instance — greedily when one more member suffices
// (d = 2), recursively otherwise. The root whose seed set influences the
// most of its own touched samples wins. Guarantee: (1−1/e)/k^(d−1).
type BT struct {
	// MaxRoots caps how many candidate roots are examined at every
	// recursion level, taken in descending touch-count order. 0 means
	// all roots — faithful to the paper but O(|V|) subproblems, which
	// the paper itself reports timing out on its largest dataset.
	MaxRoots int
	// Depth is the threshold bound d ≥ 2; 0 defaults to 2 (Alg. 4).
	Depth int
	// Workers parallelizes the top-level root scan (the roots are
	// independent subproblems). 0 means GOMAXPROCS. The result is
	// deterministic regardless of worker count: ties break toward the
	// earlier root in touch-count order.
	Workers int
}

var _ Solver = BT{}

// Name implements Solver.
func (b BT) Name() string { return "BT" }

// Guarantee implements Solver: (1−1/e)/k^(d−1).
func (b BT) Guarantee(_ *ric.Pool, k int) float64 {
	d := b.depth()
	return (1 - 1/math.E) / math.Pow(float64(k), float64(d-1))
}

func (b BT) depth() int {
	if b.Depth < 2 {
		return 2
	}
	return b.Depth
}

// SolveCtx implements Solver: every worker polls ctx once per root
// subproblem (each root is an independent, typically sizable instance),
// and the recursion checks ctx at each level's root scan. A completed
// run is byte-identical at any worker count — workers always fill the
// same per-root result slots, so the poll never perturbs tie-breaking.
//
//imc:longrun
func (b BT) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (Result, error) {
	if err := validate(pool, k); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	covers := pool.SampleCovers()
	roots := b.capRoots(candidates(pool))
	results := make([]rootResult, len(roots))
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(roots) {
		workers = len(roots)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(roots); i += workers {
				if ctx.Err() != nil {
					return
				}
				u := roots[i]
				inst := b.rootInstance(pool, covers, u)
				team := b.solveInstance(ctx, inst, k-1, b.depth()-1)
				results[i] = rootResult{
					seeds: append([]graph.NodeID{u}, team...),
					score: inst.influencedBy(team),
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	bestScore := -1
	var bestSeeds []graph.NodeID
	for _, r := range results {
		if r.score > bestScore {
			bestScore = r.score
			bestSeeds = r.seeds
		}
	}
	return finalize(pool, padSeeds(pool, bestSeeds, k)), nil
}

// rootResult is one root subproblem's slot in the shared result array
// SolveCtx's workers fill in parallel. The bare payload is 32 bytes —
// two slots per cache line — so adjacent workers' stores would bounce
// the line between cores; the pad gives each slot its own line (the
// falseshare contract verifies the 64-byte size).
//
//imc:padded
type rootResult struct {
	seeds []graph.NodeID
	score int
	_     [32]byte
}

func (b BT) capRoots(roots []graph.NodeID) []graph.NodeID {
	if b.MaxRoots > 0 && len(roots) > b.MaxRoots {
		return roots[:b.MaxRoots]
	}
	return roots
}

// instEntry records that a node covers members of one instance sample.
type instEntry struct {
	idx  int32
	bits ric.Mask
}

// btInstance is a restricted MAXR instance: a subset of pool samples
// with pre-credited base coverage (from the root chain above it).
type btInstance struct {
	thresholds []int32
	base       []ric.Mask
	nodes      []graph.NodeID // candidate nodes, sorted by entry count desc
	entries    map[graph.NodeID][]instEntry
}

// rootInstance restricts the pool to the samples u touches, crediting
// u's coverage as the base.
func (b BT) rootInstance(pool *ric.Pool, covers [][]ric.NodeCover, u graph.NodeID) *btInstance {
	es := pool.Entries(u)
	inst := &btInstance{
		thresholds: make([]int32, len(es)),
		base:       make([]ric.Mask, len(es)),
		entries:    make(map[graph.NodeID][]instEntry),
	}
	for i, e := range es {
		inst.thresholds[i] = pool.Sample(int(e.Sample)).Threshold
		inst.base[i] = e.Bits
		for _, nc := range covers[e.Sample] {
			if nc.Node == u {
				continue
			}
			inst.entries[nc.Node] = append(inst.entries[nc.Node], instEntry{idx: int32(i), bits: nc.Bits})
		}
	}
	inst.sortNodes()
	return inst
}

// subInstance restricts inst to the samples that node u covers, folding
// u's coverage into the base.
func (inst *btInstance) subInstance(u graph.NodeID) *btInstance {
	es := inst.entries[u]
	sub := &btInstance{
		thresholds: make([]int32, len(es)),
		base:       make([]ric.Mask, len(es)),
		entries:    make(map[graph.NodeID][]instEntry),
	}
	keep := make(map[int32]int32, len(es))
	for i, e := range es {
		sub.thresholds[i] = inst.thresholds[e.idx]
		merged := e.bits.Clone()
		inst.base[e.idx].OrInto(merged)
		sub.base[i] = merged
		keep[e.idx] = int32(i)
	}
	for v, ves := range inst.entries {
		if v == u {
			continue
		}
		for _, e := range ves {
			if si, ok := keep[e.idx]; ok {
				sub.entries[v] = append(sub.entries[v], instEntry{idx: si, bits: e.bits})
			}
		}
	}
	sub.sortNodes()
	return sub
}

func (inst *btInstance) sortNodes() {
	inst.nodes = make([]graph.NodeID, 0, len(inst.entries))
	for v := range inst.entries {
		inst.nodes = append(inst.nodes, v)
	}
	sort.Slice(inst.nodes, func(i, j int) bool {
		a, b := inst.nodes[i], inst.nodes[j]
		la, lb := len(inst.entries[a]), len(inst.entries[b])
		if la != lb {
			return la > lb
		}
		return a < b
	})
}

// influencedBy counts instance samples influenced by base ∪ seeds.
func (inst *btInstance) influencedBy(seeds []graph.NodeID) int {
	st := inst.newState()
	for _, v := range seeds {
		st.add(inst, v)
	}
	return st.influenced(inst)
}

// solveInstance picks up to k nodes maximizing influenced instance
// samples. depth ≤ 1 runs the greedy base case (exact (1−1/e) when each
// residual threshold is ≤ 1, i.e. original thresholds ≤ 2); deeper
// levels recurse over roots as §IV-C describes. On cancellation it
// returns early with a partial (possibly nil) team; the caller's
// post-wait ctx check discards the whole result, so the short-circuit
// never leaks into a completed run.
func (b BT) solveInstance(ctx context.Context, inst *btInstance, k, depth int) []graph.NodeID {
	if k <= 0 || len(inst.nodes) == 0 {
		return nil
	}
	if depth <= 1 {
		return inst.greedy(k)
	}
	roots := b.capRoots(inst.nodes)
	bestScore := -1
	var best []graph.NodeID
	for _, u := range roots {
		if ctx.Err() != nil {
			return best
		}
		sub := inst.subInstance(u)
		team := b.solveInstance(ctx, sub, k-1, depth-1)
		score := sub.influencedBy(team)
		if score > bestScore {
			bestScore = score
			best = append([]graph.NodeID{u}, team...)
		}
	}
	return best
}

// instState tracks running coverage over an instance during greedy.
type instState struct {
	cover []ric.Mask
	count []int32
}

func (inst *btInstance) newState() *instState {
	st := &instState{
		cover: make([]ric.Mask, len(inst.base)),
		count: make([]int32, len(inst.base)),
	}
	for i, m := range inst.base {
		st.cover[i] = m
		st.count[i] = int32(m.OnesCount())
	}
	return st
}

func (st *instState) add(inst *btInstance, v graph.NodeID) {
	for _, e := range inst.entries[v] {
		merged := e.bits.Clone()
		st.cover[e.idx].OrInto(merged)
		st.cover[e.idx] = merged
		st.count[e.idx] = int32(merged.OnesCount())
	}
}

func (st *instState) gain(inst *btInstance, v graph.NodeID) int {
	g := 0
	for _, e := range inst.entries[v] {
		h := inst.thresholds[e.idx]
		cur := st.count[e.idx]
		if cur >= h {
			continue
		}
		if cur+int32(e.bits.NewBitsOver(st.cover[e.idx])) >= h {
			g++
		}
	}
	return g
}

func (st *instState) influenced(inst *btInstance) int {
	n := 0
	for i, c := range st.count {
		if c >= inst.thresholds[i] {
			n++
		}
	}
	return n
}

// greedy is the base-case selection: plain greedy on influenced count.
// With residual thresholds ≤ 1 the objective is max coverage, so this
// is the (1−1/e) greedy of Theorem 4.
func (inst *btInstance) greedy(k int) []graph.NodeID {
	st := inst.newState()
	used := make(map[graph.NodeID]struct{}, k)
	seeds := make([]graph.NodeID, 0, k)
	for len(seeds) < k {
		best := graph.NodeID(-1)
		bestGain := 0
		for _, v := range inst.nodes {
			if _, ok := used[v]; ok {
				continue
			}
			// nodes are sorted by entry count and gain ≤ entry count,
			// so once the bound drops below the incumbent the scan can
			// stop (exact prune, mirroring GreedyCHatCtx).
			if len(inst.entries[v]) < bestGain {
				break
			}
			if g := st.gain(inst, v); g > bestGain {
				bestGain = g
				best = v
			}
		}
		if best < 0 {
			break
		}
		st.add(inst, best)
		used[best] = struct{}{}
		seeds = append(seeds, best)
	}
	return seeds
}
