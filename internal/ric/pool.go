package ric

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// ctxPollBatch is how many samples a worker draws between cooperative
// ctx.Err() polls. Polling per batch — never per node — keeps the
// cancellation check off the sampling hot path; a poll costs one atomic
// load, so a batch of 1024 makes the overhead unmeasurable while still
// bounding cancellation latency to ~1k samples per worker.
const ctxPollBatch = 1024

// Pool is a growing collection R of RIC samples together with the
// inverted cover index (node → samples it touches, with member masks)
// that every MAXR solver consumes.
//
// Generation is deterministic in the pool's seed: sample i is always
// drawn from PRNG stream i, no matter how many workers participate, so
// doubling the pool extends — never reshuffles — the sample sequence.
//
// A pool with a non-zero Offset is a shard: its local sample j is drawn
// from global stream Offset+j, so the union of disjoint shards over
// [0, Θ) is byte-identical to one pool generating streams 0..Θ-1 —
// the property the distributed runtime (internal/shard) rides on.
type Pool struct {
	g       *graph.Graph         //imc:guardedby immutable
	part    *community.Partition //imc:guardedby immutable
	model   diffusion.Model      //imc:guardedby immutable
	root    *xrand.RNG           //imc:guardedby immutable
	seed    uint64               //imc:guardedby immutable
	offset  int                  //imc:guardedby immutable
	workers int                  //imc:guardedby immutable

	// The sample state is single-writer by contract — GenerateCtx and
	// ReadInto own it exclusively, then readers share it frozen (the
	// Donor and splice tests under go test -race police that boundary)
	// — so it carries no guard annotation.
	samples  []Sample
	index    [][]CoverEntry
	commFreq []int // samples per source community
}

// PoolOptions configures pool construction.
type PoolOptions struct {
	// Model selects IC (default) or LT reverse sampling.
	Model diffusion.Model
	// Seed drives all sample randomness.
	Seed uint64
	// Offset is the pool's global stream offset: local sample j is drawn
	// from PRNG stream Offset+j. Zero (the default) builds an ordinary
	// prefix pool; a positive offset builds a shard whose sample
	// sequence is the [Offset, …) slice of the full pool's, letting
	// disjoint ranges be generated by different processes and later
	// spliced back together byte-identically (ExportRange/ImportRange).
	Offset int
	// Workers bounds generation parallelism; 0 means GOMAXPROCS.
	Workers int
}

// NewPool creates an empty pool over (g, part).
func NewPool(g *graph.Graph, part *community.Partition, opts PoolOptions) (*Pool, error) {
	if g.NumNodes() != part.NumNodes() {
		return nil, fmt.Errorf("ric: graph has %d nodes but partition covers %d", g.NumNodes(), part.NumNodes())
	}
	if opts.Model == 0 {
		opts.Model = diffusion.IC
	}
	if opts.Offset < 0 {
		return nil, fmt.Errorf("ric: pool offset %d must be ≥ 0", opts.Offset)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		g:        g,
		part:     part,
		model:    opts.Model,
		root:     xrand.New(opts.Seed),
		seed:     opts.Seed,
		offset:   opts.Offset,
		workers:  workers,
		index:    make([][]CoverEntry, g.NumNodes()),
		commFreq: make([]int, part.NumCommunities()),
	}, nil
}

// GenerateCtx draws count additional samples and folds them into the
// pool, polling ctx between sample batches. On cancellation the pool is
// left exactly as it was — no partial batch is folded in — and a
// completed call is byte-identical whatever ctx it ran under: the check
// never touches the PRNG streams.
//
//imc:longrun
func (p *Pool) GenerateCtx(ctx context.Context, count int) error {
	if count <= 0 {
		return errors.New("ric: sample count must be positive")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	base := len(p.samples)
	raws := make([]rawSample, count)
	workers := p.workers
	if workers > count {
		workers = count
	}
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
		// abort is the shared fast-fail flag: the first worker to hit an
		// error (or observe cancellation) raises it, and every other
		// worker checks it at the same batch boundary as the ctx poll, so
		// one failure stops the whole generation within ~ctxPollBatch
		// samples per worker instead of letting the survivors sample the
		// full count to completion. A completed (error-free) run never
		// observes the flag, so its output stays byte-identical.
		abort atomic.Bool
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		abort.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen, err := NewGenerator(p.g, p.part, p.model)
			if err != nil {
				fail(err)
				return
			}
			var rng xrand.RNG
			drawn := 0
			for i := w; i < count; i += workers {
				if drawn&(ctxPollBatch-1) == 0 {
					if abort.Load() {
						return
					}
					if cerr := ctx.Err(); cerr != nil {
						fail(cerr)
						return
					}
				}
				drawn++
				p.root.SplitInto(uint64(p.offset+base+i), &rng)
				raws[i] = gen.Generate(&rng)
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Pre-grow the sample store to its exact post-fold length: the fold
	// appends once per raw, so growing up front pays one reallocation
	// instead of log2(count) doubling copies (presize contract).
	if free := cap(p.samples) - base; free < count {
		grown := make([]Sample, base, base+count)
		copy(grown, p.samples)
		p.samples = grown
	}
	for i, raw := range raws {
		id := int32(base + i)
		p.samples = append(p.samples, Sample{
			Comm:       raw.comm,
			Threshold:  raw.threshold,
			NumMembers: raw.numMembers,
			TouchCount: int32(len(raw.coverNodes)),
		})
		p.commFreq[raw.comm]++
		for j, v := range raw.coverNodes {
			p.index[v] = append(p.index[v], CoverEntry{Sample: id, Bits: raw.coverBits[j]})
		}
	}
	return nil
}

// DoubleCtx doubles the pool size (the IMCAF stop-and-stare schedule),
// polling ctx between sample batches.
//
//imc:longrun
func (p *Pool) DoubleCtx(ctx context.Context) error {
	n := len(p.samples)
	if n == 0 {
		return errors.New("ric: cannot double an empty pool")
	}
	return p.GenerateCtx(ctx, n)
}

// EnsureCtx grows the pool to at least target samples, generating only
// the missing tail. A pool already at or past target is left untouched.
// Because sample i is always drawn from PRNG stream i, the resulting
// pool is byte-identical to one generated in any other step pattern —
// EnsureCtx is how cache-warmed pools and cold pools converge on the
// same sample sequence.
//
//imc:longrun
func (p *Pool) EnsureCtx(ctx context.Context, target int) error {
	if target <= len(p.samples) {
		return ctx.Err()
	}
	return p.GenerateCtx(ctx, target-len(p.samples))
}

// NumSamples returns |R|.
func (p *Pool) NumSamples() int { return len(p.samples) }

// Sample returns sample i's metadata.
func (p *Pool) Sample(i int) Sample { return p.samples[i] }

// Entries returns the cover entries of node v (samples v touches). The
// slice aliases pool storage; treat it as read-only.
func (p *Pool) Entries(v graph.NodeID) []CoverEntry { return p.index[v] }

// TouchCount returns the number of samples node v touches — MAF's
// node-frequency statistic.
func (p *Pool) TouchCount(v graph.NodeID) int { return len(p.index[v]) }

// CommunityFrequency returns how many samples were sourced from
// community c — MAF's community-frequency statistic.
func (p *Pool) CommunityFrequency(c int) int { return p.commFreq[c] }

// Partition returns the community partition the pool samples against.
func (p *Pool) Partition() *community.Partition { return p.part }

// Graph returns the underlying social graph.
func (p *Pool) Graph() *graph.Graph { return p.g }

// Model returns the propagation model used for sampling.
func (p *Pool) Model() diffusion.Model { return p.model }

// Seed returns the seed the pool's PRNG streams derive from. Sample i
// is always drawn from stream i of this seed, so two pools with equal
// seeds over the same instance generate identical sample sequences —
// the property checkpoint/resume relies on to validate that a restored
// pool will extend, not fork, an interrupted run.
func (p *Pool) Seed() uint64 { return p.seed }

// Offset returns the pool's global stream offset: local sample j was
// drawn from PRNG stream Offset+j. Zero for ordinary prefix pools;
// positive for shard pools covering a later slice of the sequence.
func (p *Pool) Offset() int { return p.offset }

// State carries incremental coverage bookkeeping for one seed set over
// one pool: the union member-mask per touched sample. It is the shared
// substrate of every evaluator and greedy solver.
type State struct {
	pool    *Pool
	cover   []Mask  // per sample, nil until touched
	count   []int32 // cached popcount of cover, valid where cover != nil
	touched []int32 // samples with non-nil cover
	seeds   []graph.NodeID
	arena   []uint64 // chunked backing store cover masks are carved from
}

// arenaChunkWords sizes each arena chunk (8 KiB). Masks are a handful of
// words each, so one chunk serves hundreds of newly touched samples
// before the next allocation.
const arenaChunkWords = 1024

// carve returns a zeroed w-word mask backed by the state's arena,
// allocating a fresh chunk only when the current one runs dry. Carved
// masks live as long as the State; the arena is never reclaimed. The
// chunk make below is the arena's whole point — one allocation
// amortized over the hundreds of masks carved from it — and it sits at
// depth 0 of this function, which the hot-path contract permits; the
// annotation makes carve a checked boundary instead of an exception.
//
//imc:hotpath
func (s *State) carve(w int) Mask {
	if len(s.arena) < w {
		chunk := arenaChunkWords
		if chunk < w {
			chunk = w
		}
		s.arena = make([]uint64, chunk)
	}
	m := Mask(s.arena[:w:w])
	s.arena = s.arena[w:]
	return m
}

// NewState returns an empty coverage state for the pool. touched gets
// its exact final capacity up front: a sample index is appended at most
// once (the append is guarded by cover[i] == nil, which flips non-nil
// in the same branch), so the accumulator can never outgrow one entry
// per sample and Add never reallocates it.
func (p *Pool) NewState() *State {
	return &State{
		pool:    p,
		cover:   make([]Mask, len(p.samples)),
		count:   make([]int32, len(p.samples)),
		touched: make([]int32, 0, len(p.samples)),
	}
}

// Add incorporates seed v into the state. Newly touched samples get
// their mask carved from the state's arena instead of a per-sample
// Clone — one chunk allocation amortized over hundreds of samples.
//
//imc:hotpath
func (s *State) Add(v graph.NodeID) {
	s.seeds = append(s.seeds, v)
	for _, e := range s.pool.index[v] {
		if s.cover[e.Sample] == nil {
			m := s.carve(len(e.Bits))
			copy(m, e.Bits)
			s.cover[e.Sample] = m
			s.count[e.Sample] = int32(e.Bits.OnesCount())
			s.touched = append(s.touched, e.Sample)
			continue
		}
		e.Bits.OrInto(s.cover[e.Sample])
		s.count[e.Sample] = int32(s.cover[e.Sample].OnesCount())
	}
}

// CoverCount returns |I_g(S)| for sample i under the current seed set.
func (s *State) CoverCount(i int32) int32 {
	if s.cover[i] == nil {
		return 0
	}
	return s.count[i]
}

// Seeds returns the seeds added so far (shared slice; read-only).
func (s *State) Seeds() []graph.NodeID { return s.seeds }

// Covered returns the current member mask for sample i (nil if the seed
// set touches no member of that sample).
func (s *State) Covered(i int32) Mask { return s.cover[i] }

// InfluencedCount returns the number of pool samples the current seed
// set influences (|I_g(S)| ≥ h_g).
func (s *State) InfluencedCount() int {
	count := 0
	for _, i := range s.touched {
		if s.count[i] >= s.pool.samples[i].Threshold {
			count++
		}
	}
	return count
}

// FractionalSum returns Σ_g min(|I_g(S)|/h_g, 1) over the pool.
func (s *State) FractionalSum() float64 {
	total := 0.0
	for _, i := range s.touched {
		frac := float64(s.count[i]) / float64(s.pool.samples[i].Threshold)
		if frac > 1 {
			frac = 1
		}
		total += frac
	}
	return total
}

// NodeCover pairs a node with its member-coverage mask in one sample —
// the per-sample view of the inverted index, consumed by the BT solver.
type NodeCover struct {
	Node graph.NodeID
	Bits Mask
}

// SampleCovers materializes the sample → covering-nodes view of the
// inverted index (masks are shared with the index, treat as read-only).
// The view reflects the pool at call time; regenerate after Generate.
func (p *Pool) SampleCovers() [][]NodeCover {
	out := make([][]NodeCover, len(p.samples))
	for i := range p.samples {
		out[i] = make([]NodeCover, 0, 4)
	}
	for v := range p.index {
		for _, e := range p.index[v] {
			out[e.Sample] = append(out[e.Sample], NodeCover{Node: graph.NodeID(v), Bits: e.Bits})
		}
	}
	return out
}

// CHat evaluates the paper's ĉ_R(S) = (b/|R|)·Σ X_g(S) for an explicit
// seed set.
func (p *Pool) CHat(seeds []graph.NodeID) float64 {
	if len(p.samples) == 0 {
		return 0
	}
	st := p.NewState()
	for _, v := range seeds {
		st.Add(v)
	}
	return p.scale() * float64(st.InfluencedCount())
}

// NuHat evaluates the submodular upper bound ν_R(S) (paper eq. 7).
func (p *Pool) NuHat(seeds []graph.NodeID) float64 {
	if len(p.samples) == 0 {
		return 0
	}
	st := p.NewState()
	for _, v := range seeds {
		st.Add(v)
	}
	return p.scale() * st.FractionalSum()
}

// CoverageCount returns the raw number of samples influenced by seeds.
func (p *Pool) CoverageCount(seeds []graph.NodeID) int {
	st := p.NewState()
	for _, v := range seeds {
		st.Add(v)
	}
	return st.InfluencedCount()
}

// scale is b/|R|: one influenced sample's contribution to ĉ_R.
func (p *Pool) scale() float64 {
	return p.part.TotalBenefit() / float64(len(p.samples))
}

// Scale exposes b/|R| for solvers that report benefits.
func (p *Pool) Scale() float64 { return p.scale() }
