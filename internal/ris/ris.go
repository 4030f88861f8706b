// Package ris implements classic Reverse Influence Sampling for the
// plain influence-maximization problem — the "IM" baseline of the
// paper's evaluation.
//
// An RR (reverse-reachable) set is drawn by picking a uniform random
// node v and collecting every node that reaches v in a deterministic
// subgraph sampled edge-by-edge during a reverse BFS (Borgs et al.).
// The expected spread of any seed set S is n·Pr[S ∩ RR ≠ ∅], so greedy
// max coverage over a pool of RR sets approximates IM within 1−1/e−ε.
package ris

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"imc/internal/bitset"
	"imc/internal/clock"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/xrand"
)

// ctxPollBatch is how many RR sets a worker draws between cooperative
// ctx.Err() polls — batch-boundary cancellation, matching ric.Pool.
const ctxPollBatch = 1024

// Options configures the IM solver.
type Options struct {
	// K is the seed budget.
	K int
	// Eps, Delta are the approximation slack and failure probability
	// (defaults 0.2 each).
	Eps, Delta float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds generation parallelism; 0 = GOMAXPROCS.
	Workers int
	// Model selects IC (default) or LT reverse sampling.
	Model diffusion.Model
	// MaxSamples caps the RR pool (default 1<<20).
	MaxSamples int
	// Clock supplies timestamps for the Elapsed report; nil means the
	// real wall clock. Only reporting reads it — never sampling.
	Clock clock.Func
}

// Solution is the solver outcome.
type Solution struct {
	// Seeds is the selected seed set.
	Seeds []graph.NodeID
	// SpreadEstimate is the pool-based estimate of E[spread(Seeds)].
	SpreadEstimate float64
	// Samples is the final RR-pool size.
	Samples int
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

// SolveCtx picks k seeds approximately maximizing expected influence
// spread using a stop-and-stare doubling schedule: grow the RR pool,
// greedily cover it, and stop once an independent stopping-rule
// estimate confirms the pool estimate.
//
// The doubling loop checks ctx per round and threads it into RR-set
// generation and the stopping-rule verification. A completed run is
// byte-identical under any ctx.
//
//imc:longrun
func SolveCtx(ctx context.Context, g *graph.Graph, opts Options) (Solution, error) {
	if opts.K < 1 {
		return Solution{}, fmt.Errorf("ris: K=%d must be ≥ 1", opts.K)
	}
	if opts.K > g.NumNodes() {
		return Solution{}, fmt.Errorf("ris: K=%d exceeds node count %d", opts.K, g.NumNodes())
	}
	if opts.Eps == 0 {
		opts.Eps = 0.2
	}
	if opts.Delta == 0 {
		opts.Delta = 0.2
	}
	if opts.Eps <= 0 || opts.Eps >= 1 || opts.Delta <= 0 || opts.Delta >= 1 {
		return Solution{}, errors.New("ris: Eps and Delta must lie in (0, 1)")
	}
	if opts.Model == 0 {
		opts.Model = diffusion.IC
	}
	if opts.MaxSamples <= 0 {
		opts.MaxSamples = 1 << 20
	}
	now := clock.OrWall(opts.Clock)
	start := now()
	pool := newRRPool(g, opts)
	e3 := opts.Eps / 4
	lambda := (1 + opts.Eps/4) * (1 + opts.Eps/4) * 3 / (e3 * e3) * math.Log(3/(2*opts.Delta))
	if err := pool.generateCtx(ctx, int(math.Ceil(lambda))); err != nil {
		return Solution{}, err
	}
	var (
		seeds    []graph.NodeID
		coverage int
	)
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		seeds, coverage = pool.greedyMaxCover(opts.K)
		if float64(coverage) >= lambda {
			est, converged, err := pool.estimateSpread(ctx, seeds, opts.Eps/4, opts.Delta/3, 2*pool.size(), uint64(round))
			if err != nil {
				return Solution{}, err
			}
			poolEst := pool.spread(coverage)
			if converged && poolEst <= (1+opts.Eps/4)*est {
				break
			}
		}
		if pool.size()*2 > opts.MaxSamples {
			break
		}
		if err := pool.generateCtx(ctx, pool.size()); err != nil {
			return Solution{}, err
		}
	}
	return Solution{
		Seeds:          seeds,
		SpreadEstimate: pool.spread(coverage),
		Samples:        pool.size(),
		Elapsed:        now().Sub(start),
	}, nil
}

// rrPool is a pool of RR sets with an inverted node → sets index.
type rrPool struct {
	g       *graph.Graph
	opts    Options
	root    *xrand.RNG
	workers int
	sets    [][]graph.NodeID
	index   [][]int32

	// Greedy scratch, reused across doubling rounds. covered tracks RR
	// sets already hit and must be re-created when the pool outgrows it;
	// deg and chosen are node-sized and stable.
	deg     []int32
	covered *bitset.Set
	chosen  *bitset.Set
}

func newRRPool(g *graph.Graph, opts Options) *rrPool {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &rrPool{
		g:       g,
		opts:    opts,
		root:    xrand.New(opts.Seed),
		workers: workers,
		index:   make([][]int32, g.NumNodes()),
	}
}

func (p *rrPool) size() int { return len(p.sets) }

func (p *rrPool) spread(coverage int) float64 {
	if len(p.sets) == 0 {
		return 0
	}
	return float64(p.g.NumNodes()) * float64(coverage) / float64(len(p.sets))
}

// generateCtx draws count fresh RR sets, polling ctx between sample
// batches. On cancellation the pool is left untouched — no partial
// batch is folded in.
func (p *rrPool) generateCtx(ctx context.Context, count int) error {
	if count < 1 {
		return errors.New("ris: sample count must be positive")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	base := len(p.sets)
	out := make([][]graph.NodeID, count)
	workers := p.workers
	if workers > count {
		workers = count
	}
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := newRRSampler(p.g, p.opts.Model)
			var rng xrand.RNG
			drawn := 0
			for i := w; i < count; i += workers {
				if drawn&(ctxPollBatch-1) == 0 {
					if cerr := ctx.Err(); cerr != nil {
						errOnce.Do(func() { firstErr = cerr })
						return
					}
				}
				drawn++
				p.root.SplitInto(uint64(base+i), &rng)
				// Each slot is stored once per sample draw — multiple
				// microseconds of BFS apart — so line bouncing is noise
				// here, and padding the 24-byte headers to a cache line
				// would add 40 bytes per RR set at million-set scale.
				//lint:allow falseshare: one store per multi-microsecond draw; padding costs 40B per RR set at million-set scale
				out[i] = s.sample(&rng)
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for i, set := range out {
		id := int32(base + i)
		p.sets = append(p.sets, set)
		for _, v := range set {
			p.index[v] = append(p.index[v], id)
		}
	}
	return nil
}

// greedyMaxCover runs the standard degree-decrement greedy for max
// coverage over the current pool. Covered-set membership lives in a
// packed bitset: RR pools reach millions of sets, where the 8× memory
// saving over []bool keeps the greedy pass cache-resident.
//
//imc:hotpath
func (p *rrPool) greedyMaxCover(k int) ([]graph.NodeID, int) {
	n := p.g.NumNodes()
	if cap(p.deg) < n {
		p.deg = make([]int32, n)
	}
	deg := p.deg[:n]
	index := p.index[:n] // relate the cover index to the scan bound once
	for v := 0; v < n; v++ {
		deg[v] = int32(len(index[v]))
	}
	if p.covered == nil || p.covered.Len() < len(p.sets) {
		p.covered = bitset.New(len(p.sets))
	} else {
		p.covered.Reset()
	}
	covered := p.covered
	if p.chosen == nil || p.chosen.Len() < n {
		p.chosen = bitset.New(n)
	} else {
		p.chosen.Reset()
	}
	chosen := p.chosen
	seeds := make([]graph.NodeID, 0, k)
	total := 0
	for len(seeds) < k {
		best, bestDeg := -1, int32(-1)
		for v := 0; v < n; v++ {
			if !chosen.Test(v) && deg[v] > bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		if best < 0 {
			break
		}
		chosen.Set(best)
		seeds = append(seeds, graph.NodeID(best))
		for _, setID := range index[best] {
			if covered.Test(int(setID)) {
				continue
			}
			covered.Set(int(setID))
			total++
			for _, u := range p.sets[setID] {
				deg[u]--
			}
		}
	}
	return seeds, total
}

// estimateSpread draws fresh RR sets until the Dagum stopping rule
// certifies an estimate of Pr[S ∩ RR ≠ ∅], returning n times it.
// Cancellation surfaces as a non-nil error; other stopping-rule errors
// keep their historical "not converged" treatment.
func (p *rrPool) estimateSpread(ctx context.Context, seeds []graph.NodeID, eps, delta float64, tmax int, salt uint64) (float64, bool, error) {
	inSeed := make([]bool, p.g.NumNodes())
	for _, s := range seeds {
		inSeed[s] = true
	}
	s := newRRSampler(p.g, p.opts.Model)
	root := xrand.New(p.opts.Seed ^ 0xa5a5a5a5a5a5a5a5 ^ salt<<40)
	res, err := diffusion.StoppingRuleCtx(ctx, func(rng *xrand.RNG) float64 {
		if s.sampleHits(rng, inSeed) {
			return 1
		}
		return 0
	}, eps, delta, tmax, root)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return 0, false, cerr
		}
		return 0, false, nil
	}
	return float64(p.g.NumNodes()) * res.Mean, res.Converged, nil
}

// rrSampler owns the reverse-BFS scratch for one worker.
type rrSampler struct {
	g     *graph.Graph
	model diffusion.Model
	epoch int32
	mark  []int32
	queue []graph.NodeID
}

func newRRSampler(g *graph.Graph, model diffusion.Model) *rrSampler {
	return &rrSampler{g: g, model: model, mark: make([]int32, g.NumNodes())}
}

// sample draws one RR set.
//
//imc:hotpath
func (s *rrSampler) sample(rng *xrand.RNG) []graph.NodeID {
	root := graph.NodeID(rng.Intn(s.g.NumNodes()))
	s.walk(root, rng, nil)
	return append([]graph.NodeID(nil), s.queue...)
}

// sampleHits draws one RR set, short-circuiting as soon as a seed node
// is reached.
//
//imc:hotpath
func (s *rrSampler) sampleHits(rng *xrand.RNG, inSeed []bool) bool {
	root := graph.NodeID(rng.Intn(s.g.NumNodes()))
	return s.walk(root, rng, inSeed)
}

// walk reverse-BFSes from root with on-the-fly edge sampling. When
// inSeed is non-nil it returns early on the first seed hit.
//
//imc:hotpath
func (s *rrSampler) walk(root graph.NodeID, rng *xrand.RNG, inSeed []bool) bool {
	s.epoch++
	// Hoist the scratch into locals: the BFS bound is then a local
	// length with one bounds proof, and the weight slices re-slice to
	// the neighbor count so ws[i] checks once per edge list.
	epoch := s.epoch
	mark := s.mark
	queue := s.queue[:0]
	queue = append(queue, root)
	mark[root] = epoch
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if inSeed != nil && inSeed[u] {
			s.queue = queue // keep the grown capacity for the next draw
			return true
		}
		switch s.model {
		case diffusion.LT:
			froms, ws, _ := s.g.InNeighbors(u)
			ws = ws[:len(froms)]
			total := 0.0
			for _, w := range ws {
				total += w
			}
			if total <= 0 {
				continue
			}
			draw := rng.Float64()
			if total > 1 {
				draw *= total
			}
			acc := 0.0
			for i, v := range froms {
				acc += ws[i]
				if draw < acc {
					if mark[v] != epoch {
						mark[v] = epoch
						queue = append(queue, v)
					}
					break
				}
			}
		default:
			froms, ws, _ := s.g.InNeighbors(u)
			ws = ws[:len(froms)]
			for i, v := range froms {
				if mark[v] != epoch && rng.Bernoulli(ws[i]) {
					mark[v] = epoch
					queue = append(queue, v)
				}
			}
		}
	}
	s.queue = queue
	return false
}
