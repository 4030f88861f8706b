package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"time"

	"imc/internal/clock"
	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/ric"
)

// StopReason explains why IMCAF terminated.
type StopReason int

const (
	// StopCondition means the Alg. 5 statistical check passed: the
	// candidate's estimated quality certifies the α(1−ε) guarantee.
	StopCondition StopReason = iota + 1
	// StopPsiCap means the pool reached the worst-case bound Ψ (eq. 22),
	// which alone certifies the guarantee (Theorem 6).
	StopPsiCap
	// StopSampleCap means the configured MaxSamples safety cap was hit
	// before either statistical certificate; the result is best-effort.
	StopSampleCap
)

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
	case StopCondition:
		return "stop-condition"
	case StopPsiCap:
		return "psi-cap"
	case StopSampleCap:
		return "sample-cap"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

// Options configures one IMCAF run.
type Options struct {
	// K is the seed budget.
	K int
	// Eps is the total approximation slack ε ∈ (0, 1); the paper's
	// experiments use 0.2.
	Eps float64
	// Delta is the total failure probability δ ∈ (0, 1); default 0.2.
	Delta float64
	// Model selects IC (default) or LT.
	Model diffusion.Model
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the parallelism of both pool generation and the
	// Estimate check; 0 = GOMAXPROCS. Neither result depends on it.
	// Estimate evaluates draws in rounds of Workers batches of
	// estimateBatch (128) draws, polls ctx once per round, and folds the
	// outcomes in draw order, so it stops at exactly the serial loop's
	// draw; the parallel overshoot is at most Workers·128−1 draws per
	// call.
	Workers int
	// MaxSamples is a practical safety cap on |R| (Ψ can be astronomically
	// large for weak α). 0 defaults to 1<<20.
	MaxSamples int
	// NuGuided switches to the paper's UBG integration (§V-B end):
	// stop-and-stare against the submodular ν objective with
	// maxr.GreedyNuCtx as the selector, yielding the
	// (c(S_ν)/ν(S_ν))·(1−1/e−ε) guarantee. Solver is ignored when set.
	NuGuided bool
	// Logger, when non-nil, receives per-round progress (pool size,
	// candidate quality, stop checks) at Debug level.
	Logger *slog.Logger
	// Clock supplies timestamps for the Elapsed report; nil means the
	// real wall clock. Only reporting reads it — never sampling.
	Clock clock.Func
	// Checkpoint, when non-nil, is invoked at every pool-growth boundary
	// (after the initial generation and after each doubling, before the
	// round's solver pass) with the live pool and round counter. A
	// checkpoint error aborts the solve: the caller asked for durable
	// progress and is not getting it. The callback must not mutate the
	// pool.
	Checkpoint CheckpointFunc
	// Resume, when non-nil, restarts the stop-and-stare loop at round
	// Resume.Doublings instead of round 0. The round counter is the
	// whole resume state: the loop grows Resume.Pool through Grow to
	// the round's size, ⌈Λ⌉·2^Doublings, so the pool may hold any
	// prefix of the run's samples, including none. The pool must have
	// been created over the same graph and partition with the same Seed
	// and Model (validated), and Options must otherwise equal the
	// original run's — then the resumed run retraces the uninterrupted
	// one exactly, seed for seed.
	Resume *Checkpoint
	// Grow, when non-nil, supplies pool samples in place of plain
	// generation: the stop-and-stare loop calls it wherever it would
	// otherwise generate (the initial batch and each doubling), and the
	// hook must leave the pool with at least target samples. This is
	// the pool cache's seam — a cached snapshot donates its prefix and
	// only the missing tail is generated. Because sample i is always
	// drawn from PRNG stream i, a correct hook is observationally
	// identical to generation, so every stop check still runs against
	// exactly the pool a cold run would have had. Nil means
	// ric.Pool.EnsureCtx.
	Grow GrowFunc
}

// GrowFunc grows pool to at least target samples. Implementations may
// source samples anywhere (generation, a cache, a donor pool) but the
// result must be byte-identical to pool.EnsureCtx(ctx, target) — the
// solvers' determinism and the statistical guarantees both ride on it.
type GrowFunc func(ctx context.Context, pool *ric.Pool, target int) error

// growFunc returns the configured Grow hook or the plain-generation
// default.
func (o Options) growFunc() GrowFunc {
	if o.Grow != nil {
		return o.Grow
	}
	return func(ctx context.Context, pool *ric.Pool, target int) error {
		return pool.EnsureCtx(ctx, target)
	}
}

// Checkpoint captures the resumable progress of a SolveCtx run at a
// pool-growth boundary. Everything the loop consults — Λ, Ψ, the
// estimate-check seeds, and the pool itself, since sample i is always
// drawn from PRNG stream i — is recomputed deterministically from
// Options and the round counter, so Doublings is the whole resume
// state. Pool is the live pool at a boundary; on resume it is the pool
// to continue from, holding any prefix of the run's samples.
type Checkpoint struct {
	// Pool is the sample pool.
	Pool *ric.Pool
	// Doublings is the stop-and-stare round counter at the boundary.
	Doublings int
}

// CheckpointFunc receives solver checkpoints. Implementations typically
// record cp.Doublings somewhere durable; cp.Pool is the live pool,
// which a pool cache may store to save regeneration on resume.
type CheckpointFunc func(cp Checkpoint) error

// ErrInvalidOptions marks a solve that was rejected because of its
// parameters (the budget K, ε or δ) rather than a fault of the
// instance or the machine: the caller's mistake, matched with
// errors.Is.
var ErrInvalidOptions = errors.New("core: invalid options")

// CheckFraction reports an error wrapping ErrInvalidOptions unless v
// lies in the open unit interval (0, 1) that ε and δ must occupy.
func CheckFraction(name string, v float64) error {
	if !(v > 0 && v < 1) {
		return fmt.Errorf("%w: %s %g out of (0, 1)", ErrInvalidOptions, name, v)
	}
	return nil
}

func (o Options) normalized() (Options, error) {
	if o.K < 1 {
		return o, fmt.Errorf("%w: K=%d must be ≥ 1", ErrInvalidOptions, o.K)
	}
	if err := CheckFraction("Eps", o.Eps); err != nil {
		return o, err
	}
	if err := CheckFraction("Delta", o.Delta); err != nil {
		return o, err
	}
	if o.Model == 0 {
		o.Model = diffusion.IC
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = 1 << 20
	}
	return o, nil
}

// Solution is the outcome of an IMCAF run.
type Solution struct {
	// Seeds is the selected seed set.
	Seeds []graph.NodeID
	// CHat is the pool estimate ĉ_R(Seeds) at termination.
	CHat float64
	// EstimatedBenefit is the independent Estimate-procedure value when
	// the stop condition fired (0 when terminated by a cap).
	EstimatedBenefit float64
	// Samples is the final pool size |R|.
	Samples int
	// Doublings counts pool-doubling rounds.
	Doublings int
	// Stopped records why the loop ended.
	Stopped StopReason
	// Alpha is the solver's approximation guarantee used in Ψ.
	Alpha float64
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
	// SandwichRatio is ĉ_R/ν̂_R of the returned seeds (UBG's empirical
	// factor); 0 when ν̂_R is 0.
	SandwichRatio float64
}

// SolveCtx runs the IMC Algorithmic Framework (paper Alg. 5) with the
// given MAXR solver: generate Λ RIC samples, repeatedly solve MAXR and
// verify the candidate with the Estimate procedure, doubling the pool
// until a statistical certificate or the Ψ bound is reached.
//
// The stop-and-stare loop checks ctx between doubling rounds and
// threads it into sample generation, the MAXR solver and the Estimate
// verification batches. A run that completes returns byte-identical
// seeds under any ctx — the checks never touch the PRNG streams —
// while a cancelled run returns the ctx error
// promptly (within one worker batch: ~1k samples while generating, one
// Estimate round of Workers·128 draws while verifying).
//
//imc:longrun
func SolveCtx(ctx context.Context, g *graph.Graph, part *community.Partition, solver maxr.Solver, opts Options) (Solution, error) {
	opts, err := opts.normalized()
	if err != nil {
		return Solution{}, err
	}
	if err := compatible(g, part, opts.K); err != nil {
		return Solution{}, err
	}
	now := clock.OrWall(opts.Clock)
	start := now()

	// Alg. 5 line 1: split ε, δ for the Ψ bound (paper setting:
	// ε1 = ε2 = ε/2, δ1 = δ2 = δ/2).
	eps1, eps2 := opts.Eps/2, opts.Eps/2
	delta1, delta2 := opts.Delta/2, opts.Delta/2
	// Alg. 5 line 3: split ε for the stop stage (paper setting ε/4 each;
	// ε ≥ ε1+ε2+ε3+ε1ε2 holds).
	se1, se2, se3 := opts.Eps/4, opts.Eps/4, opts.Eps/4

	// Alg. 5 line 4: Λ = (1+ε1)(1+ε2)·(3/ε3²)·ln(3/(2δ)). (The paper's
	// typography is ambiguous about the ε3 exponent; we use the SSA
	// form, see DESIGN.md.)
	lambda := (1 + se1) * (1 + se2) * 3 / (se3 * se3) * math.Log(3/(2*opts.Delta))
	initial := int(math.Ceil(lambda))
	if initial < 1 {
		initial = 1
	}
	if initial > opts.MaxSamples {
		initial = opts.MaxSamples
	}

	// Round d's pool is exactly the first initial·2^d samples, so a
	// resumed run grows whatever prefix it was handed to that size.
	var pool *ric.Pool
	resumeFrom := 0
	if opts.Resume != nil {
		if err := validateResume(g, part, opts, initial); err != nil {
			return Solution{}, err
		}
		pool, resumeFrom = opts.Resume.Pool, opts.Resume.Doublings
	} else if pool, err = ric.NewPool(g, part, ric.PoolOptions{Model: opts.Model, Seed: opts.Seed, Workers: opts.Workers}); err != nil {
		return Solution{}, err
	}
	grow := opts.growFunc()
	if err := grow(ctx, pool, initial<<resumeFrom); err != nil {
		return Solution{}, err
	}

	alpha := solver.Guarantee(pool, opts.K)
	if opts.NuGuided {
		alpha = 1 - 1/math.E
	}
	psi := PsiBound(g, part, opts.K, alpha, eps1, eps2, delta1, delta2)

	// Checkpoint count for the union bound over stop stages. Ψ can be
	// infinite when the solver's guarantee is vacuous (e.g. MAF with
	// h > k), in which case the doubling schedule is bounded by
	// MaxSamples instead.
	checkpoints := math.Log2(psi / lambda)
	if math.IsInf(checkpoints, 1) || math.IsNaN(checkpoints) {
		checkpoints = math.Log2(float64(opts.MaxSamples) / lambda)
	}
	if checkpoints < 1 {
		checkpoints = 1
	}
	estDelta := opts.Delta / (3 * checkpoints)
	if estDelta >= 1 {
		estDelta = 0.5
	}
	if estDelta < 1e-9 {
		estDelta = 1e-9
	}

	logger := opts.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	logger.Debug("imcaf start",
		"k", opts.K, "alpha", alpha, "psi", psi, "lambda", lambda,
		"initialSamples", initial, "resumeDoublings", resumeFrom)

	sol := Solution{Alpha: alpha, Stopped: StopSampleCap}
	doublings := resumeFrom
	// Boundary checkpoint before the first (or first resumed) solver
	// round: once this returns, a crash loses at most one round of work.
	if opts.Checkpoint != nil {
		if err := opts.Checkpoint(Checkpoint{Pool: pool, Doublings: doublings}); err != nil {
			return Solution{}, fmt.Errorf("core: checkpoint at round %d: %w", doublings, err)
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		seeds, chat, ratio, err := runSolver(ctx, pool, solver, opts)
		if err != nil {
			return Solution{}, err
		}
		sol.Seeds = seeds
		sol.CHat = chat
		sol.SandwichRatio = ratio
		sol.Samples = pool.NumSamples()
		sol.Doublings = doublings

		// Alg. 5 line 8: enough influenced samples for a reliable check?
		coverage := influencedMass(pool, seeds, opts.NuGuided)
		logger.Debug("imcaf round",
			"round", doublings, "samples", pool.NumSamples(),
			"chat", chat, "coverage", coverage)
		if coverage >= lambda {
			tmax := int(float64(pool.NumSamples()) * (1 + se2) / (1 - se2) * (se3 * se3) / (se2 * se2))
			if tmax < 1 {
				tmax = 1
			}
			est, err := EstimateCtx(ctx, g, part, seeds, EstimateOptions{
				Eps:        se2,
				Delta:      estDelta,
				TMax:       tmax,
				Model:      opts.Model,
				Seed:       opts.Seed ^ 0x5e5e5e5e5e5e5e5e ^ uint64(doublings)<<32,
				Fractional: opts.NuGuided,
				Workers:    opts.Workers,
			})
			if err != nil {
				return Solution{}, err
			}
			objective := chat
			if opts.NuGuided {
				objective = pool.NuHat(seeds)
			}
			logger.Debug("imcaf estimate check",
				"round", doublings, "estimate", est.Benefit,
				"converged", est.Converged, "objective", objective)
			if est.Converged && objective <= (1+se1)*est.Benefit {
				sol.EstimatedBenefit = est.Benefit
				sol.Stopped = StopCondition
				break
			}
		}

		if float64(pool.NumSamples()) >= psi {
			sol.Stopped = StopPsiCap
			break
		}
		if pool.NumSamples()*2 > opts.MaxSamples {
			sol.Stopped = StopSampleCap
			break
		}
		if err := grow(ctx, pool, pool.NumSamples()*2); err != nil {
			return Solution{}, err
		}
		doublings++
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint(Checkpoint{Pool: pool, Doublings: doublings}); err != nil {
				return Solution{}, fmt.Errorf("core: checkpoint at round %d: %w", doublings, err)
			}
		}
	}
	sol.Elapsed = now().Sub(start)
	logger.Debug("imcaf done",
		"stopped", sol.Stopped.String(), "samples", sol.Samples,
		"chat", sol.CHat, "elapsed", sol.Elapsed)
	return sol, nil
}

// validateResume checks that a Resume checkpoint can only continue the
// run it was taken from: same instance shape, same seed, same model, a
// round the run could have reached under MaxSamples, and a pool no
// longer than that round's initial·2^Doublings samples. Anything else
// would silently fork the sample sequence and break the
// byte-identical-resume guarantee.
func validateResume(g *graph.Graph, part *community.Partition, opts Options, initial int) error {
	pool, d := opts.Resume.Pool, opts.Resume.Doublings
	switch {
	case pool == nil:
		return fmt.Errorf("core: resume checkpoint has no pool")
	case d < 0:
		return fmt.Errorf("core: resume doublings %d is negative", d)
	case pool.Graph().NumNodes() != g.NumNodes():
		return fmt.Errorf("core: resume pool covers %d nodes, graph has %d", pool.Graph().NumNodes(), g.NumNodes())
	case pool.Partition().NumCommunities() != part.NumCommunities():
		return fmt.Errorf("core: resume pool has %d communities, partition has %d", pool.Partition().NumCommunities(), part.NumCommunities())
	case pool.Seed() != opts.Seed:
		return fmt.Errorf("core: resume pool seed %d does not match Options.Seed %d", pool.Seed(), opts.Seed)
	case pool.Model() != opts.Model:
		return fmt.Errorf("core: resume pool model %v does not match Options.Model %v", pool.Model(), opts.Model)
	case initial > opts.MaxSamples>>d: // initial·2^d > MaxSamples, without overflow
		return fmt.Errorf("core: resume round %d needs %d·2^%d samples, past MaxSamples %d", d, initial, d, opts.MaxSamples)
	case pool.NumSamples() > initial<<d:
		return fmt.Errorf("core: resume pool holds %d samples, longer than round %d's %d", pool.NumSamples(), d, initial<<d)
	}
	return nil
}

// discardHandler drops every record; it stands in when no Logger is
// configured so call sites stay unconditional.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// SolveFixedCtx runs a MAXR solver against a fixed-size pool, skipping
// the adaptive stop machinery, with ctx threaded into sample generation
// and the solver. Benchmarks and examples that want direct control over
// sampling effort use this entry point.
//
//imc:longrun
func SolveFixedCtx(ctx context.Context, g *graph.Graph, part *community.Partition, solver maxr.Solver, k, numSamples int, opts Options) (Solution, error) {
	if numSamples < 1 {
		return Solution{}, fmt.Errorf("core: numSamples=%d must be ≥ 1", numSamples)
	}
	opts.K = k
	if opts.Eps == 0 {
		opts.Eps = 0.2
	}
	if opts.Delta == 0 {
		opts.Delta = 0.2
	}
	opts, err := opts.normalized()
	if err != nil {
		return Solution{}, err
	}
	if err := compatible(g, part, k); err != nil {
		return Solution{}, err
	}
	now := clock.OrWall(opts.Clock)
	start := now()
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Model: opts.Model, Seed: opts.Seed, Workers: opts.Workers})
	if err != nil {
		return Solution{}, err
	}
	if err := opts.growFunc()(ctx, pool, numSamples); err != nil {
		return Solution{}, err
	}
	seeds, chat, ratio, err := runSolver(ctx, pool, solver, opts)
	if err != nil {
		return Solution{}, err
	}
	return Solution{
		Seeds:         seeds,
		CHat:          chat,
		Samples:       pool.NumSamples(),
		Stopped:       StopSampleCap,
		Alpha:         solver.Guarantee(pool, k),
		Elapsed:       now().Sub(start),
		SandwichRatio: ratio,
	}, nil
}

// runSolver executes the configured selection step: the MAXR solver, or
// greedy-on-ν when NuGuided.
func runSolver(ctx context.Context, pool *ric.Pool, solver maxr.Solver, opts Options) (seeds []graph.NodeID, chat, ratio float64, err error) {
	if opts.NuGuided {
		seeds, err = maxr.GreedyNuCtx(ctx, pool, opts.K)
		if err != nil {
			return nil, 0, 0, err
		}
		chat = pool.CHat(seeds)
	} else {
		var res maxr.Result
		res, err = solver.SolveCtx(ctx, pool, opts.K)
		if err != nil {
			return nil, 0, 0, err
		}
		seeds, chat = res.Seeds, res.CHat
	}
	ratio = maxr.SandwichRatio(pool, seeds)
	return seeds, chat, ratio, nil
}

// influencedMass returns the Alg. 5 line-8 statistic: the influenced
// sample count (or, in ν-guided mode, the fractional sum).
func influencedMass(pool *ric.Pool, seeds []graph.NodeID, fractional bool) float64 {
	st := pool.NewState()
	for _, s := range seeds {
		st.Add(s)
	}
	if fractional {
		return st.FractionalSum()
	}
	return float64(st.InfluencedCount())
}

// PsiBound computes Ψ (paper eq. 22): the worst-case number of RIC
// samples certifying an α(1−ε) guarantee, using the optimum lower bound
// c(S*) ≥ βk/h (β = min benefit, h = max threshold).
func PsiBound(g *graph.Graph, part *community.Partition, k int, alpha, eps1, eps2, delta1, delta2 float64) float64 {
	b := part.TotalBenefit()
	beta := part.MinBenefit()
	h := float64(part.MaxThreshold())
	if beta <= 0 || h <= 0 || alpha <= 0 {
		return math.Inf(1)
	}
	n := float64(g.NumNodes())
	lnBinom := lnChoose(n, float64(k))
	t1 := 2 * math.Log(1/delta1) / (eps1 * eps1)
	t2 := 3 * (lnBinom + math.Log(1/delta2)) / (alpha * alpha * eps2 * eps2)
	lead := b * h / (beta * float64(k))
	return lead * math.Max(t1, t2)
}

// lnChoose returns ln C(n, k) via log-gamma.
func lnChoose(n, k float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	lg := func(x float64) float64 {
		v, _ := math.Lgamma(x + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// compatible validates (graph, partition, budget) agreement.
func compatible(g *graph.Graph, part *community.Partition, k int) error {
	if g.NumNodes() != part.NumNodes() {
		return fmt.Errorf("core: graph has %d nodes but partition covers %d", g.NumNodes(), part.NumNodes())
	}
	if k > g.NumNodes() {
		return fmt.Errorf("%w: K=%d exceeds node count %d", ErrInvalidOptions, k, g.NumNodes())
	}
	return part.Validate()
}
