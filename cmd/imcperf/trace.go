package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"imc/internal/core"
	"imc/internal/expt"
	"imc/internal/graph"
	"imc/internal/maxr"
	"imc/internal/poolcache"
	"imc/internal/ric"
)

// Span names. Each is one layer boundary the traced run times from the
// benchmark's side of a public call.
const (
	spanOp         = "op"                   // one workload operation
	spanBuild      = "expt.build"           // expt.BuildInstance
	spanSolve      = "core.solve"           // core.SolveCtx
	spanLoad       = "poolcache.load"       // Session.Cached (snapshot read)
	spanAdopt      = "poolcache.adopt"      // Session.Adopt
	spanGenerate   = "ric.generate"         // Pool.EnsureCtx
	spanMaxr       = "maxr.solve"           // the MAXR selection step
	spanEstimate   = "core.estimate"        // Alg. 6 inside the solve, from its log records
	spanSave       = "poolcache.save"       // Session.Save
	spanCheckpoint = "job.checkpoint"       // job.Store.SaveCheckpoint
	spanEval       = "expt.eval"            // the post-selection benefit estimate
	noParent       = -1                     // root spans
	setupOp        = -1                     // operation id of set-up spans
	estimateRound  = "imcaf round"          // core's record before a stop check
	estimateCheck  = "imcaf estimate check" // core's record after Estimate returns
)

// solveChildren are the spans that partition a core.solve; their union
// must cover the solve's wall time (the span coverage check).
var solveChildren = []string{spanLoad, spanAdopt, spanGenerate, spanMaxr, spanEstimate, spanSave, spanCheckpoint}

// span is one timed interval. Count carries the work done inside it
// (samples generated or adopted, evaluation samples), CPU the process
// CPU seconds it used when the tracer records CPU.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"` // seconds since the tracer's origin
	End    float64 `json:"end"`
	Count  int     `json:"count,omitempty"`
	CPU    float64 `json:"cpu,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	origin time.Time
	// cpu records process CPU per span. Only meaningful with a single
	// caller: with two, a span would also count the other's CPU.
	cpu bool

	mu    sync.Mutex
	spans []span
}

func newTracer(cpu bool) *tracer {
	return &tracer{origin: time.Now(), cpu: cpu}
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.origin).Seconds() }

// open starts a span and returns its id.
func (t *tracer) open(op, parent int, name string) int {
	s := span{Parent: parent, Op: op, Name: name, Start: t.since(time.Now()), End: -1}
	if t.cpu {
		s.CPU = processCPU() // the reading at the start, until close
	}
	return t.add(s)
}

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// close ends span id, recording count units of work.
func (t *tracer) close(id, count int) {
	var c float64
	if t.cpu {
		c = processCPU()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.since(time.Now())
	t.spans[id].Count = count
	if t.cpu {
		t.spans[id].CPU = c - t.spans[id].CPU
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// estimateHandler is the core.Options.Logger seam: core logs "imcaf
// round" just before it decides whether to run Estimate and "imcaf
// estimate check" right after Estimate returns, so the interval between
// the two records is the Estimate call.
type estimateHandler struct {
	t         *tracer
	op, solve int
	roundAt   time.Time // time of the last round record
	roundCPU  float64
	calls     int
}

func (h *estimateHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *estimateHandler) Handle(_ context.Context, r slog.Record) error {
	switch r.Message {
	case estimateRound:
		h.roundAt = r.Time
		if h.t.cpu {
			h.roundCPU = processCPU()
		}
	case estimateCheck:
		cpu := 0.0
		if h.t.cpu {
			cpu = processCPU() - h.roundCPU
		}
		h.t.add(span{Op: h.op, Parent: h.solve, Name: spanEstimate, Start: h.t.since(h.roundAt), End: h.t.since(r.Time), CPU: cpu})
		h.calls++
	}
	return nil
}

func (h *estimateHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *estimateHandler) WithGroup(string) slog.Handler      { return h }

// tracedSolver times each MAXR selection step.
type tracedSolver struct {
	maxr.Solver
	t         *tracer
	op, solve int
}

func (s *tracedSolver) SolveCtx(ctx context.Context, pool *ric.Pool, k int) (maxr.Result, error) {
	id := s.t.open(s.op, s.solve, spanMaxr)
	res, err := maxr.SolveWithContext(ctx, s.Solver, pool, k)
	s.t.close(id, 0)
	return res, err
}

// solveRequest is one solve as the traced run replays it: the same
// calls expt.RunAlgCtx makes for a single-run UBG or MAF solve, plus
// the cache session and checkpoint wiring the serve and job layers add.
type solveRequest struct {
	inst *expt.Instance
	alg  string
	k    int
	seed uint64
	// sess is the request's pool-cache session (nil: no cache).
	sess *poolcache.Session
	// durable, when set, runs before the cache save at every checkpoint
	// boundary, as the job worker's job.Store.SaveCheckpoint does.
	durable func(core.Checkpoint) error
}

// solveOutcome is a traced solve's answer plus what the spans cannot
// carry.
type solveOutcome struct {
	ans      answer
	adopted  int
	hit      bool
	stopped  core.StopReason
	estCalls int
}

// RunAlgCtx defaults the traced replay must reproduce exactly.
const (
	runEps        = 0.2
	runDelta      = 0.2
	runMaxSamples = 1 << 17
	runEvalTMax   = 1 << 17
	evalSeedMask  = 0x0f0f0f0f0f0f0f0f
)

// tracedSolve replays selectSeeds and evaluateBenefit for one solve,
// timing every layer it crosses. The answer must equal the untraced
// path's: the hooks only read clocks.
func tracedSolve(ctx context.Context, t *tracer, op, parent int, r solveRequest) (solveOutcome, error) {
	var out solveOutcome
	solveID := t.open(op, parent, spanSolve)
	loaded := false
	grow := func(ctx context.Context, pool *ric.Pool, target int) error {
		if r.sess != nil {
			if !loaded {
				id := t.open(op, solveID, spanLoad)
				out.hit = r.sess.Cached() != nil
				t.close(id, 0)
				loaded = true
			}
			id := t.open(op, solveID, spanAdopt)
			n := r.sess.Adopt(pool, target)
			t.close(id, n)
			out.adopted += n
		}
		before := pool.NumSamples()
		id := t.open(op, solveID, spanGenerate)
		err := pool.EnsureCtx(ctx, target)
		t.close(id, pool.NumSamples()-before)
		return err
	}
	checkpoint := func(cp core.Checkpoint) error {
		if r.durable != nil {
			id := t.open(op, solveID, spanCheckpoint)
			err := r.durable(cp)
			t.close(id, 0)
			if err != nil {
				return err
			}
		}
		if r.sess != nil {
			id := t.open(op, solveID, spanSave)
			// Best-effort, as in the serve and job layers: a failed save
			// shows in poolcache.errors, never as a failed solve.
			_ = r.sess.Save(cp.Pool)
			t.close(id, 0)
		}
		return nil
	}
	var solver maxr.Solver
	switch r.alg {
	case expt.AlgUBG:
		solver = maxr.UBG{}
	case expt.AlgMAF:
		solver = maxr.MAF{Seed: r.seed}
	default:
		return out, fmt.Errorf("traced solve: algorithm %q not replayed", r.alg)
	}
	ts := &tracedSolver{Solver: solver, t: t, op: op, solve: solveID}
	eh := &estimateHandler{t: t, op: op, solve: solveID}
	opts := core.Options{
		K:          r.k,
		Eps:        runEps,
		Delta:      runDelta,
		Seed:       r.seed,
		MaxSamples: runMaxSamples,
		Logger:     slog.New(eh),
		Grow:       grow,
	}
	if r.durable != nil || r.sess != nil {
		opts.Checkpoint = checkpoint
	}
	sol, err := core.SolveCtx(ctx, r.inst.G, r.inst.Part, ts, opts)
	t.close(solveID, 0)
	if err != nil {
		return out, err
	}
	out.stopped = sol.Stopped
	out.estCalls = eh.calls
	if sol.Stopped == core.StopCondition && eh.calls == 0 {
		return out, fmt.Errorf("traced solve stopped on the Estimate check but no %q/%q log records were seen: core's log messages changed", estimateRound, estimateCheck)
	}
	evalID := t.open(op, parent, spanEval)
	est, err := core.EstimateCtx(ctx, r.inst.G, r.inst.Part, sol.Seeds, core.EstimateOptions{
		Eps:   runEps,
		Delta: runDelta,
		TMax:  runEvalTMax,
		Seed:  r.seed ^ evalSeedMask,
	})
	t.close(evalID, est.Samples)
	if err != nil {
		return out, err
	}
	out.ans = answer{
		Seeds:     nodeIDs(sol.Seeds),
		Benefit:   est.Benefit,
		Total:     r.inst.Part.TotalBenefit(),
		Samples:   sol.Samples,
		Doublings: sol.Doublings,
	}
	return out, nil
}

// tracedBuild times expt.BuildInstance.
func tracedBuild(t *tracer, op, parent int, cfg expt.InstanceConfig) (*expt.Instance, error) {
	id := t.open(op, parent, spanBuild)
	inst, err := expt.BuildInstance(cfg)
	t.close(id, 0)
	return inst, err
}

func nodeIDs(seeds []graph.NodeID) []int32 {
	out := make([]int32, len(seeds))
	for i, s := range seeds {
		out[i] = int32(s)
	}
	return out
}
