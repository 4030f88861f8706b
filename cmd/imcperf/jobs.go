package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"imc/internal/core"
	"imc/internal/diffusion"
	"imc/internal/expt"
	"imc/internal/job"
	"imc/internal/poolcache"
	"imc/internal/serve"
)

// jobs-open: an open loop submitting POST /v1/jobs on a fixed schedule
// to the serve stack with imcserve's job defaults (job store, two
// workers, pool cache). Every job has a distinct seed.
const (
	jobsK          = 5
	jobsDataset    = "facebook"
	jobsScale      = 0.1
	jobsWorkers    = 2 // imcserve's -workers default
	pollInterval   = 100 * time.Millisecond
	warmupPoll     = 10 * time.Millisecond
	drainTimeout   = 60 * time.Second
	jobsReplayName = "jobs-replay"
)

// jobsRate is the submission rate in jobs per second: about half the
// 1.5 jobs/s two workers completed under overload on a 2-vCPU
// linux/amd64 machine (see README.md).
const jobsRate = 0.8

type jobsBench struct {
	seed    uint64
	workDir string
	setups  int
	nodes   int

	dir   string
	store *job.Store
	pool  *job.Pool
	cache *poolcache.Cache
	http  *httpStack

	// Observations of the measured phase.
	lags           []float64
	depthMax       int
	status         map[int]int
	stats0, stats1 poolcache.Stats
}

func (b *jobsBench) spec(seed uint64) job.Spec {
	return job.Spec{Dataset: jobsDataset, Scale: jobsScale, Seed: seed, Alg: expt.AlgUBG, K: jobsK}
}

func (b *jobsBench) opSeed(idx int) uint64 { return deriveSeed(b.seed, tagOps, uint64(idx)) }

func (b *jobsBench) setup(ctx context.Context, t *tracer) error {
	b.setups++
	b.dir = filepath.Join(b.workDir, fmt.Sprintf("jobs-%d", b.setups))
	store, err := job.Open(filepath.Join(b.dir, "store"), nil)
	if err != nil {
		return err
	}
	b.store = store
	if b.cache, err = poolcache.Open(filepath.Join(b.dir, "cache"), poolcache.Options{MaxBytes: cacheBudget}); err != nil {
		return err
	}
	b.pool = job.NewPool(store, job.PoolOptions{Workers: jobsWorkers, Log: discardLogger(), PoolCache: b.cache})
	b.pool.Start()
	srv := serve.NewWithOptions(discardLogger(), nil, serve.Config{JobStore: store, JobPool: b.pool, PoolCache: b.cache})
	if b.http, err = startStack(srv.Handler()); err != nil {
		return err
	}
	var j job.Job
	if _, err := b.http.call(ctx, http.MethodPost, "/v1/jobs", b.spec(warmupKey), &j); err != nil {
		return fmt.Errorf("warm-up submit: %w", err)
	}
	deadline := time.Now().Add(drainTimeout)
	for !j.State.Terminal() {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up job %s still %s after %v", j.ID, j.State, drainTimeout)
		}
		time.Sleep(warmupPoll)
		if _, err := b.http.call(ctx, http.MethodGet, "/v1/jobs/"+j.ID, nil, &j); err != nil {
			return fmt.Errorf("warm-up poll: %w", err)
		}
	}
	if j.State != job.StateSucceeded {
		return fmt.Errorf("warm-up job %s %s: %s", j.ID, j.State, j.Error)
	}
	return nil
}

func (b *jobsBench) teardown() {
	if b.http != nil {
		b.http.stop()
		b.http = nil
	}
	if b.pool != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		_ = b.pool.Shutdown(ctx) // a worker still running is abandoned with the process
		cancel()
		b.pool = nil
	}
	if b.store != nil {
		_ = b.store.Close() // nothing is written after the pool stopped
		b.store = nil
	}
	_ = os.RemoveAll(b.dir) // scratch; the run directory is removed at exit too
}

// submission is one scheduled submit.
type submission struct {
	idx  int
	id   string
	due  time.Time
	lag  float64 // seconds the submit ran behind due
	code int
	err  error
}

// schedule submits jobs idx = 0..n-1 at start + idx/rate, sending each
// outcome on the returned channel, which it closes after the last. The
// channel holds all n outcomes, so the submitter never blocks on it.
func (b *jobsBench) schedule(ctx context.Context, start time.Time, n int, submit func(ctx context.Context, idx int) (string, int, error)) <-chan submission {
	out := make(chan submission, n)
	go func() {
		defer close(out)
		for idx := 0; idx < n && ctx.Err() == nil; idx++ {
			due := start.Add(time.Duration(float64(idx) / jobsRate * float64(time.Second)))
			time.Sleep(time.Until(due))
			lag := time.Since(due).Seconds()
			id, code, err := submit(ctx, idx)
			out <- submission{idx: idx, id: id, due: due, lag: lag, code: code, err: err}
		}
	}()
	return out
}

func (b *jobsBench) measure(ctx context.Context, d time.Duration) (*phase, error) {
	nodes, err := nodeCount(jobsDataset, jobsScale, b.opSeed(0))
	if err != nil {
		return nil, err
	}
	b.nodes = nodes
	b.status = make(map[int]int)
	b.lags = nil
	b.depthMax = 0
	b.stats0 = b.cache.Stats()
	n := max(int(jobsRate*d.Seconds()), 1)
	ph, start, cpu0 := beginPhase()
	subs := b.schedule(ctx, start, n, func(ctx context.Context, idx int) (string, int, error) {
		var j job.Job
		code, err := b.http.call(ctx, http.MethodPost, "/v1/jobs", b.spec(b.opSeed(idx)), &j)
		if err == nil && code != http.StatusCreated {
			err = fmt.Errorf("submit: HTTP %d, want 201", code)
		}
		return j.ID, code, err
	})
	pending := make(map[string]submission)
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	deadline := start.Add(d + drainTimeout)
	last := start
	for open := true; open || len(pending) > 0; {
		if !open && time.Now().After(deadline) {
			break
		}
		select {
		case s, ok := <-subs:
			if !ok {
				open, subs = false, nil
				continue
			}
			ph.attempted++
			b.lags = append(b.lags, s.lag)
			b.status[s.code]++
			if s.err != nil {
				ph.ops = append(ph.ops, opRecord{idx: s.idx, start: s.due, err: s.err})
				continue
			}
			pending[s.id] = s
		case <-ticker.C:
			b.depthMax = max(b.depthMax, b.pool.Stats().QueueDepth)
			done, err := b.poll(ctx, pending)
			if err != nil {
				return nil, err
			}
			for _, rec := range done {
				ph.ops = append(ph.ops, rec)
				last = maxTime(last, rec.start.Add(time.Duration(rec.latency*float64(time.Second))))
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for _, s := range pending {
		ph.ops = append(ph.ops, opRecord{idx: s.idx, start: s.due, err: fmt.Errorf("job %s not finished within %v of the run", s.id, drainTimeout)})
	}
	endPhase(ph, start, cpu0)
	ph.wall = last.Sub(start).Seconds()
	b.stats1 = b.cache.Stats()
	return ph, nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// poll lists the jobs and turns every pending one that reached a
// terminal state into a record, removing it from pending.
func (b *jobsBench) poll(ctx context.Context, pending map[string]submission) ([]opRecord, error) {
	if len(pending) == 0 {
		return nil, nil
	}
	var jobs []job.Job
	if _, err := b.http.call(ctx, http.MethodGet, "/v1/jobs", nil, &jobs); err != nil {
		return nil, fmt.Errorf("list jobs: %w", err)
	}
	var out []opRecord
	for _, j := range jobs {
		s, ok := pending[j.ID]
		if !ok || !j.State.Terminal() {
			continue
		}
		delete(pending, j.ID)
		rec := opRecord{
			idx:       s.idx,
			start:     s.due,
			latency:   j.FinishedAt.Sub(s.due).Seconds(),
			queueWait: j.StartedAt.Sub(j.SubmittedAt).Seconds(),
			run:       j.FinishedAt.Sub(j.StartedAt).Seconds(),
		}
		if j.State != job.StateSucceeded {
			rec.err = fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
			out = append(out, rec)
			continue
		}
		var res job.Result
		code, err := b.http.call(ctx, http.MethodGet, "/v1/jobs/"+j.ID+"/result", nil, &res)
		b.status[code]++
		if err != nil {
			rec.err = err
			out = append(out, rec)
			continue
		}
		rec.ans = answer{Seeds: res.Seeds, Benefit: res.Benefit, Total: res.TotalBenefit}
		if j.Checkpoint != nil {
			rec.ans.Samples, rec.ans.Doublings = j.Checkpoint.Samples, j.Checkpoint.Doublings
		}
		rec.err = rec.ans.check(jobsK, b.nodes)
		out = append(out, rec)
	}
	return out, nil
}

func (b *jobsBench) reference(ctx context.Context, idx int) (answer, error) {
	return referenceSolve(ctx, b.spec(b.opSeed(idx)).InstanceConfig(), expt.AlgUBG, jobsK)
}

// replay repeats the job path through the library on the same schedule:
// job.Store submit and state transitions, two workers doing what the
// job pool's runJob does, a durable checkpoint and then a cache save at
// every growth boundary, all against a fresh store and cache.
func (b *jobsBench) replay(ctx context.Context, t *tracer, ph *phase, _ *report) (*phase, map[int]solveOutcome, error) {
	dir := filepath.Join(b.workDir, jobsReplayName)
	store, err := job.Open(filepath.Join(dir, "store"), nil)
	if err != nil {
		return nil, nil, err
	}
	defer store.Close()
	cache, err := poolcache.Open(filepath.Join(dir, "cache"), poolcache.Options{MaxBytes: cacheBudget})
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for _, op := range ph.ops {
		n = max(n, op.idx+1)
	}
	traced, start, cpu0 := beginPhase()
	subs := b.schedule(ctx, start, n, func(_ context.Context, idx int) (string, int, error) {
		j, _, err := store.Submit(b.spec(b.opSeed(idx)), "")
		if err != nil {
			return "", 0, err
		}
		return j.ID, http.StatusCreated, nil
	})
	var mu sync.Mutex
	outcomes := make(map[int]solveOutcome, n)
	var wg sync.WaitGroup
	for w := 0; w < jobsWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range subs {
				rec, o := b.replayJob(ctx, t, store, cache, s)
				mu.Lock()
				traced.attempted++
				traced.ops = append(traced.ops, rec)
				outcomes[s.idx] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	endPhase(traced, start, cpu0)
	return traced, outcomes, nil
}

// replayJob is runJob for one submission, traced.
func (b *jobsBench) replayJob(ctx context.Context, t *tracer, store *job.Store, cache *poolcache.Cache, s submission) (opRecord, solveOutcome) {
	rec := opRecord{idx: s.idx, start: s.due}
	if s.err != nil {
		rec.err = s.err
		return rec, solveOutcome{}
	}
	j, err := store.MarkRunning(s.id)
	if err != nil {
		rec.err = err
		return rec, solveOutcome{}
	}
	id := t.open(s.idx, noParent, spanOp)
	inst, err := tracedBuild(t, s.idx, id, j.Spec.InstanceConfig())
	if err != nil {
		t.close(id, 0)
		rec.err = err
		return rec, solveOutcome{}
	}
	// runJob first looks for a checkpoint to resume; a fresh job has
	// none, so the lookup fails and the solve starts from scratch.
	if _, err := store.LoadCheckpoint(s.id, inst); err == nil {
		rec.err = errors.New("fresh job unexpectedly has a checkpoint")
	}
	o, err := tracedSolve(ctx, t, s.idx, id, solveRequest{
		inst: inst, alg: j.Spec.Alg, k: j.Spec.K, seed: j.Spec.Seed,
		sess:    cache.Begin(inst.G, inst.Part, diffusion.IC, j.Spec.Seed),
		durable: func(cp core.Checkpoint) error { return store.SaveCheckpoint(s.id, cp) },
	})
	t.close(id, 0)
	if err != nil {
		rec.err = errors.Join(rec.err, err)
		_ = store.MarkFailed(s.id, err.Error()) // the record already carries the failure
		return rec, o
	}
	if err := store.MarkSucceeded(s.id, job.Result{Seeds: o.ans.Seeds, Benefit: o.ans.Benefit, TotalBenefit: o.ans.Total}); err != nil {
		rec.err = errors.Join(rec.err, err)
		return rec, o
	}
	done, err := store.Get(s.id)
	if err != nil {
		rec.err = errors.Join(rec.err, err)
		return rec, o
	}
	rec.ans = o.ans
	rec.latency = done.FinishedAt.Sub(s.due).Seconds()
	if rec.err == nil {
		rec.err = o.ans.check(jobsK, inst.G.NumNodes())
	}
	return rec, o
}

func (b *jobsBench) layerCounters(ph *phase, rep *report) {
	var waits, runs []float64
	for _, op := range ph.okOps() {
		waits = append(waits, op.queueWait)
		runs = append(runs, op.run)
	}
	rep.add("job.queue_wait_s", "s", median(waits), "StartedAt - SubmittedAt")
	rep.add("job.run_s", "s", median(runs), "FinishedAt - StartedAt")
	lag := 0.0
	for _, l := range b.lags {
		lag = max(lag, l)
	}
	rep.add("job.generator_lag_s", "s", lag, fmt.Sprintf("worst of %d submissions at %.2f jobs/s", len(b.lags), jobsRate))
	rep.add("job.queue_depth_max", "count", float64(b.depthMax), "")
	cacheCounters(b.stats0, b.stats1, len(ph.okOps()), rep)
	c4, c5 := 0, 0
	for code, n := range b.status {
		switch {
		case code >= 400 && code < 500:
			c4 += n
		case code >= 500:
			c5 += n
		}
	}
	rep.add("serve.errors_4xx", "count", float64(c4), "")
	rep.add("serve.errors_5xx", "count", float64(c5), "")
}
