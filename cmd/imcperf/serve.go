package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"imc/internal/core"
	"imc/internal/diffusion"
	"imc/internal/expt"
	"imc/internal/poolcache"
	"imc/internal/serve"
)

// serve-zipf: a closed loop of serveClients clients POSTing /solve to
// the serve handler stack over loopback, with request seeds drawn from
// a Zipf distribution over zipfKeys keys. The rank sequence (which
// request repeats which key) comes from the fixed zipfPatternSeed, so
// every run sees the same hit/miss pattern; the workload seed picks the
// solve seed, and with it the instance, behind each rank.
const (
	serveClients = 2
	serveK       = 20
	serveDataset = "wikivote"
	serveScale   = 0.1
	zipfKeys     = 4096
	zipfExponent = 1.2
	// zipfPatternSeed fixes the rank sequence: about a third of the
	// first twenty requests repeat an earlier key.
	zipfPatternSeed = 1
	cacheBudget     = 1 << 30 // imcserve's -pool-cache-bytes default
	opTimeout       = 60 * time.Second
	shutdownGrace   = 10 * time.Second
	// instanceCacheSize mirrors the serve layer's instance cache bound.
	instanceCacheSize = 16
)

// discardLogger formats records as imcserve's text logger does but
// drops them, so the server pays its logging cost without flooding the
// benchmark's output.
func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// httpStack is the serve handler stack on a loopback listener.
type httpStack struct {
	srv    *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startStack(h http.Handler) (*httpStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpStack{
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: opTimeout},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: opTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

// stop shuts the server down and waits for its goroutine.
func (s *httpStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // force the listener and connections closed
	}
	<-s.done
	s.client.CloseIdleConnections()
}

// call sends one JSON request and decodes a 2xx reply into out. The
// returned status is 0 when no response arrived.
func (s *httpStack) call(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

type serveBench struct {
	seed    uint64
	workDir string
	zipf    *zipf
	setups  int
	nodes   int

	dir   string
	cache *poolcache.Cache
	http  *httpStack

	// Client-side counters of the measured phase.
	mu        sync.Mutex
	started   map[uint64]bool
	completed map[uint64]bool
	status    map[int]int // HTTP status → count
	stats0    poolcache.Stats
	stats1    poolcache.Stats

	refs map[uint64]answer // reference answers by key seed
}

func (b *serveBench) keySeed(idx int) uint64 {
	return deriveSeed(b.seed, tagOps, uint64(b.zipf.rank(idx)))
}

func (b *serveBench) request(seed uint64) serve.SolveRequest {
	return serve.SolveRequest{
		InstanceRequest: serve.InstanceRequest{Dataset: serveDataset, Scale: serveScale, Seed: seed},
		Alg:             expt.AlgUBG,
		K:               serveK,
	}
}

func (b *serveBench) setup(ctx context.Context, t *tracer) error {
	b.setups++
	b.dir = filepath.Join(b.workDir, fmt.Sprintf("serve-%d", b.setups))
	cache, err := poolcache.Open(b.dir, poolcache.Options{MaxBytes: cacheBudget})
	if err != nil {
		return err
	}
	b.cache = cache
	srv := serve.NewWithOptions(discardLogger(), nil, serve.Config{PoolCache: cache})
	if b.http, err = startStack(srv.Handler()); err != nil {
		return err
	}
	var resp serve.SolveResponse
	if _, err := b.http.call(ctx, http.MethodPost, "/solve", b.request(warmupKey), &resp); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// nodeCount is the node count the oracle checks seeds against.
func nodeCount(dataset string, scale float64, seed uint64) (int, error) {
	inst, err := expt.BuildInstance(expt.InstanceConfig{Dataset: dataset, Scale: scale, Seed: seed})
	if err != nil {
		return 0, err
	}
	return inst.G.NumNodes(), nil
}

func (b *serveBench) teardown() {
	if b.http != nil {
		b.http.stop()
		b.http = nil
	}
	_ = os.RemoveAll(b.dir) // scratch; the run directory is removed at exit too
}

func (b *serveBench) measure(ctx context.Context, d time.Duration) (*phase, error) {
	nodes, err := nodeCount(serveDataset, serveScale, b.keySeed(0))
	if err != nil {
		return nil, err
	}
	b.nodes = nodes
	b.started = make(map[uint64]bool)
	b.completed = make(map[uint64]bool)
	b.status = make(map[int]int)
	b.stats0 = b.cache.Stats()
	ph := closedLoop(ctx, serveClients, d, func(ctx context.Context, idx int) opRecord {
		seed := b.keySeed(idx)
		b.mu.Lock()
		hit := -1
		switch {
		case b.completed[seed]:
			hit = 1
		case b.started[seed]:
			hit = 0
		}
		b.started[seed] = true
		b.mu.Unlock()
		var resp serve.SolveResponse
		code, err := b.http.call(ctx, http.MethodPost, "/solve", b.request(seed), &resp)
		b.mu.Lock()
		b.status[code]++
		if err == nil {
			b.completed[seed] = true
		}
		b.mu.Unlock()
		a := answer{Seeds: resp.Seeds, Benefit: resp.Benefit, Total: resp.TotalBenefit}
		if err == nil {
			err = a.check(serveK, b.nodes)
		}
		return opRecord{ans: a, err: err, hit: hit}
	})
	b.stats1 = b.cache.Stats()
	return ph, nil
}

// reference solves a key through expt.RunAlgCtx with no cache.
func (b *serveBench) reference(ctx context.Context, idx int) (answer, error) {
	seed := b.keySeed(idx)
	if a, ok := b.refs[seed]; ok {
		return a, nil
	}
	a, err := referenceSolve(ctx, expt.InstanceConfig{Dataset: serveDataset, Scale: serveScale, Seed: seed}, expt.AlgUBG, serveK)
	if err != nil {
		return answer{}, err
	}
	if b.refs == nil {
		b.refs = make(map[uint64]answer)
	}
	b.refs[seed] = a
	return a, nil
}

// referenceSolve builds the instance cfg names and solves it with the
// instance seed as solve seed, as the serve and job layers do.
func referenceSolve(ctx context.Context, cfg expt.InstanceConfig, alg string, k int) (answer, error) {
	inst, err := expt.BuildInstance(cfg)
	if err != nil {
		return answer{}, err
	}
	return librarySolve(ctx, inst, alg, k, cfg.Seed)
}

// librarySolve runs one uncached expt.RunAlgCtx solve, reading the
// final pool size and round counter from the checkpoint hook.
func librarySolve(ctx context.Context, inst *expt.Instance, alg string, k int, seed uint64) (answer, error) {
	var samples, doublings int
	res, err := expt.RunAlgCtx(ctx, inst, alg, k, expt.RunConfig{
		Seed: seed,
		Runs: 1,
		Checkpoint: func(cp core.Checkpoint) error {
			samples, doublings = cp.Pool.NumSamples(), cp.Doublings
			return nil
		},
	})
	if err != nil {
		return answer{}, err
	}
	a := answer{
		Seeds:     nodeIDs(res.Seeds),
		Benefit:   res.Benefit,
		Total:     inst.Part.TotalBenefit(),
		Samples:   samples,
		Doublings: doublings,
	}
	return a, a.check(k, inst.G.NumNodes())
}

// instanceCache is the replay's stand-in for the serve layer's
// instance cache: same bound, one arbitrary entry evicted when full.
type instanceCache struct {
	mu    sync.Mutex
	insts map[uint64]*expt.Instance
}

func (c *instanceCache) get(t *tracer, op, parent int, cfg expt.InstanceConfig) (*expt.Instance, error) {
	c.mu.Lock()
	inst, ok := c.insts[cfg.Seed]
	c.mu.Unlock()
	if ok {
		return inst, nil
	}
	inst, err := tracedBuild(t, op, parent, cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.insts) >= instanceCacheSize {
		for k := range c.insts {
			delete(c.insts, k)
			break
		}
	}
	c.insts[cfg.Seed] = inst
	return inst, nil
}

// replay repeats handleSolve through the library for every measured
// request, with its own fresh pool cache, at the same concurrency.
func (b *serveBench) replay(ctx context.Context, t *tracer, ph *phase, rep *report) (*phase, map[int]solveOutcome, error) {
	cache, err := poolcache.Open(filepath.Join(b.workDir, "serve-replay"), poolcache.Options{MaxBytes: cacheBudget})
	if err != nil {
		return nil, nil, err
	}
	insts := &instanceCache{insts: make(map[uint64]*expt.Instance)}
	var mu sync.Mutex
	outcomes := make(map[int]solveOutcome, len(ph.ops))
	traced := replayLoop(ctx, serveClients, opIndices(ph), func(ctx context.Context, idx int) opRecord {
		seed := b.keySeed(idx)
		id := t.open(idx, noParent, spanOp)
		defer t.close(id, 0)
		inst, err := insts.get(t, idx, id, expt.InstanceConfig{Dataset: serveDataset, Scale: serveScale, Seed: seed})
		if err != nil {
			return opRecord{err: err}
		}
		sess := cache.Begin(inst.G, inst.Part, diffusion.IC, seed)
		o, err := tracedSolve(ctx, t, idx, id, solveRequest{inst: inst, alg: expt.AlgUBG, k: serveK, seed: seed, sess: sess})
		if err == nil {
			err = o.ans.check(serveK, inst.G.NumNodes())
		}
		mu.Lock()
		outcomes[idx] = o
		mu.Unlock()
		return opRecord{ans: o.ans, err: err}
	})
	// serve.overhead_s: HTTP latency minus the library latency of the
	// same request, paired by sequence index.
	lib := make(map[int]float64, len(traced.ops))
	for _, op := range traced.ops {
		lib[op.idx] = op.latency
	}
	var diffs []float64
	for _, op := range ph.okOps() {
		if l, ok := lib[op.idx]; ok {
			diffs = append(diffs, op.latency-l)
		}
	}
	rep.add("serve.overhead_s", "s", median(diffs), fmt.Sprintf("%d paired requests", len(diffs)))
	return traced, outcomes, nil
}

func (b *serveBench) layerCounters(ph *phase, rep *report) {
	var hits, misses []float64
	for _, op := range ph.okOps() {
		switch op.hit {
		case 1:
			hits = append(hits, op.latency)
		case -1:
			misses = append(misses, op.latency)
		}
	}
	rep.add("poolcache.hit_latency_p50_s", "s", median(hits), fmt.Sprintf("%d requests whose key had completed before", len(hits)))
	rep.add("poolcache.miss_latency_p50_s", "s", median(misses), fmt.Sprintf("%d first requests for a key", len(misses)))
	cacheCounters(b.stats0, b.stats1, len(ph.okOps()), rep)
	shed, c4, c5 := 0, 0, 0
	for code, n := range b.status {
		switch {
		case code == http.StatusTooManyRequests:
			shed += n
			c4 += n
		case code >= 400 && code < 500:
			c4 += n
		case code >= 500:
			c5 += n
		}
	}
	rep.add("serve.shed", "count", float64(shed), "429 responses")
	rep.add("serve.errors_4xx", "count", float64(c4), "")
	rep.add("serve.errors_5xx", "count", float64(c5), "")
}

// cacheCounters reports the pool cache's counters over a phase.
func cacheCounters(s0, s1 poolcache.Stats, ops int, rep *report) {
	lookups := (s1.Hits - s0.Hits) + (s1.Misses - s0.Misses)
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(s1.Hits-s0.Hits) / float64(lookups)
	}
	rep.add("poolcache.hit_ratio", "ratio", ratio, fmt.Sprintf("%d of %d sessions hit", s1.Hits-s0.Hits, lookups))
	rep.add("poolcache.saves", "count", float64(s1.Saves-s0.Saves)/float64(max(ops, 1)), "per op")
	perEntry := 0.0
	if s1.Entries > 0 {
		perEntry = float64(s1.Bytes) / float64(s1.Entries)
	}
	rep.add("poolcache.bytes", "bytes", perEntry, fmt.Sprintf("mean snapshot size over %d entries", s1.Entries))
	rep.add("poolcache.errors", "count", float64(s1.Errors-s0.Errors), "")
}
