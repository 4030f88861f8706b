package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"

	"imc/internal/community"
	"imc/internal/graph"
	"imc/internal/job"
	"imc/internal/poolcache"
	"imc/internal/ric"
)

// BuildFunc rebuilds the (graph, partition) an InstanceSpec names. The
// builder is injected — usually a thin wrapper over the experiment
// harness — so this package stays independent of how instances are
// constructed and tests can substitute cheap fixtures.
type BuildFunc func(spec InstanceSpec) (*graph.Graph, *community.Partition, error)

// WorkerConfig assembles a Worker.
type WorkerConfig struct {
	// Build rebuilds instances from specs. Required.
	Build BuildFunc
	// Cache, when set, persists generated ranges as content-addressed
	// shard entries (poolcache.KeyForShard), so repeated and
	// post-restart requests are served from disk instead of
	// regenerated. Nil disables persistence — every request generates.
	Cache *poolcache.Cache
	// LedgerPath, when non-empty, opens an append-only journal (the
	// same JSONL format as the async job store) recording each
	// completed generation, so a restarted worker can report
	// exactly-once completions even for ranges the cache has evicted.
	LedgerPath string
	// Logger may be nil (discards to slog.Default).
	Logger *slog.Logger
}

// Worker serves shard ranges over HTTP. It is stateless beyond its
// instance cache, pool cache, and ledger: any request can be answered
// from scratch because generation is deterministic per (identity,
// range), which is what makes worker restarts and range reassignment
// safe without coordination.
type Worker struct {
	build  BuildFunc        //imc:guardedby immutable
	cache  *poolcache.Cache //imc:guardedby immutable
	logger *slog.Logger     //imc:guardedby immutable
	led    *ledger          //imc:guardedby immutable

	mu sync.Mutex
	// instances holds built (graph, partition) pairs per spec, with one
	// in-flight build slot each (singleflight): concurrent requests for
	// the same spec wait on the first build instead of duplicating it.
	instances map[string]*instanceSlot //imc:guardedby mu
}

// instanceSlot is one singleflight build. g, part, and err are written
// exactly once before done closes; the close publishes them.
type instanceSlot struct {
	done chan struct{}
	g    *graph.Graph
	part *community.Partition
	err  error
}

// NewWorker builds a Worker. The ledger file is opened (and its torn
// tail truncated) immediately, so replay errors surface at boot.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("shard: WorkerConfig.Build is required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	w := &Worker{
		build:     cfg.Build,
		cache:     cfg.Cache,
		logger:    cfg.Logger,
		instances: make(map[string]*instanceSlot),
	}
	if cfg.LedgerPath != "" {
		led, err := openLedger(cfg.LedgerPath)
		if err != nil {
			return nil, err
		}
		w.led = led
	}
	return w, nil
}

// Close releases the ledger journal (if any).
func (w *Worker) Close() error {
	if w.led == nil {
		return nil
	}
	return w.led.close()
}

// Routes mounts the worker endpoints on mux.
func (w *Worker) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET "+PingPath, w.handlePing)
	mux.HandleFunc("POST "+GeneratePath, w.handleGenerate)
	mux.HandleFunc("POST "+PoolPath, w.handlePool)
}

func (w *Worker) handlePing(rw http.ResponseWriter, _ *http.Request) {
	writeShardJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
}

func (w *Worker) handleGenerate(rw http.ResponseWriter, r *http.Request) {
	var req GenRequest
	if err := decodeGenRequest(r, &req); err != nil {
		writeShardError(rw, http.StatusBadRequest, err)
		return
	}
	pool, cached, ledgered, err := w.ensureRange(r, req)
	if err != nil {
		writeShardError(rw, http.StatusInternalServerError, err)
		return
	}
	writeShardJSON(rw, http.StatusOK, GenResponse{
		Lo: req.Lo, Hi: req.Hi,
		Samples: pool.NumSamples(), Cached: cached, Ledgered: ledgered,
	})
}

func (w *Worker) handlePool(rw http.ResponseWriter, r *http.Request) {
	var req GenRequest
	if err := decodeGenRequest(r, &req); err != nil {
		writeShardError(rw, http.StatusBadRequest, err)
		return
	}
	pool, _, _, err := w.ensureRange(r, req)
	if err != nil {
		writeShardError(rw, http.StatusInternalServerError, err)
		return
	}
	var buf bytes.Buffer
	if err := pool.ExportRange(&buf, req.Lo, req.Hi); err != nil {
		writeShardError(rw, http.StatusInternalServerError, err)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	if err := WriteFrame(rw, buf.Bytes()); err != nil {
		// Headers are gone; all we can do is log and drop the connection.
		w.logger.Warn("shard pool response failed", "err", err)
	}
}

// decodeGenRequest decodes and validates a /shard/generate or
// /shard/pool body. Every error it returns is the client's, so the
// handlers answer 400 before ensureRange does any work.
func decodeGenRequest(r *http.Request, req *GenRequest) error {
	if err := decodeShardJSON(r, req); err != nil {
		return err
	}
	return req.validate()
}

// ensureRange returns a pool holding exactly global samples [Lo, Hi),
// served from the shard cache when possible and generated (then cached
// and ledgered) otherwise. Deterministic streams make the two paths
// byte-identical, so "cached" is an economics flag, not a semantic one.
// req must have passed validate.
func (w *Worker) ensureRange(r *http.Request, req GenRequest) (pool *ric.Pool, cached, ledgered bool, err error) {
	g, part, err := w.instance(req.Instance)
	if err != nil {
		return nil, false, false, err
	}
	model, err := req.Instance.model()
	if err != nil {
		return nil, false, false, err
	}
	opts := ric.PoolOptions{Model: model, Seed: req.PoolSeed, Offset: req.Lo}
	pool, err = ric.NewPool(g, part, opts)
	if err != nil {
		return nil, false, false, err
	}
	base := poolcache.KeyFor(g, part, model, req.PoolSeed)
	ledgered = w.led.has(base.String(), req.Lo, req.Hi)
	if w.cache != nil {
		found, lerr := w.cache.LoadShard(base, pool, req.Lo, req.Hi)
		if lerr != nil {
			// A post-import mismatch leaves the pool mutated; rebuild it
			// before generating from scratch.
			w.logger.Warn("shard cache load failed", "err", lerr)
			if pool, err = ric.NewPool(g, part, opts); err != nil {
				return nil, false, false, err
			}
		} else if found {
			return pool, true, ledgered, nil
		}
	}
	if err := pool.EnsureCtx(r.Context(), req.Hi-req.Lo); err != nil {
		return nil, false, false, err
	}
	if w.cache != nil {
		if err := w.cache.SaveShard(base, pool, req.Lo, req.Hi); err != nil {
			w.logger.Warn("shard cache save failed", "err", err)
		}
	}
	if err := w.led.record(base.String(), req.Lo, req.Hi); err != nil {
		w.logger.Warn("shard ledger append failed", "err", err)
	}
	return pool, false, ledgered, nil
}

// instance returns the built (graph, partition) for spec, building at
// most once per spec (singleflight; concurrent requests wait).
func (w *Worker) instance(spec InstanceSpec) (*graph.Graph, *community.Partition, error) {
	key := spec.key()
	w.mu.Lock()
	if slot, ok := w.instances[key]; ok {
		w.mu.Unlock()
		<-slot.done
		return slot.g, slot.part, slot.err
	}
	slot := &instanceSlot{done: make(chan struct{})}
	w.instances[key] = slot
	w.mu.Unlock()

	slot.g, slot.part, slot.err = w.build(spec)
	if slot.err != nil {
		// Failed builds are not cached: a transient failure should not
		// poison the spec forever.
		w.mu.Lock()
		delete(w.instances, key)
		w.mu.Unlock()
	}
	close(slot.done)
	return slot.g, slot.part, slot.err
}

// ledger is the worker's exactly-once receipt book: one JSONL record
// per completed range generation, on the job store's journal machinery
// (torn-tail truncation, fsync-per-append). A nil *ledger is valid and
// records nothing.
type ledger struct {
	mu   sync.Mutex
	jl   *job.Journal    //imc:guardedby mu
	done map[string]bool //imc:guardedby mu
}

// ledgerRecord is one completed generation.
type ledgerRecord struct {
	Op  string `json:"op"` // always "shard-generate"
	Key string `json:"key"`
	Lo  int    `json:"lo"`
	Hi  int    `json:"hi"`
}

const ledgerOp = "shard-generate"

func ledgerKey(key string, lo, hi int) string {
	return fmt.Sprintf("%s:%d:%d", key, lo, hi)
}

// openLedger replays the journal (stopping at any torn or foreign
// tail) and opens it for appending at the last intact byte.
func openLedger(path string) (*ledger, error) {
	done := make(map[string]bool)
	intact, err := job.ReplayJournal(path, func(line json.RawMessage) (bool, error) {
		var rec ledgerRecord
		if json.Unmarshal(line, &rec) != nil || rec.Op != ledgerOp {
			return false, nil
		}
		done[ledgerKey(rec.Key, rec.Lo, rec.Hi)] = true
		return true, nil
	})
	if err != nil {
		return nil, fmt.Errorf("shard: replay ledger: %w", err)
	}
	jl, err := job.OpenJournalAt(path, intact)
	if err != nil {
		return nil, fmt.Errorf("shard: open ledger: %w", err)
	}
	return &ledger{jl: jl, done: done}, nil
}

func (l *ledger) has(key string, lo, hi int) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done[ledgerKey(key, lo, hi)]
}

func (l *ledger) record(key string, lo, hi int) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := ledgerKey(key, lo, hi)
	if l.done[k] {
		return nil
	}
	//lint:allow lockheld: mu exists to serialize the journal fsync with the dedupe map; a record is one append per generated range, and nothing hot ever waits on it
	if err := l.jl.Append(ledgerRecord{Op: ledgerOp, Key: key, Lo: lo, Hi: hi}); err != nil {
		return err
	}
	l.done[k] = true
	return nil
}

func (l *ledger) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	//lint:allow lockheld: shutdown-only path; holding mu across the final flush keeps a racing record from appending to a closed journal
	return l.jl.Close()
}

func decodeShardJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("shard: decode request: %w", err)
	}
	return nil
}

func writeShardJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeShardError(rw http.ResponseWriter, status int, err error) {
	writeShardJSON(rw, status, map[string]string{"error": err.Error()})
}
