package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"imc/internal/community"
	"imc/internal/diffusion"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/poolcache"
	"imc/internal/ric"
)

// testBuild is the injected instance builder for tests: cheap,
// deterministic in spec.Seed, and independent across calls — two
// workers building the same spec get equal (not shared) objects,
// exactly like two real processes.
func testBuild(spec InstanceSpec) (*graph.Graph, *community.Partition, error) {
	g, err := gen.RandomDirected(25, 80, 0.5, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	part, err := community.Random(25, 5, spec.Seed+1)
	if err != nil {
		return nil, nil, err
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part, nil
}

var testSpec = InstanceSpec{Dataset: "test", Scale: 1, Seed: 7}

// newTestWorker builds a worker over testBuild with a cache and ledger
// rooted at dir ("" disables both).
func newTestWorker(t *testing.T, dir string) *Worker {
	t.Helper()
	cfg := WorkerConfig{Build: testBuild}
	if dir != "" {
		cache, err := poolcache.Open(filepath.Join(dir, "cache"), poolcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
		cfg.LedgerPath = filepath.Join(dir, "ledger.jsonl")
	}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func serveWorker(t *testing.T, w *Worker) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	w.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func postJSONT(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func fetchGen(t *testing.T, base string, req GenRequest) GenResponse {
	t.Helper()
	resp := postJSONT(t, base+GeneratePath, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate returned %s", resp.Status)
	}
	var out GenResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func fetchPool(t *testing.T, base string, req GenRequest) []byte {
	t.Helper()
	resp := postJSONT(t, base+PoolPath, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pool returned %s", resp.Status)
	}
	data, err := ReadFrame(resp.Body, maxPoolFrame)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// localExport generates [lo, hi) in-process and returns its IMCS bytes
// — the reference a worker's wire payload must equal.
func localExport(t *testing.T, lo, hi int, poolSeed uint64) []byte {
	t.Helper()
	g, part, err := testBuild(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ric.NewPool(g, part, ric.PoolOptions{Seed: poolSeed, Offset: lo})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureCtx(context.Background(), hi-lo); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.ExportRange(&buf, lo, hi); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkerPoolMatchesLocalGeneration: the wire payload is the exact
// IMCS export a local offset pool produces, and a second request is a
// cache hit serving the same bytes.
func TestWorkerPoolMatchesLocalGeneration(t *testing.T) {
	ts := serveWorker(t, newTestWorker(t, t.TempDir()))
	req := GenRequest{Instance: testSpec, PoolSeed: 42, Lo: 30, Hi: 90}

	first := fetchGen(t, ts.URL, req)
	if first.Cached || first.Ledgered || first.Samples != 60 {
		t.Fatalf("first generate = %+v, want fresh 60-sample range", first)
	}
	second := fetchGen(t, ts.URL, req)
	if !second.Cached || !second.Ledgered {
		t.Fatalf("second generate = %+v, want cached and ledgered", second)
	}

	want := localExport(t, req.Lo, req.Hi, req.PoolSeed)
	if got := fetchPool(t, ts.URL, req); !bytes.Equal(got, want) {
		t.Fatal("worker pool bytes differ from local generation")
	}
}

// TestWorkerRestartResumes: a restarted worker (same cache dir, same
// ledger) reports the range as already generated and serves identical
// bytes — the exactly-once receipt survives the process.
func TestWorkerRestartResumes(t *testing.T) {
	dir := t.TempDir()
	req := GenRequest{Instance: testSpec, PoolSeed: 11, Lo: 0, Hi: 50}

	w1 := newTestWorker(t, dir)
	ts1 := serveWorker(t, w1)
	before := fetchPool(t, ts1.URL, req)
	ts1.Close()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2 := serveWorker(t, newTestWorker(t, dir))
	resumed := fetchGen(t, ts2.URL, req)
	if !resumed.Cached || !resumed.Ledgered {
		t.Fatalf("restarted worker = %+v, want cached and ledgered", resumed)
	}
	if after := fetchPool(t, ts2.URL, req); !bytes.Equal(before, after) {
		t.Fatal("restarted worker serves different bytes")
	}
}

// TestWorkerWithoutDurability: no cache, no ledger — every request
// regenerates, and the bytes are still identical (determinism does not
// depend on persistence).
func TestWorkerWithoutDurability(t *testing.T) {
	ts := serveWorker(t, newTestWorker(t, ""))
	req := GenRequest{Instance: testSpec, PoolSeed: 42, Lo: 10, Hi: 40}
	if out := fetchGen(t, ts.URL, req); out.Cached || out.Ledgered {
		t.Fatalf("cacheless worker reported %+v", out)
	}
	if out := fetchGen(t, ts.URL, req); out.Cached || out.Ledgered {
		t.Fatalf("cacheless worker reported %+v on repeat", out)
	}
	if got := fetchPool(t, ts.URL, req); !bytes.Equal(got, localExport(t, req.Lo, req.Hi, req.PoolSeed)) {
		t.Fatal("cacheless worker bytes differ from local generation")
	}
}

// TestWorkerRejectsBadRequests: on both range endpoints, invalid
// ranges, unknown models and unparseable bodies are client mistakes —
// 400 with a JSON error body, never a 5xx and never a panic.
func TestWorkerRejectsBadRequests(t *testing.T) {
	ts := serveWorker(t, newTestWorker(t, ""))
	for _, path := range []string{GeneratePath, PoolPath} {
		for _, tc := range []struct {
			name string
			body []byte
		}{
			{"negative lo", mustJSON(t, GenRequest{Instance: testSpec, Lo: -1, Hi: 10})},
			{"inverted", mustJSON(t, GenRequest{Instance: testSpec, Lo: 5, Hi: 2})},
			{"huge range", mustJSON(t, GenRequest{Instance: testSpec, Lo: 0, Hi: maxRangeWidth + 1})},
			{"unknown model", mustJSON(t, GenRequest{Instance: InstanceSpec{Dataset: "test", Seed: 7, Model: "bogus"}, Lo: 0, Hi: 10})},
			{"malformed body", []byte("{nope")},
		} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var body struct {
				Error string `json:"error"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %s, want 400", path, tc.name, resp.Status)
			}
			if derr != nil || body.Error == "" {
				t.Errorf("%s %s: no JSON error body (decode err %v)", path, tc.name, derr)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLedgerSurvivesTornTail: a torn (partial) final line is truncated
// at open and the earlier receipts still replay.
func TestLedgerSurvivesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	led, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.record("k1", 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := led.close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append.
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"shard-generate","key":"k2`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if !re.has("k1", 0, 50) {
		t.Fatal("intact receipt lost")
	}
	if re.has("k2", 0, 0) {
		t.Fatal("torn receipt replayed")
	}
	if err := re.record("k3", 50, 100); err != nil {
		t.Fatal(err)
	}
	if !re.has("k3", 50, 100) {
		t.Fatal("post-truncation append lost")
	}
}

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// TestDiffusionModelRoundTrips pins that the spec's model string stays
// in sync with the diffusion enum it names.
func TestDiffusionModelRoundTrips(t *testing.T) {
	for _, m := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		got, err := (InstanceSpec{Model: m.String()}).model()
		if err != nil || got != m {
			t.Errorf("model %v round-trips to %v, %v", m, got, err)
		}
	}
	if _, err := (InstanceSpec{Model: fmt.Sprintf("Model(%d)", 9)}).model(); err == nil {
		t.Error("out-of-range model accepted")
	}
}
