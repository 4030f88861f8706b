package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imc/internal/expt"
)

func solveBody(t *testing.T) []byte {
	t.Helper()
	raw, err := json.Marshal(SolveRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1},
		Alg:             "MAF",
		K:               3,
		MaxSamples:      1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func decodeErrorKind(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decode error body %q: %v", body, err)
	}
	return e.Kind
}

// TestSolveTimeoutReturns503 pins the deadline path: with a
// sub-microsecond solve timeout the kernel's first ctx poll fires and
// the handler must answer 503 with the timeout kind.
func TestSolveTimeoutReturns503(t *testing.T) {
	ts := httptest.NewServer(NewWithOptions(nil, nil, Config{
		SolveTimeout: time.Nanosecond,
		MaxInflight:  4,
	}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(solveBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, buf.String())
	}
	if kind := decodeErrorKind(t, buf.Bytes()); kind != kindTimeout {
		t.Fatalf("kind %q, want %q", kind, kindTimeout)
	}
}

// TestCancelMidSolveReturns503 cancels the request context while the
// handler is inside the instance build, then asserts the handler
// answers 503 promptly AND the semaphore slot is released — a
// disconnected client must not leak capacity. The build is gated on
// channels so the cancellation point is deterministic.
func TestCancelMidSolveReturns503(t *testing.T) {
	s := NewWithOptions(nil, nil, Config{MaxInflight: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	realBuild := s.buildInstance
	s.buildInstance = func(cfg expt.InstanceConfig) (*expt.Instance, error) {
		close(started)
		<-release
		return realBuild(cfg)
	}
	h := s.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(done)
	}()
	<-started // the handler holds the only in-flight slot and is mid-build
	cancel()
	close(release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not return after cancellation")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", rec.Code, rec.Body.String())
	}
	if kind := decodeErrorKind(t, rec.Body.Bytes()); kind != kindCanceled {
		t.Fatalf("kind %q, want %q", kind, kindCanceled)
	}

	// The slot must be free again: a fresh request (cache hit now, the
	// gated build still completed and was cached) solves end to end.
	rec2 := httptest.NewRecorder()
	req2 := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t)))
	h.ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("follow-up status %d, want 200 (slot leaked?); body %s", rec2.Code, rec2.Body.String())
	}
}

// TestLoadShedding pins the 429 contract: with every in-flight slot
// occupied a heavy request is shed immediately with Retry-After, and
// admitted again once a slot frees.
func TestLoadShedding(t *testing.T) {
	s := NewWithOptions(nil, nil, Config{MaxInflight: 1})
	h := s.Handler()
	s.inflight <- struct{}{} // occupy the only slot

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t))))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if kind := decodeErrorKind(t, rec.Body.Bytes()); kind != kindOverloaded {
		t.Fatalf("kind %q, want %q", kind, kindOverloaded)
	}

	<-s.inflight // free the slot
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(solveBody(t))))
	if rec2.Code != http.StatusOK {
		t.Fatalf("post-shed status %d, want 200; body %s", rec2.Code, rec2.Body.String())
	}
}

// TestSingleflightConcurrentMisses pins the dogpile fix: N concurrent
// misses on one cache key must run exactly one build.
func TestSingleflightConcurrentMisses(t *testing.T) {
	s := New(nil)
	var builds atomic.Int64
	release := make(chan struct{})
	realBuild := s.buildInstance
	s.buildInstance = func(cfg expt.InstanceConfig) (*expt.Instance, error) {
		builds.Add(1)
		<-release
		return realBuild(cfg)
	}
	req := InstanceRequest{Dataset: "facebook", Scale: 0.03, Seed: 5}
	const workers = 8
	insts := make([]*expt.Instance, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			insts[w], errs[w] = s.instance(context.Background(), req)
		}(w)
	}
	// Let every goroutine reach the builder or its wait channel, then
	// let the single build finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if insts[w] != insts[0] {
			t.Fatalf("worker %d got a different instance pointer", w)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want exactly 1", got)
	}
}

// TestSingleflightWaiterHonorsContext: a waiter blocked behind another
// request's build must abandon the wait when its own context dies.
func TestSingleflightWaiterHonorsContext(t *testing.T) {
	s := New(nil)
	release := make(chan struct{})
	realBuild := s.buildInstance
	started := make(chan struct{})
	s.buildInstance = func(cfg expt.InstanceConfig) (*expt.Instance, error) {
		close(started)
		<-release
		return realBuild(cfg)
	}
	req := InstanceRequest{Dataset: "facebook", Scale: 0.03, Seed: 6}
	go func() {
		_, _ = s.instance(context.Background(), req) // builder
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.instance(ctx, req); err != context.Canceled {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestMetricsCardinalityBounded pins the 404-flood fix: unregistered
// paths collapse into the "other" bucket instead of growing the
// counter maps without bound.
func TestMetricsCardinalityBounded(t *testing.T) {
	ts := newTestServer(t)
	const flood = 40
	for i := 0; i < flood; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/scan-%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("scan path status %d, want 404", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["other"] < flood {
		t.Fatalf("other requests = %d, want ≥ %d", m.Requests["other"], flood)
	}
	if m.Errors4xx["other"] < flood {
		t.Fatalf("other 4xx = %d, want ≥ %d", m.Errors4xx["other"], flood)
	}
	maxKeys := len(routes) + 1 // registered routes + "other"
	if len(m.Requests) > maxKeys {
		t.Fatalf("requests map has %d keys (cardinality leak): %v", len(m.Requests), m.Requests)
	}
	for key := range m.Requests {
		if key != "other" && !routes[key] {
			t.Fatalf("unexpected counter key %q", key)
		}
	}
}

// TestSolverValidationIs4xx pins that options the solver rejects are
// the client's mistake: 400 with the validation kind, counted in
// Errors4xx — never a 500.
func TestSolverValidationIs4xx(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"k past node count", `{"dataset":"karate","scale":1,"k":1000}`},
		{"eps out of range", `{"dataset":"karate","scale":1,"k":2,"eps":1.5}`},
		{"negative delta", `{"dataset":"karate","scale":1,"k":2,"delta":-0.5}`},
		{"scale above 1", `{"dataset":"karate","scale":5,"k":2}`},
		{"negative scale", `{"dataset":"karate","scale":-0.5,"k":2}`},
		{"scale just past 1", `{"dataset":"karate","scale":1.0000001,"k":2}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, buf.Bytes())
			}
			if kind := decodeErrorKind(t, buf.Bytes()); kind != kindValidation {
				t.Fatalf("kind %q, want %q", kind, kindValidation)
			}
		})
	}
	var m Metrics
	if status, body := doJSON(t, "GET", ts.URL+"/metrics", nil, nil, &m); status != http.StatusOK {
		t.Fatalf("metrics status %d: %s", status, body)
	}
	if m.Errors4xx["/solve"] != int64(len(cases)) || m.Errors5xx["/solve"] != 0 {
		t.Fatalf("solve 4xx = %d, 5xx = %d; want %d, 0", m.Errors4xx["/solve"], m.Errors5xx["/solve"], len(cases))
	}
}

// TestErrorClassSplit pins the 4xx/5xx metrics split: a validation
// error lands in Errors4xx, a timeout in Errors5xx, and both appear in
// the combined Errors map.
func TestErrorClassSplit(t *testing.T) {
	ts := httptest.NewServer(NewWithOptions(nil, nil, Config{
		SolveTimeout: time.Nanosecond,
		MaxInflight:  4,
	}).Handler())
	defer ts.Close()
	// 400: validation.
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader([]byte(`{"k":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("validation status %d", resp.StatusCode)
	}
	// 503: timeout.
	resp, err = http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(solveBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timeout status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Errors4xx["/solve"] != 1 {
		t.Fatalf("solve 4xx = %d, want 1", m.Errors4xx["/solve"])
	}
	if m.Errors5xx["/solve"] != 1 {
		t.Fatalf("solve 5xx = %d, want 1", m.Errors5xx["/solve"])
	}
	if m.Errors["/solve"] != 2 {
		t.Fatalf("solve combined errors = %d, want 2", m.Errors["/solve"])
	}
}
