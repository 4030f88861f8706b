package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"imc/internal/community"
	"imc/internal/expt"
	"imc/internal/gen"
	"imc/internal/job"
)

// testJobInstance is the job pool's BuildInstance seam for these
// tests: a small random instance so job runs finish in milliseconds.
func testJobInstance(cfg expt.InstanceConfig) (*expt.Instance, error) {
	g, err := gen.RandomDirected(30, 100, 0.4, cfg.Seed)
	if err != nil {
		return nil, err
	}
	part, err := community.Random(30, 6, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return &expt.Instance{Name: "test/random", G: g, Part: part, Config: cfg}, nil
}

// newJobTestServer wires a server to a fresh store + pool. When start
// is false the pool never runs, so submitted jobs stay pending — the
// handle for testing pre-execution states.
func newJobTestServer(t *testing.T, start bool) *httptest.Server {
	t.Helper()
	store, err := job.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := job.NewPool(store, job.PoolOptions{
		Workers:       1,
		Log:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		BuildInstance: testJobInstance,
	})
	if start {
		pool.Start()
	}
	srv := NewWithOptions(nil, nil, Config{MaxInflight: 64, JobStore: store, JobPool: pool})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if start {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := pool.Shutdown(ctx); err != nil {
				t.Error(err)
			}
		}
		store.Close()
	})
	return ts
}

// doJSON issues a request with an optional JSON body and decodes any
// 2xx reply into out.
func doJSON(t *testing.T, method, url string, headers map[string]string, body, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func testJobSpec(seed uint64) job.Spec {
	return job.Spec{Dataset: "test", K: 3, Eps: 0.3, Delta: 0.3, Seed: seed, MaxSamples: 1 << 12}
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	ts := newJobTestServer(t, true)

	var created job.Job
	status, body := doJSON(t, "POST", ts.URL+"/v1/jobs", nil, JobSubmitRequest{Spec: testJobSpec(31)}, &created)
	if status != http.StatusCreated {
		t.Fatalf("submit status %d: %s", status, body)
	}
	if created.ID == "" || created.State != job.StatePending {
		t.Fatalf("created job %+v", created)
	}

	deadline := time.Now().Add(60 * time.Second)
	var got job.Job
	for {
		status, body = doJSON(t, "GET", ts.URL+"/v1/jobs/"+created.ID, nil, nil, &got)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		if got.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.State != job.StateSucceeded {
		t.Fatalf("state %s (%s)", got.State, got.Error)
	}
	if got.Checkpoint == nil {
		t.Fatal("job finished without any checkpoint")
	}

	var res job.Result
	status, body = doJSON(t, "GET", ts.URL+"/v1/jobs/"+created.ID+"/result", nil, nil, &res)
	if status != http.StatusOK {
		t.Fatalf("result status %d: %s", status, body)
	}
	if len(res.Seeds) != 3 || res.Benefit <= 0 {
		t.Fatalf("implausible result %+v", res)
	}

	var list []job.Job
	if status, body = doJSON(t, "GET", ts.URL+"/v1/jobs", nil, nil, &list); status != http.StatusOK {
		t.Fatalf("list status %d: %s", status, body)
	}
	if len(list) != 1 || list[0].ID != created.ID {
		t.Fatalf("list %+v", list)
	}
}

func TestJobSubmitIdempotencyKey(t *testing.T) {
	ts := newJobTestServer(t, false)
	hdr := map[string]string{"Idempotency-Key": "abc"}

	var first job.Job
	status, body := doJSON(t, "POST", ts.URL+"/v1/jobs", hdr, JobSubmitRequest{Spec: testJobSpec(1)}, &first)
	if status != http.StatusCreated {
		t.Fatalf("first submit status %d: %s", status, body)
	}
	var second job.Job
	status, body = doJSON(t, "POST", ts.URL+"/v1/jobs", hdr, JobSubmitRequest{Spec: testJobSpec(2)}, &second)
	if status != http.StatusOK {
		t.Fatalf("resubmit status %d: %s", status, body)
	}
	if second.ID != first.ID || second.Spec.Seed != 1 {
		t.Fatalf("idempotency broken: %+v vs %+v", second, first)
	}
	// The body "key" field works too.
	var third job.Job
	status, _ = doJSON(t, "POST", ts.URL+"/v1/jobs", nil, JobSubmitRequest{Spec: testJobSpec(3), Key: "abc"}, &third)
	if status != http.StatusOK || third.ID != first.ID {
		t.Fatalf("body key ignored: status %d, id %s", status, third.ID)
	}
}

func TestJobValidationAndNotFound(t *testing.T) {
	ts := newJobTestServer(t, false)
	for _, tc := range []struct {
		name string
		spec job.Spec
	}{
		{"k=0", job.Spec{K: 0}},
		{"eps=1.5", job.Spec{K: 3, Eps: 1.5}},
		{"delta=-0.5", job.Spec{K: 3, Delta: -0.5}},
	} {
		if status, body := doJSON(t, "POST", ts.URL+"/v1/jobs", nil, JobSubmitRequest{Spec: tc.spec}, nil); status != http.StatusBadRequest {
			t.Fatalf("%s status %d: %s", tc.name, status, body)
		}
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/j99999999", nil, nil, nil); status != http.StatusNotFound {
		t.Fatalf("unknown job status %d", status)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/j99999999/result", nil, nil, nil); status != http.StatusNotFound {
		t.Fatalf("unknown result status %d", status)
	}
	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/j99999999", nil, nil, nil); status != http.StatusNotFound {
		t.Fatalf("unknown cancel status %d", status)
	}
}

func TestJobResultConflictBeforeSuccess(t *testing.T) {
	ts := newJobTestServer(t, false) // pool never runs: job stays pending
	var created job.Job
	if status, body := doJSON(t, "POST", ts.URL+"/v1/jobs", nil, JobSubmitRequest{Spec: testJobSpec(5)}, &created); status != http.StatusCreated {
		t.Fatalf("submit status %d: %s", status, body)
	}
	status, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+created.ID+"/result", nil, nil, nil)
	if status != http.StatusConflict {
		t.Fatalf("pending result status %d: %s", status, body)
	}
}

func TestJobCancelOverHTTP(t *testing.T) {
	ts := newJobTestServer(t, false)
	var created job.Job
	if status, body := doJSON(t, "POST", ts.URL+"/v1/jobs", nil, JobSubmitRequest{Spec: testJobSpec(6)}, &created); status != http.StatusCreated {
		t.Fatalf("submit status %d: %s", status, body)
	}
	var after job.Job
	if status, body := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+created.ID, nil, nil, &after); status != http.StatusOK {
		t.Fatalf("cancel status %d: %s", status, body)
	}
	if after.State != job.StateCanceled {
		t.Fatalf("state %s, want canceled", after.State)
	}
}

func TestJobEndpointsAbsentWhenNotConfigured(t *testing.T) {
	ts := newTestServer(t) // no job store wired
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", nil, JobSubmitRequest{Spec: testJobSpec(1)}, nil); status != http.StatusNotFound {
		t.Fatalf("jobs-disabled submit status %d", status)
	}
	// /metrics omits the jobs section entirely.
	var m Metrics
	if status, body := doJSON(t, "GET", ts.URL+"/metrics", nil, nil, &m); status != http.StatusOK {
		t.Fatalf("metrics status %d: %s", status, body)
	}
	if m.Jobs != nil {
		t.Fatalf("jobs section present without a store: %+v", m.Jobs)
	}
}

func TestMetricsLatencyHistogramAndJobs(t *testing.T) {
	ts := newJobTestServer(t, true)
	var solve SolveResponse
	status, body := postJSON(t, ts.URL+"/solve", SolveRequest{
		InstanceRequest: InstanceRequest{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1},
		Alg:             "HBC",
		K:               3,
	}, &solve)
	if status != http.StatusOK {
		t.Fatalf("solve status %d: %s", status, body)
	}

	var m Metrics
	if status, body := doJSON(t, "GET", ts.URL+"/metrics", nil, nil, &m); status != http.StatusOK {
		t.Fatalf("metrics status %d: %s", status, body)
	}
	lat, ok := m.LatencySeconds["/solve"]
	if !ok {
		t.Fatalf("no /solve latency histogram: %+v", m.LatencySeconds)
	}
	if lat.Count != 1 || len(lat.Buckets) == 0 {
		t.Fatalf("latency snapshot %+v", lat)
	}
	// Cumulative buckets are monotone and end at Count (nothing here
	// takes 2 minutes).
	prev := int64(0)
	for _, b := range lat.Buckets {
		if b.Count < prev {
			t.Fatalf("bucket counts not monotone: %+v", lat.Buckets)
		}
		prev = b.Count
	}
	if prev != lat.Count {
		t.Fatalf("last bucket %d != count %d", prev, lat.Count)
	}
	if m.Jobs == nil {
		t.Fatal("jobs section missing")
	}
	if m.Jobs.QueueDepth != 0 || m.Jobs.Running != 0 {
		t.Fatalf("idle pool reports work: %+v", m.Jobs)
	}
}
