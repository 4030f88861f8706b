package job

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"testing"
	"time"

	"imc/internal/community"
	"imc/internal/core"
	"imc/internal/expt"
	"imc/internal/gen"
	"imc/internal/poolcache"
)

// testBuildInstance is the pool tests' BuildInstance seam: a small
// random instance keyed by the spec seed, so tests never touch the
// dataset registry.
func testBuildInstance(cfg expt.InstanceConfig) (*expt.Instance, error) {
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

func newTestPool(t *testing.T, s *Store) *Pool {
	t.Helper()
	return newCachedTestPool(t, s, nil)
}

// newCachedTestPool is newTestPool with a pool cache wired (nil means
// none).
func newCachedTestPool(t *testing.T, s *Store, cache *poolcache.Cache) *Pool {
	t.Helper()
	return NewPool(s, PoolOptions{
		Workers:       2,
		Log:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		BuildInstance: testBuildInstance,
		PoolCache:     cache,
	})
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Store, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return nil
}

func shutdownPool(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRunsJobToCompletion(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	j, _, err := s.Submit(testSpec(21), "")
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPool(t, s)
	p.Start()
	defer shutdownPool(t, p)

	done := waitTerminal(t, s, j.ID)
	if done.State != StateSucceeded {
		t.Fatalf("state %s (%s), want succeeded", done.State, done.Error)
	}
	if done.Checkpoint == nil || done.Checkpoint.Samples < 1 {
		t.Fatalf("no checkpoint recorded: %+v", done.Checkpoint)
	}
	res, err := s.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != j.Spec.K || res.Benefit <= 0 || res.TotalBenefit <= 0 {
		t.Fatalf("implausible result %+v", res)
	}
	if res.Instance != "test/random" || res.Alg != expt.AlgUBG {
		t.Fatalf("result labels %q/%q", res.Instance, res.Alg)
	}
	st := p.Stats()
	if st.States[StateSucceeded] != 1 || st.RunSeconds.Count != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPoolFailsBadJob(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	// K exceeds the 30-node test instance: core rejects it at solve time.
	j, _, err := s.Submit(Spec{Dataset: "test", K: 500, Seed: 4}, "")
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPool(t, s)
	p.Start()
	defer shutdownPool(t, p)

	done := waitTerminal(t, s, j.ID)
	if done.State != StateFailed || done.Error == "" {
		t.Fatalf("state %s (%q), want failed with message", done.State, done.Error)
	}
}

func TestPoolCancelPending(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	j, _, err := s.Submit(testSpec(22), "")
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPool(t, s) // never started: job stays pending
	ok, err := p.Cancel(j.ID)
	if err != nil || !ok {
		t.Fatalf("cancel pending: ok=%v err=%v", ok, err)
	}
	got, err := s.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}
	// Canceling again is a no-op, not an error.
	if ok, err := p.Cancel(j.ID); ok || err != nil {
		t.Fatalf("re-cancel: ok=%v err=%v", ok, err)
	}
	if _, err := p.Cancel("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestPoolCancelRunning(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	j, _, err := s.Submit(testSpec(23), "")
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPool(t, s)
	// Cancel from inside the first checkpoint callback: the solver is
	// mid-run by construction, and SolveCtx re-checks ctx before the next
	// round, so the cancellation lands deterministically.
	fired := false
	p.checkpointHook = func(id string, _ core.Checkpoint) {
		if fired {
			return
		}
		fired = true
		if ok, err := p.Cancel(id); !ok || err != nil {
			t.Errorf("cancel running: ok=%v err=%v", ok, err)
		}
	}
	p.Start()
	defer shutdownPool(t, p)

	done := waitTerminal(t, s, j.ID)
	if done.State != StateCanceled {
		t.Fatalf("state %s (%s), want canceled", done.State, done.Error)
	}
	// The checkpoint taken before the cancel is still on disk, so a
	// hypothetical resubmission could resume — but the canceled job
	// itself never re-runs.
	if done.Checkpoint == nil {
		t.Fatal("checkpoint info lost")
	}
}
