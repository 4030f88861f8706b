package job

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"imc/internal/clock"
	"imc/internal/community"
	"imc/internal/core"
	"imc/internal/expt"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/ric"
)

var testEpoch = time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, clock.Fixed(testEpoch))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func testSpec(seed uint64) Spec {
	return Spec{Dataset: "test", K: 3, Eps: 0.3, Delta: 0.3, Seed: seed, MaxSamples: 1 << 12}
}

func TestSubmitValidatesSpec(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	if _, _, err := s.Submit(Spec{K: 0}, ""); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := s.Submit(Spec{K: 1, Alg: "NOPE"}, ""); err == nil {
		t.Fatal("unknown alg accepted")
	}
	if _, _, err := s.Submit(Spec{K: 1, Model: "sir"}, ""); err == nil {
		t.Fatal("unknown model accepted")
	}
	j, created, err := s.Submit(Spec{K: 1, Alg: "ubg"}, "")
	if err != nil || !created {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if j.Spec.Alg != expt.AlgUBG || j.Spec.Dataset != "facebook" || j.Spec.Scale != 0.1 {
		t.Fatalf("spec not normalized: %+v", j.Spec)
	}
	if j.State != StatePending || j.SubmittedAt != testEpoch {
		t.Fatalf("bad initial job: %+v", j)
	}
}

func TestSubmitIdempotencyKey(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	a, created, err := s.Submit(testSpec(1), "key-1")
	if err != nil || !created {
		t.Fatalf("first submit: %v", err)
	}
	b, created, err := s.Submit(testSpec(2), "key-1") // different spec, same key
	if err != nil {
		t.Fatal(err)
	}
	if created || b.ID != a.ID {
		t.Fatalf("idempotent resubmit created %v (ids %s vs %s)", created, b.ID, a.ID)
	}
	if b.Spec.Seed != 1 {
		t.Fatal("original spec must win on idempotent resubmit")
	}
	c, created, err := s.Submit(testSpec(3), "key-2")
	if err != nil || !created || c.ID == a.ID {
		t.Fatalf("distinct key reused job: %v", err)
	}
}

func TestTransitionsAndResult(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	j, _, err := s.Submit(testSpec(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(j.ID); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("result of pending job: %v", err)
	}
	if err := s.MarkFailed(j.ID, "x"); err == nil {
		t.Fatal("pending→failed allowed")
	}
	if _, err := s.MarkRunning(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MarkRunning(j.ID); err == nil {
		t.Fatal("double claim allowed")
	}
	res := Result{Instance: "test", Alg: "UBG", Seeds: []int32{4, 2}, Benefit: 3.5, TotalBenefit: 30}
	if err := s.MarkSucceeded(j.ID, res); err != nil {
		t.Fatal(err)
	}
	got, err := s.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benefit != res.Benefit || len(got.Seeds) != 2 || got.Seeds[0] != 4 {
		t.Fatalf("result drifted: %+v", got)
	}
	if err := s.CancelPending(j.ID); err == nil {
		t.Fatal("succeeded→canceled allowed")
	}
	if _, err := s.Get("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestReplayRebuildsState(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	a, _, _ := s.Submit(testSpec(1), "k1")
	b, _, _ := s.Submit(testSpec(2), "")
	c, _, _ := s.Submit(testSpec(3), "")
	if _, err := s.MarkRunning(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkSucceeded(a.ID, Result{Alg: "UBG"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MarkRunning(b.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkFailed(b.ID, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := s.CancelPending(c.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir)
	jobs := r.List()
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs", len(jobs))
	}
	if jobs[0].State != StateSucceeded || jobs[1].State != StateFailed || jobs[2].State != StateCanceled {
		t.Fatalf("states drifted: %s %s %s", jobs[0].State, jobs[1].State, jobs[2].State)
	}
	if jobs[1].Error != "boom" {
		t.Fatalf("error lost: %q", jobs[1].Error)
	}
	// Idempotency keys survive replay.
	again, created, err := r.Submit(testSpec(9), "k1")
	if err != nil || created || again.ID != a.ID {
		t.Fatalf("key lost on replay: %v created=%v", err, created)
	}
	// New IDs continue the sequence instead of colliding.
	d, _, err := r.Submit(testSpec(4), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if d.ID == j.ID {
			t.Fatalf("ID %s reused after replay", d.ID)
		}
	}
	// Results are still readable.
	if _, err := r.Result(a.ID); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryReturnsRunningToPending(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	j, _, _ := s.Submit(testSpec(1), "")
	if _, err := s.MarkRunning(j.ID); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no MarkInterrupted, just drop the handle.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir)
	got, err := r.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StatePending || got.Resumes != 1 {
		t.Fatalf("crash recovery: state=%s resumes=%d, want pending/1", got.State, got.Resumes)
	}
	if ids := r.PendingIDs(); len(ids) != 1 || ids[0] != j.ID {
		t.Fatalf("pending IDs %v", ids)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The demotion was journaled, so a second replay agrees without
	// another bump.
	r2 := openTestStore(t, dir)
	got, err = r2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StatePending || got.Resumes != 1 {
		t.Fatalf("second replay: state=%s resumes=%d, want pending/1", got.State, got.Resumes)
	}
}

func TestTornJournalTailIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	j, _, _ := s.Submit(testSpec(1), "")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal.log")
	// A torn append: half a record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"state","id":"` + j.ID + `","state":"succ`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openTestStore(t, dir)
	got, err := r.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StatePending {
		t.Fatalf("torn tail applied: state=%s", got.State)
	}
	// The tail was truncated away: appends after reopen must replay
	// cleanly.
	if _, err := r.MarkRunning(j.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkFailed(j.ID, "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openTestStore(t, dir)
	got, err = r2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed {
		t.Fatalf("post-truncation appends lost: state=%s", got.State)
	}
}

// testTopology builds the small random graph + partition the job tests
// solve on. Keyed by seed so distinct tests get distinct instances.
func testTopology(t *testing.T, seed uint64) (*graph.Graph, *community.Partition) {
	t.Helper()
	g, err := gen.RandomDirected(30, 100, 0.4, seed)
	if err != nil {
		t.Fatal(err)
	}
	part, err := community.Random(30, 6, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	part.SetBoundedThresholds(2)
	part.SetPopulationBenefits()
	return g, part
}

func testPool(t *testing.T, seed uint64, samples int) *ric.Pool {
	t.Helper()
	g, part := testTopology(t, seed)
	pool, err := ric.NewPool(g, part, ric.PoolOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestSaveLoadCheckpoint pins the checkpoint contract: saving journals
// the round and pool size and writes no side file; loading returns
// that round with an empty pool of the job's seed and model, survives
// replay, and reports errNoCheckpoint for a job that never
// checkpointed.
func TestSaveLoadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	j, _, _ := s.Submit(testSpec(5), "")

	g, part := testTopology(t, 5)
	inst := &expt.Instance{Name: "test", G: g, Part: part, Config: j.Spec.InstanceConfig()}
	pool := testPool(t, 5, 64)
	if err := s.SaveCheckpoint(j.ID, core.Checkpoint{Pool: pool, Doublings: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint == nil || got.Checkpoint.Doublings != 2 || got.Checkpoint.Samples != 64 {
		t.Fatalf("checkpoint info %+v", got.Checkpoint)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "journal.log" {
		t.Fatalf("checkpoint wrote more than the journal: %v", names)
	}

	// Checkpoint info survives replay, and the restored round comes
	// back with an empty pool for the solve to grow.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestStore(t, dir)
	got, err = r.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint == nil || got.Checkpoint.Doublings != 2 {
		t.Fatalf("checkpoint info lost on replay: %+v", got.Checkpoint)
	}
	cp, err := r.LoadCheckpoint(j.ID, inst)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Doublings != 2 || cp.Pool.NumSamples() != 0 || cp.Pool.Seed() != j.Spec.Seed || cp.Pool.Model() != j.Spec.model() {
		t.Fatalf("restored doublings=%d samples=%d seed=%d model=%v",
			cp.Doublings, cp.Pool.NumSamples(), cp.Pool.Seed(), cp.Pool.Model())
	}

	// A job that never checkpointed reports the sentinel; an unknown
	// one is not found.
	fresh, _, _ := r.Submit(testSpec(6), "")
	if _, err := r.LoadCheckpoint(fresh.ID, inst); !errors.Is(err, errNoCheckpoint) {
		t.Fatalf("want errNoCheckpoint, got %v", err)
	}
	if _, err := r.LoadCheckpoint("j99999999", inst); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// dirNames lists the file names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
