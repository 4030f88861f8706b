package job

import (
	"os"
	"testing"
	"time"

	"imc/internal/core"
	"imc/internal/poolcache"
)

// TestInterruptedJobResumesByteIdentical is the subsystem's contract
// test: a job interrupted mid-solve (at a durable checkpoint) and re-run
// by a fresh store + pool — a simulated process restart — must produce
// exactly the result an uninterrupted run produces: same seeds in the
// same order, same benefit. This works because RIC sample i is always
// drawn from PRNG stream i of the job seed, so the checkpoint is only
// the journaled round and the resumed solve regrows that round's pool
// sample for sample. Resume must not depend on the pool cache: the
// result is the same with no cache, with the cache kept across the
// restart (which then supplies the checkpointed samples), and with the
// cache directory wiped between the crash and the restart.
func TestInterruptedJobResumesByteIdentical(t *testing.T) {
	spec := testSpec(41)

	// Baseline: the same spec run start-to-finish with no interruption.
	baseStore := openTestStore(t, t.TempDir())
	baseJob, _, err := baseStore.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	basePool := newTestPool(t, baseStore)
	basePool.Start()
	baseDone := waitTerminal(t, baseStore, baseJob.ID)
	if baseDone.State != StateSucceeded {
		t.Fatalf("baseline state %s (%s)", baseDone.State, baseDone.Error)
	}
	baseline, err := baseStore.Result(baseJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	shutdownPool(t, basePool)
	// Interrupt at the baseline's last round, so a resume past round 0
	// is exercised whenever the solve doubles at all.
	stopAt := baseDone.Checkpoint.Doublings

	cases := []struct {
		name        string
		cache, wipe bool
	}{
		{"no cache", false, false},
		{"cache kept", true, false},
		{"cache wiped", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cacheDir := t.TempDir()
			openCache := func() *poolcache.Cache {
				if !tc.cache {
					return nil
				}
				c, err := poolcache.Open(cacheDir, poolcache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}

			// Interrupted run: the checkpoint at round stopAt "kills the
			// process" — the hook cancels the pool's base context, so the
			// worker classifies the run as interrupted and the job
			// returns to pending.
			dir := t.TempDir()
			s1 := openTestStore(t, dir)
			j1, _, err := s1.Submit(spec, "")
			if err != nil {
				t.Fatal(err)
			}
			p1 := newCachedTestPool(t, s1, openCache())
			p1.checkpointHook = func(_ string, cp core.Checkpoint) {
				if cp.Doublings == stopAt {
					p1.baseCancel()
				}
			}
			p1.Start()

			deadline := time.Now().Add(60 * time.Second)
			for {
				j, err := s1.Get(j1.ID)
				if err != nil {
					t.Fatal(err)
				}
				if j.State == StatePending && j.Resumes == 1 {
					if j.Checkpoint == nil || j.Checkpoint.Doublings != stopAt || j.Checkpoint.Samples < 1 {
						t.Fatalf("interrupted without the round-%d checkpoint: %+v", stopAt, j.Checkpoint)
					}
					break
				}
				if j.State.Terminal() {
					t.Fatalf("job finished as %s instead of being interrupted", j.State)
				}
				if time.Now().After(deadline) {
					t.Fatalf("job never interrupted: %+v", j)
				}
				time.Sleep(5 * time.Millisecond)
			}
			shutdownPool(t, p1)
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.wipe {
				if err := os.RemoveAll(cacheDir); err != nil {
					t.Fatal(err)
				}
			}

			// Restart: fresh store, cache and pool over the same
			// directories. Resume-on-boot enqueues the pending job; the
			// worker restores the journaled round and finishes the solve.
			s2 := openTestStore(t, dir)
			cache := openCache()
			p2 := newCachedTestPool(t, s2, cache)
			p2.Start()
			defer shutdownPool(t, p2)

			done := waitTerminal(t, s2, j1.ID)
			if done.State != StateSucceeded {
				t.Fatalf("resumed state %s (%s)", done.State, done.Error)
			}
			if done.Resumes != 1 {
				t.Fatalf("resumes %d, want 1", done.Resumes)
			}
			if *done.Checkpoint != *baseDone.Checkpoint {
				t.Fatalf("last checkpoint %+v, baseline %+v — resume grew a different pool", *done.Checkpoint, *baseDone.Checkpoint)
			}
			resumed, err := s2.Result(j1.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); tc.cache && !tc.wipe && st.AdoptedSamples == 0 {
				t.Fatalf("kept cache supplied no samples on resume: %+v", st)
			}

			if len(resumed.Seeds) != len(baseline.Seeds) {
				t.Fatalf("seed count %d vs baseline %d", len(resumed.Seeds), len(baseline.Seeds))
			}
			for i := range resumed.Seeds {
				if resumed.Seeds[i] != baseline.Seeds[i] {
					t.Fatalf("seed[%d] = %d, baseline %d — resume diverged", i, resumed.Seeds[i], baseline.Seeds[i])
				}
			}
			if resumed.Benefit != baseline.Benefit {
				t.Fatalf("benefit %v vs baseline %v — resume diverged", resumed.Benefit, baseline.Benefit)
			}
			if resumed.TotalBenefit != baseline.TotalBenefit || resumed.Instance != baseline.Instance || resumed.Alg != baseline.Alg {
				t.Fatalf("result metadata drifted: %+v vs %+v", resumed, baseline)
			}

			// The journal is the whole checkpoint: a finished job leaves
			// only the journal and its result behind.
			names := dirNames(t, dir)
			if len(names) != 2 || names[0] != j1.ID+".result.json" || names[1] != "journal.log" {
				t.Fatalf("store directory holds %v, want only %s.result.json and journal.log", names, j1.ID)
			}
		})
	}
}
