package expt

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"imc/internal/graph"
)

func ctxTestInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := BuildInstance(InstanceConfig{Dataset: "facebook", Scale: 0.03, Bounded: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestRunAlgCtxCanceled(t *testing.T) {
	inst := ctxTestInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []string{AlgUBG, AlgMAF, AlgMB, AlgIM} {
		_, err := RunAlgCtx(ctx, inst, alg, 3, RunConfig{
			Seed: 1, Runs: 1, MaxSamples: 1 << 10, BTMaxRoots: 8,
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled (errors.Is)", alg, err)
		}
	}
}

// TestRunAlgCtxDeterminism asserts the tentpole contract at the top of
// the stack: a completed run selects byte-identical seeds and scores
// whether its ctx can never fire (Background) or is live but never
// cancelled (so every poll selects on a non-nil Done()), and both equal
// pinned seeds and benefit bits, so any change to an answer fails here.
func TestRunAlgCtxDeterminism(t *testing.T) {
	inst := ctxTestInstance(t)
	cfg := RunConfig{Seed: 3, Runs: 1, MaxSamples: 1 << 11, EvalTMax: 1 << 11, BTMaxRoots: 8}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, want := range []struct {
		alg     string
		seeds   []graph.NodeID
		benefit uint64 // math.Float64bits
	}{
		{AlgUBG, []graph.NodeID{6, 1, 12, 4}, 0x403469264fd802bb},
		{AlgMAF, []graph.NodeID{17, 0, 8, 12}, 0x403450f58abbc059},
		{AlgMB, []graph.NodeID{14, 0, 10, 13}, 0x403469264fd802bb},
		{AlgHBC, []graph.NodeID{0, 6, 14, 17}, 0x40327032be7276a2},
		{AlgKS, []graph.NodeID{1, 4, 0, 6}, 0x40339735ea599e0d},
		{AlgIM, []graph.NodeID{4, 6, 13, 10}, 0x4033c46486fbddbe},
	} {
		for name, ctx := range map[string]context.Context{"background": context.Background(), "live": live} {
			got, err := RunAlgCtx(ctx, inst, want.alg, 4, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", want.alg, name, err)
			}
			if !slices.Equal(got.Seeds, want.seeds) {
				t.Errorf("%s %s: seeds %v, want %v", want.alg, name, got.Seeds, want.seeds)
			}
			if bits := math.Float64bits(got.Benefit); bits != want.benefit {
				t.Errorf("%s %s: benefit %v (%#016x), want %v (%#016x)",
					want.alg, name, got.Benefit, bits, math.Float64frombits(want.benefit), want.benefit)
			}
		}
	}
}
