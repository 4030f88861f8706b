package main

import (
	"context"
	"fmt"
	"time"

	"imc/internal/expt"
)

// maf-facebook: a closed loop with one caller running in-process MAF
// solves on one instance built at set-up, with no pool cache.
const (
	mafK            = 10
	mafDataset      = "facebook"
	mafScale        = 0.25
	mafInstanceSeed = 1
)

type mafBench struct {
	seed uint64
	inst *expt.Instance
}

func (b *mafBench) instanceConfig() expt.InstanceConfig {
	return expt.InstanceConfig{Dataset: mafDataset, Scale: mafScale, Seed: mafInstanceSeed}
}

func (b *mafBench) setup(ctx context.Context, t *tracer) error {
	var err error
	if t != nil {
		b.inst, err = tracedBuild(t, setupOp, noParent, b.instanceConfig())
	} else {
		b.inst, err = expt.BuildInstance(b.instanceConfig())
	}
	if err != nil {
		return err
	}
	_, err = b.solve(ctx, warmupKey)
	return err
}

func (b *mafBench) teardown() { b.inst = nil }

// solve is one operation: expt.RunAlgCtx exactly as a library caller
// makes it.
func (b *mafBench) solve(ctx context.Context, seed uint64) (answer, error) {
	return librarySolve(ctx, b.inst, expt.AlgMAF, mafK, seed)
}

func (b *mafBench) opSeed(idx int) uint64 { return deriveSeed(b.seed, tagOps, uint64(idx)) }

func (b *mafBench) measure(ctx context.Context, d time.Duration) (*phase, error) {
	return closedLoop(ctx, 1, d, func(ctx context.Context, idx int) opRecord {
		a, err := b.solve(ctx, b.opSeed(idx))
		return opRecord{ans: a, err: err}
	}), nil
}

func (b *mafBench) reference(ctx context.Context, idx int) (answer, error) {
	return b.solve(ctx, b.opSeed(idx))
}

func (b *mafBench) replay(ctx context.Context, t *tracer, ph *phase, _ *report) (*phase, map[int]solveOutcome, error) {
	outcomes := make(map[int]solveOutcome, len(ph.ops))
	traced := replayLoop(ctx, 1, opIndices(ph), func(ctx context.Context, idx int) opRecord {
		id := t.open(idx, noParent, spanOp)
		o, err := tracedSolve(ctx, t, idx, id, solveRequest{inst: b.inst, alg: expt.AlgMAF, k: mafK, seed: b.opSeed(idx)})
		t.close(id, 0)
		if err == nil {
			err = o.ans.check(mafK, b.inst.G.NumNodes())
		}
		outcomes[idx] = o
		return opRecord{ans: o.ans, err: err}
	})
	if len(traced.ops) == 0 {
		return nil, nil, fmt.Errorf("no operations replayed")
	}
	return traced, outcomes, nil
}

func (b *mafBench) layerCounters(*phase, *report) {}
