package core_test

import (
	"context"
	"math"
	"testing"

	"imc/internal/core"
	"imc/internal/expt"
	"imc/internal/graph"
)

// TestEstimatePinned pins EstimateResult on facebook/scale=0.25 to the
// values the serial, float-compare Estimate produced, for several
// worker counts: converged and TMax-exhausted calls, indicator and
// fractional mode. Benefits are compared as float bits.
func TestEstimatePinned(t *testing.T) {
	inst, err := expt.BuildInstance(expt.InstanceConfig{Dataset: "facebook", Scale: 0.25, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []graph.NodeID{3, 17, 40, 71, 99, 120, 150, 181}
	pins := []struct {
		fractional bool
		tmax       int
		benefit    uint64
		samples    int
		converged  bool
	}{
		{false, 1 << 16, 0x403f36e3601b73bd, 6953, true},
		{false, 1500, 0x403ea0c49ba5e354, 1500, false},
		{true, 1 << 16, 0x4056b3c8732e50d5, 2390, true},
		{true, 1500, 0x4056eab020c49ba7, 1500, false},
	}
	for _, pin := range pins {
		for _, workers := range []int{1, 2, 5} {
			est, err := core.EstimateCtx(context.Background(), inst.G, inst.Part, seeds, core.EstimateOptions{
				Eps: 0.1, Delta: 0.05, TMax: pin.tmax, Seed: 99,
				Fractional: pin.fractional, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(est.Benefit) != pin.benefit || est.Samples != pin.samples || est.Converged != pin.converged {
				t.Errorf("fractional=%v tmax=%d workers=%d: got benefit %#x samples %d converged %v, want %#x %d %v",
					pin.fractional, pin.tmax, workers, math.Float64bits(est.Benefit), est.Samples, est.Converged,
					pin.benefit, pin.samples, pin.converged)
			}
		}
	}
}
