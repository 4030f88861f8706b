package ric_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"imc/internal/diffusion"
	"imc/internal/expt"
	"imc/internal/ric"
)

// TestPoolBytesPinned pins the IMCP serialization of pools drawn on
// facebook/scale=0.25 to digests recorded before the sampler's live-edge
// test moved from a float compare to precomputed integer thresholds.
// Any change to a sample's content, its cover masks or the stream each
// sample is drawn from changes the digest, whatever the worker count.
func TestPoolBytesPinned(t *testing.T) {
	inst, err := expt.BuildInstance(expt.InstanceConfig{Dataset: "facebook", Scale: 0.25, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	pins := []struct {
		model   diffusion.Model
		samples int
		want    string
	}{
		{diffusion.IC, 4096, "6977d6be8c37ee7dc7741e006645d6ad7f8d9116f7bdd89a8028f4f23f52f424"},
		{diffusion.LT, 1024, "52c1c5b566e5f41413f8297b4f163f845f8b1fa4ec4b63cb649f2db27eabeb7b"},
	}
	for _, pin := range pins {
		for _, workers := range []int{1, 3} {
			pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Model: pin.model, Seed: 7, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.GenerateCtx(context.Background(), pin.samples); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := pool.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != pin.want {
				t.Errorf("model %v, %d workers: pool digest %s, want %s", pin.model, workers, got, pin.want)
			}
		}
	}
}
