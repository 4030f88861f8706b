package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"imc/internal/expt"
	"imc/internal/ric"
)

// TestBenchCoreShape pins the committed BENCH_core.json to the
// -benchcore roster: schema tag, toolchain and GOMAXPROCS recorded,
// and one row per coreBenches entry in roster order, Estimate/IC
// included. A roster change that is not regenerated with
// `make bench-core` fails here.
func TestBenchCoreShape(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_core.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep coreBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_core.json is not a coreBenchReport: %v", err)
	}
	if rep.Schema != coreBenchSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, coreBenchSchema)
	}
	if rep.GoVersion == "" || rep.GOMAXPROCS < 1 {
		t.Errorf("environment incomplete: goversion=%q gomaxprocs=%d", rep.GoVersion, rep.GOMAXPROCS)
	}

	inst, err := expt.BuildInstance(expt.InstanceConfig{Dataset: "facebook", Scale: 0.25, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ric.NewPool(inst.G, inst.Part, ric.PoolOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.GenerateCtx(context.Background(), rep.PoolSize); err != nil {
		t.Fatal(err)
	}
	rows, err := coreBenches(inst, pool, rep.SeedSetK)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != len(rows) {
		t.Fatalf("BENCH_core.json has %d rows, roster has %d", len(rep.Benchmarks), len(rows))
	}
	estimate := false
	for i, row := range rows {
		if got := rep.Benchmarks[i].Name; got != row.name {
			t.Errorf("row %d = %q, want roster order %q", i, got, row.name)
		}
		if row.name == "Estimate/IC" {
			estimate = true
		}
	}
	if !estimate {
		t.Error("roster has no Estimate/IC row")
	}
}
