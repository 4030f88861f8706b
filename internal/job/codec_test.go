package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imc/internal/community"
	"imc/internal/core"
	"imc/internal/gen"
	"imc/internal/graph"
	"imc/internal/ric"
)

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

func TestCheckpointFileRoundTrip(t *testing.T) {
	pool := testPool(t, 5, 64)
	spec := Spec{Dataset: "test", K: 3, Seed: 5}.Normalize()
	path := filepath.Join(t.TempDir(), "j1.ckpt")

	cp := core.Checkpoint{Pool: pool, Doublings: 4}
	if err := writeCheckpointFile(path, spec, cp); err != nil {
		t.Fatal(err)
	}
	dec, err := readCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dec.doublings != 4 {
		t.Fatalf("doublings %d, want 4", dec.doublings)
	}
	wantSpec, _ := json.Marshal(spec)
	gotSpec, _ := json.Marshal(dec.spec)
	if !bytes.Equal(wantSpec, gotSpec) {
		t.Fatalf("spec drifted: %s vs %s", gotSpec, wantSpec)
	}
	var poolBytes bytes.Buffer
	if err := pool.Save(&poolBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.poolBytes, poolBytes.Bytes()) {
		t.Fatal("pool bytes drifted through the codec")
	}
	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file not cleaned up: %v", err)
	}
}

func TestReadCheckpointMissing(t *testing.T) {
	_, err := readCheckpointFile(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, errNoCheckpoint) {
		t.Fatalf("want errNoCheckpoint, got %v", err)
	}
}

func TestReadCheckpointRejectsCorrupt(t *testing.T) {
	pool := testPool(t, 6, 32)
	spec := Spec{Dataset: "test", K: 2, Seed: 6}.Normalize()
	dir := t.TempDir()
	path := filepath.Join(dir, "j1.ckpt")
	if err := writeCheckpointFile(path, spec, core.Checkpoint{Pool: pool, Doublings: 1}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }, "truncated"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }, "version"},
		{"flipped pool byte", func(b []byte) []byte { b[len(b)-20] ^= 0x41; return b }, "crc"},
		{"flipped crc", func(b []byte) []byte { b[len(b)-1] ^= 0x41; return b }, "crc"},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-9] }, "crc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), valid...))
			p := filepath.Join(dir, "mut.ckpt")
			if err := os.WriteFile(p, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := readCheckpointFile(p)
			if err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
			if errors.Is(err, errNoCheckpoint) {
				t.Fatalf("corruption misreported as missing: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestReadCheckpointNoPanicOnAnyTruncation(t *testing.T) {
	pool := testPool(t, 7, 16)
	spec := Spec{Dataset: "test", K: 2, Seed: 7}.Normalize()
	dir := t.TempDir()
	path := filepath.Join(dir, "j1.ckpt")
	if err := writeCheckpointFile(path, spec, core.Checkpoint{Pool: pool, Doublings: 0}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "cut.ckpt")
	for cut := 0; cut < len(valid); cut++ {
		if err := os.WriteFile(p, valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readCheckpointFile(p); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
