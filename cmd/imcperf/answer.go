package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
)

// answer is one operation's result as the benchmark checks it. Samples
// and Doublings are 0 when the path that produced the answer does not
// report them (a /solve reply carries neither).
type answer struct {
	Seeds     []int32
	Benefit   float64
	Total     float64
	Samples   int
	Doublings int
}

// check is the per-operation oracle: exactly k distinct seeds, each a
// node of the instance, and a benefit inside [0, total].
func (a answer) check(k, nodes int) error {
	if len(a.Seeds) != k {
		return fmt.Errorf("got %d seeds, want %d", len(a.Seeds), k)
	}
	seen := make(map[int32]bool, len(a.Seeds))
	for _, s := range a.Seeds {
		if s < 0 || int(s) >= nodes {
			return fmt.Errorf("seed %d outside [0, %d)", s, nodes)
		}
		if seen[s] {
			return fmt.Errorf("seed %d repeated", s)
		}
		seen[s] = true
	}
	if math.IsNaN(a.Benefit) || a.Benefit < 0 || a.Benefit > a.Total {
		return fmt.Errorf("benefit %v outside [0, %v]", a.Benefit, a.Total)
	}
	return nil
}

// sameResult reports whether two answers name the same seeds in the
// same order with bit-identical benefits. Samples and doublings are
// compared only when both sides report them.
func (a answer) sameResult(b answer) bool {
	if len(a.Seeds) != len(b.Seeds) || math.Float64bits(a.Benefit) != math.Float64bits(b.Benefit) {
		return false
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			return false
		}
	}
	if a.Samples != 0 && b.Samples != 0 && (a.Samples != b.Samples || a.Doublings != b.Doublings) {
		return false
	}
	return true
}

// line renders the answer for the digest: seeds, samples, doublings
// and the benefit's bits.
func (a answer) line() string {
	parts := make([]string, len(a.Seeds))
	for i, s := range a.Seeds {
		parts[i] = fmt.Sprint(s)
	}
	return fmt.Sprintf("seeds=%s samples=%d doublings=%d benefit=%016x",
		strings.Join(parts, ","), a.Samples, a.Doublings, math.Float64bits(a.Benefit))
}

// digestOps is how many leading operations of a workload's sequence the
// answer digest covers. The sequence is fixed by the workload seed, so
// these operations are the same on every machine however many a run
// completes.
const digestOps = 4

// digest hashes the answers of operations 0..digestOps-1 in sequence
// order into a short hex string.
func digest(workload string, answers []answer) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", workload)
	for i, a := range answers {
		fmt.Fprintf(h, "%d %s\n", i, a.line())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedDigests holds each workload's answer digest for defaultSeed. A
// change that alters any of these answers changes a seed set, a sample
// count or a benefit, which the paper's guarantees do not allow a
// performance change to do.
var pinnedDigests = map[string]string{
	"maf-facebook": "e04d048e96857b22",
	"serve-zipf":   "1f95c0525ba2c532",
	"jobs-open":    "a4486fa993d72af3",
}

// defaultSeed is the workload seed the pinned digests belong to.
const defaultSeed = 1

// splitmix64 is the key-derivation mixer: a fixed bijection, so keys
// never depend on the Go release's math/rand.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns the solve seed for slot i of a stream tagged tag
// under the workload seed. Seeds stay below 2^40 so they survive any
// JSON decoder as exact integers.
func deriveSeed(workloadSeed, tag, i uint64) uint64 {
	return splitmix64(splitmix64(workloadSeed^tag*0x100000001b3)+i) & (1<<40 - 1)
}

// Stream tags: measured operations, warm-up operations, and Zipf key
// draws use disjoint streams, so no warm-up key is ever measured.
const (
	tagOps    = 1
	tagWarmup = 2
	tagZipf   = 3
)

// warmupKey is the solve seed of every set-up's warm-up operation. It
// does not depend on the workload seed, so every set-up does the same
// work and setup_s varies only with the machine.
var warmupKey = deriveSeed(0, tagWarmup, 0)

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^s, deterministically
// from a counter, by inverting the cumulative weights.
type zipf struct {
	cum  []float64
	seed uint64
}

func newZipf(n int, s float64, seed uint64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	return &zipf{cum: cum, seed: seed}
}

// rank returns the i-th draw.
func (z *zipf) rank(i int) int {
	u := float64(deriveSeed(z.seed, tagZipf, uint64(i))) / (1 << 40)
	r := sort.SearchFloat64s(z.cum, u)
	if r >= len(z.cum) {
		r = len(z.cum) - 1
	}
	return r
}
