package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

// thresholdProbs are the probabilities whose threshold forms sit on an
// edge: both signed zeros, the smallest subnormal, the first p whose
// threshold is 1 from a normal product, one half, the largest p below
// 1, and the always-true sentinels.
var thresholdProbs = []float64{
	math.Copysign(0, -1),
	0,
	math.SmallestNonzeroFloat64,
	math.Ldexp(1, -53),
	0.5,
	math.Nextafter(1, 0),
	1,
	2,
}

// floatDecision is Bernoulli's compare on a given 64-bit draw x.
func floatDecision(x uint64, p float64) bool {
	return float64(x>>11)/(1<<53) < p
}

// intDecision is Below's compare on a given 64-bit draw x.
func intDecision(x uint64, thr uint64) bool {
	return x>>11 < thr
}

// checkLockstep runs Bernoulli(p) and Below(BernoulliThreshold(p)) on
// two copies of one stream and fails on the first differing result or
// on any drift in how many draws the two consumed.
func checkLockstep(t *testing.T, p float64, seed uint64, draws int) {
	t.Helper()
	a, b := New(seed), New(seed)
	thr := BernoulliThreshold(p)
	for i := 0; i < draws; i++ {
		if got, want := b.Below(thr), a.Bernoulli(p); got != want {
			t.Fatalf("p=%g (thr=%d) draw %d: Below=%v Bernoulli=%v", p, thr, i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("p=%g: Below and Bernoulli consumed different numbers of draws", p)
	}
}

func TestBernoulliThresholdTable(t *testing.T) {
	for _, p := range thresholdProbs {
		thr := BernoulliThreshold(p)
		switch {
		case p <= 0 && thr != 0:
			t.Errorf("BernoulliThreshold(%g) = %d, want the never sentinel 0", p, thr)
		case p >= 1 && thr != thresholdAlways:
			t.Errorf("BernoulliThreshold(%g) = %d, want thresholdAlways", p, thr)
		case p > 0 && p < 1 && (thr == 0 || thr >= thresholdAlways):
			t.Errorf("BernoulliThreshold(%g) = %d collides with a sentinel", p, thr)
		}
		checkLockstep(t, p, 0x7e57, 4096)
		if p <= 0 || p >= 1 {
			continue
		}
		// The compare itself, on the draws around the threshold that a
		// random stream almost never produces.
		for _, k := range []uint64{0, 1, thr - 1, thr, thr + 1, thresholdAlways - 1} {
			if k >= thresholdAlways {
				continue
			}
			for _, low := range []uint64{0, 1<<11 - 1} {
				x := k<<11 | low
				if floatDecision(x, p) != intDecision(x, thr) {
					t.Errorf("p=%g thr=%d k=%d: float compare %v, integer compare %v",
						p, thr, k, floatDecision(x, p), intDecision(x, thr))
				}
			}
		}
	}
	if got := BernoulliThreshold(math.Nextafter(1, 0)); got != thresholdAlways-1 {
		t.Errorf("BernoulliThreshold(nextafter(1, 0)) = %d, want 2⁵³−1", got)
	}
	if got := BernoulliThreshold(math.SmallestNonzeroFloat64); got != 1 {
		t.Errorf("BernoulliThreshold(smallest subnormal) = %d, want 1", got)
	}
}

func TestBernoulliThresholdProperty(t *testing.T) {
	// Random probabilities spread over every binade of (0, 1), plus
	// random draws x: the two compares must agree on every pair.
	f := func(mant uint64, exp uint8, x uint64) bool {
		p := math.Ldexp(float64(mant>>11)/(1<<53), -int(exp%80))
		return floatDecision(x, p) == intDecision(x, BernoulliThreshold(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	// And on live streams, including draw consumption.
	r := New(31)
	for i := 0; i < 64; i++ {
		p := math.Ldexp(r.Float64(), -r.Intn(8))
		checkLockstep(t, p, r.Uint64(), 512)
	}
}
