package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.CI95() != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("n = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %g, want 5", r.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %g, want %g", r.Variance(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %g/%g", r.Min(), r.Max())
	}
	if r.CI95() <= 0 {
		t.Fatal("CI95 should be positive for n ≥ 2")
	}
}

// Property: Welford's mean/variance match the two-pass formulas.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var r Running
		data := make([]float64, len(raw))
		for i, v := range raw {
			data[i] = float64(v)
			r.Add(data[i])
		}
		sum := 0.0
		for _, x := range data {
			sum += x
		}
		mean := sum / float64(len(data))
		ss := 0.0
		for _, x := range data {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(data)-1)
		return math.Abs(r.Mean()-mean) < 1e-6 && math.Abs(r.Variance()-variance) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
