// Package stats provides the small statistical toolkit the experiment
// harness and the servers use: streaming moments (Welford) with
// normal-approximation confidence intervals, and latency histograms.
package stats

import "math"

// Running accumulates streaming mean and variance via Welford's
// algorithm. The zero value is ready to use. Aggregations hold one
// accumulator per tracked series, and all five fields are one word
// wide, so the layout is pinned waste-free (40 bytes).
//
//imc:compact
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the observation count.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 with no observations).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation (0 with no observations).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 with no observations).
func (r *Running) Max() float64 { return r.max }

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval of the mean.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return 1.96 * r.StdDev() / math.Sqrt(float64(r.n))
}
