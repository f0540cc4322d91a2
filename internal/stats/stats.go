// Package stats provides the small descriptive-statistics helpers used by the
// experiment drivers to summarize ratios, gaps and counts across many random
// instances.
package stats

import (
	"fmt"
	"math"
	"sort"

	"github.com/malleable-sched/malleable/internal/numeric"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of the sample. An empty sample yields a zero
// Summary.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	var sum numeric.KahanSum
	for _, x := range sorted {
		sum.Add(x)
	}
	mean := sum.Value() / float64(len(sorted))
	var sq numeric.KahanSum
	for _, x := range sorted {
		d := x - mean
		sq.Add(d * d)
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(sq.Value() / float64(len(sorted)-1))
	}
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		StdDev: std,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    Quantile(sorted, 0.50),
		P90:    Quantile(sorted, 0.90),
		P99:    Quantile(sorted, 0.99),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of an already sorted sample,
// using linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.3g min=%.6g p50=%.6g p90=%.6g p99=%.6g max=%.6g",
		s.Count, s.Mean, s.StdDev, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// Accumulator is a streaming, mergeable moment accumulator (Welford's
// algorithm with the parallel combination of Chan et al.). It lets many
// engine shards summarize their observations independently and merge the
// partial results exactly — counts, means and variances combine without
// revisiting the samples. The zero value is an empty accumulator.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Merge folds another accumulator into this one; the result is identical (up
// to floating-point rounding) to having Added all of b's observations.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	n := float64(a.n + b.n)
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/n
	a.mean += d * float64(b.n) / n
	a.n += b.n
}

// Count returns the number of observations.
func (a *Accumulator) Count() int { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// StdDev returns the sample standard deviation (0 for fewer than two
// observations).
func (a *Accumulator) StdDev() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// Min and Max return the extremes (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }
