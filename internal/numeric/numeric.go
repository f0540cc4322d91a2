// Package numeric provides the small numerical substrate shared by the
// scheduling library: tolerant floating-point comparisons, compensated
// summation and permutation enumeration.
package numeric

import "math"

// Eps is the default absolute/relative tolerance used throughout the library
// when comparing schedule quantities expressed in float64. Schedules are built
// from sums and divisions of instance data, so errors of a few ULPs compound;
// 1e-9 is far above accumulated round-off for the instance sizes handled here
// while being far below any meaningful difference between schedules.
const Eps = 1e-9

// ApproxEqual reports whether a and b are equal up to the default tolerance,
// using a combined absolute/relative criterion.
func ApproxEqual(a, b float64) bool {
	return ApproxEqualTol(a, b, Eps)
}

// ApproxEqualTol reports whether a and b are equal up to tol, using a combined
// absolute/relative criterion: |a-b| <= tol * max(1, |a|, |b|).
func ApproxEqualTol(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

// Clamp returns x restricted to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// KahanSum accumulates a sum of float64 values with Neumaier's improved
// compensated summation, which keeps the error independent of the number of
// terms. The zero value is an empty sum.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates x into the sum.
func (k *KahanSum) Add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated sum accumulated so far.
func (k *KahanSum) Value() float64 {
	return k.sum + k.c
}
