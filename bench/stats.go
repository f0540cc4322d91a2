package main

import (
	"math"
	"slices"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile returns the p-th percentile (0 <= p <= 100) of an ascending
// sample, interpolating linearly between the two closest ranks. An empty
// sample yields NaN.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). An empty sample yields NaN.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

// quartiles returns the three cut points of xs by the method Python's
// statistics.quantiles(xs, n=4) uses by default ("exclusive"), so spreads
// computed here match spreads computed from the same values by that call.
// One value is its own quartiles; an empty sample yields NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		// statistics.quantiles clamps j into [1, n-1] before interpolating.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median — the
// run-to-run noise measure the agreement rules are stated in.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// tailLadder lists the percentiles reports choose their tail from, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest percentile of tailLadder with at
// least ten of n samples beyond it, or 0 when even the median has fewer: a
// tail read off fewer samples is one outlier, not a percentile.
func highestPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The tolerance absorbs rounding in 100-p for p = 99.9.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}
