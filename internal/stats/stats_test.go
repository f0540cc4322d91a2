package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/malleable-sched/malleable/internal/numeric"
)

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || !numeric.ApproxEqual(s.Mean, 3) || !numeric.ApproxEqual(s.Min, 1) ||
		!numeric.ApproxEqual(s.Max, 5) || !numeric.ApproxEqual(s.P50, 3) {
		t.Errorf("Summary = %+v", s)
	}
	if !numeric.ApproxEqual(s.StdDev, math.Sqrt(2.5)) {
		t.Errorf("StdDev = %g, want %g", s.StdDev, math.Sqrt(2.5))
	}
}

func TestSummarizeEmptyAndSingleton(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Count != 1 || s.Mean != 7 || s.StdDev != 0 || s.Min != 7 || s.Max != 7 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if Quantile(sorted, 0) != 0 || Quantile(sorted, 1) != 9 {
		t.Errorf("extreme quantiles wrong")
	}
	if !numeric.ApproxEqual(Quantile(sorted, 0.5), 4.5) {
		t.Errorf("median = %g", Quantile(sorted, 0.5))
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Errorf("empty quantile should be NaN")
	}
}

func TestSummaryString(t *testing.T) {
	if !strings.Contains(Summarize([]float64{1, 2}).String(), "mean") {
		t.Errorf("String missing fields")
	}
}

// Property: mean lies between min and max, quantiles are monotone, and the
// summary of a sample is invariant under shuffling.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		s := Summarize(xs)
		if s.Mean < s.Min-numeric.Eps || s.Mean > s.Max+numeric.Eps {
			return false
		}
		if s.P50 > s.P90+numeric.Eps || s.P90 > s.P99+numeric.Eps {
			return false
		}
		shuffled := append([]float64(nil), xs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s2 := Summarize(shuffled)
		return numeric.ApproxEqual(s.Mean, s2.Mean) && s.Min == s2.Min && s.Max == s2.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles of a sorted sample are non-decreasing in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-numeric.Eps {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 500)
	var acc Accumulator
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		acc.Add(xs[i])
	}
	s := Summarize(xs)
	if acc.Count() != s.Count {
		t.Errorf("count %d vs %d", acc.Count(), s.Count)
	}
	if !numeric.ApproxEqualTol(acc.Mean(), s.Mean, 1e-9) {
		t.Errorf("mean %g vs %g", acc.Mean(), s.Mean)
	}
	if !numeric.ApproxEqualTol(acc.StdDev(), s.StdDev, 1e-9) {
		t.Errorf("std %g vs %g", acc.StdDev(), s.StdDev)
	}
	if acc.Min() != s.Min || acc.Max() != s.Max {
		t.Errorf("extremes %g/%g vs %g/%g", acc.Min(), acc.Max(), s.Min, s.Max)
	}
}

func TestAccumulatorMergeEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var whole Accumulator
	parts := make([]Accumulator, 4)
	for i := 0; i < 1000; i++ {
		x := rng.ExpFloat64()
		whole.Add(x)
		parts[i%4].Add(x)
	}
	var merged Accumulator
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.Count() != whole.Count() {
		t.Errorf("count %d vs %d", merged.Count(), whole.Count())
	}
	if !numeric.ApproxEqualTol(merged.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("mean %g vs %g", merged.Mean(), whole.Mean())
	}
	if !numeric.ApproxEqualTol(merged.StdDev(), whole.StdDev(), 1e-9) {
		t.Errorf("std %g vs %g", merged.StdDev(), whole.StdDev())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Errorf("extremes %g/%g vs %g/%g", merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
}

func TestAccumulatorEmptyAndSingleton(t *testing.T) {
	var empty Accumulator
	if empty.Count() != 0 || empty.Mean() != 0 || empty.StdDev() != 0 {
		t.Errorf("empty accumulator not zero: %+v", empty)
	}
	var one Accumulator
	one.Add(5)
	if one.StdDev() != 0 || one.Mean() != 5 || one.Min() != 5 || one.Max() != 5 {
		t.Errorf("singleton accumulator broken: %+v", one)
	}
	// Merging an empty accumulator is a no-op in both directions.
	var a Accumulator
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(&empty)
	if a != before {
		t.Errorf("merge with empty changed the accumulator")
	}
	empty.Merge(&a)
	if empty.Count() != 2 || empty.Mean() != 2 {
		t.Errorf("empty.Merge(a) = %+v", empty)
	}
}
