// Package stepfunc implements piecewise-constant step functions on the time
// axis [0, +inf). They are the geometric substrate of the scheduling library:
// resource availability profiles, per-task allocation profiles, and the
// "water level" manipulations of the greedy and water-filling algorithms are
// all expressed as step functions.
//
// A StepFunc f is defined by an increasing sequence of breakpoints
// 0 = t_0 < t_1 < ... < t_k and values v_0, ..., v_k with f(t) = v_i for
// t in [t_i, t_{i+1}) and f(t) = v_k for t >= t_k.
package stepfunc

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/malleable-sched/malleable/internal/numeric"
)

// StepFunc is a piecewise-constant function of time. The zero value is not
// usable; construct instances with Constant or FromSteps.
type StepFunc struct {
	times  []float64 // times[0] == 0, strictly increasing
	values []float64 // values[i] holds on [times[i], times[i+1])
}

// Constant returns the step function that equals v everywhere.
func Constant(v float64) *StepFunc {
	return &StepFunc{times: []float64{0}, values: []float64{v}}
}

// FromSteps builds a step function from parallel slices of breakpoint times
// and values. times must start at 0 and be strictly increasing; the slices
// must have equal non-zero length. The input slices are copied.
func FromSteps(times, values []float64) (*StepFunc, error) {
	if len(times) == 0 || len(times) != len(values) {
		return nil, fmt.Errorf("stepfunc: need equal non-empty times and values, got %d and %d", len(times), len(values))
	}
	if times[0] != 0 {
		return nil, fmt.Errorf("stepfunc: first breakpoint must be 0, got %g", times[0])
	}
	for i := 1; i < len(times); i++ {
		if !(times[i] > times[i-1]) {
			return nil, fmt.Errorf("stepfunc: breakpoints must be strictly increasing (index %d: %g then %g)", i, times[i-1], times[i])
		}
	}
	f := &StepFunc{times: append([]float64(nil), times...), values: append([]float64(nil), values...)}
	return f, nil
}

// Clone returns a deep copy of f.
func (f *StepFunc) Clone() *StepFunc {
	return &StepFunc{
		times:  append([]float64(nil), f.times...),
		values: append([]float64(nil), f.values...),
	}
}

// NumPieces returns the number of constant pieces of f.
func (f *StepFunc) NumPieces() int { return len(f.times) }

// segmentIndex returns the index i such that t lies in [times[i], times[i+1])
// (or the last index if t is beyond the last breakpoint). t must be >= 0.
func (f *StepFunc) segmentIndex(t float64) int {
	// sort.SearchFloat64s returns the first index with times[i] >= t.
	i := sort.SearchFloat64s(f.times, t)
	if i < len(f.times) && f.times[i] == t {
		return i
	}
	return i - 1
}

// Value returns f(t). t must be >= 0.
func (f *StepFunc) Value(t float64) float64 {
	if t < 0 {
		panic("stepfunc: negative time")
	}
	return f.values[f.segmentIndex(t)]
}

// ensureBreakpoint splits the piece containing t so that t becomes an explicit
// breakpoint, and returns its index. The function value is unchanged.
func (f *StepFunc) ensureBreakpoint(t float64) int {
	if t < 0 {
		panic("stepfunc: negative time")
	}
	i := sort.SearchFloat64s(f.times, t)
	if i < len(f.times) && f.times[i] == t {
		return i
	}
	// Insert after i-1.
	f.times = append(f.times, 0)
	f.values = append(f.values, 0)
	copy(f.times[i+1:], f.times[i:])
	copy(f.values[i+1:], f.values[i:])
	f.times[i] = t
	f.values[i] = f.values[i-1]
	return i
}

// AddOn adds delta to f on the half-open interval [from, to). from must be
// <= to; if they are equal the function is unchanged. to may be
// math.Inf(1) to modify the whole tail.
func (f *StepFunc) AddOn(from, to, delta float64) {
	if from < 0 {
		panic("stepfunc: negative time")
	}
	if to < from {
		panic("stepfunc: AddOn with to < from")
	}
	if from == to || delta == 0 {
		return
	}
	i := f.ensureBreakpoint(from)
	j := len(f.times)
	if !math.IsInf(to, 1) {
		j = f.ensureBreakpoint(to)
		// ensureBreakpoint(to) may have shifted index i if to < from is
		// impossible, so i is still valid (to > from means insertion is after i).
	}
	for k := i; k < j; k++ {
		f.values[k] += delta
	}
}

// SetOn sets f to value v on [from, to).
func (f *StepFunc) SetOn(from, to, v float64) {
	if from < 0 {
		panic("stepfunc: negative time")
	}
	if to < from {
		panic("stepfunc: SetOn with to < from")
	}
	if from == to {
		return
	}
	i := f.ensureBreakpoint(from)
	j := len(f.times)
	if !math.IsInf(to, 1) {
		j = f.ensureBreakpoint(to)
	}
	for k := i; k < j; k++ {
		f.values[k] = v
	}
}

// Compact merges adjacent pieces whose values are exactly equal. It keeps the
// function semantically identical while bounding the representation size.
func (f *StepFunc) Compact() {
	outT := f.times[:1]
	outV := f.values[:1]
	for i := 1; i < len(f.times); i++ {
		if f.values[i] == outV[len(outV)-1] {
			continue
		}
		outT = append(outT, f.times[i])
		outV = append(outV, f.values[i])
	}
	f.times = outT
	f.values = outV
}

// Integrate returns the integral of f over [from, to). to may be +inf only if
// the tail value of f is zero, otherwise the integral diverges and Integrate
// panics.
func (f *StepFunc) Integrate(from, to float64) float64 {
	if from < 0 || to < from {
		panic("stepfunc: bad integration bounds")
	}
	if math.IsInf(to, 1) {
		if f.values[len(f.values)-1] != 0 {
			panic("stepfunc: divergent integral")
		}
		to = f.times[len(f.times)-1]
		if to < from {
			return 0
		}
	}
	var sum numeric.KahanSum
	i := f.segmentIndex(from)
	for ; i < len(f.times); i++ {
		segStart := math.Max(from, f.times[i])
		segEnd := to
		if i+1 < len(f.times) {
			segEnd = math.Min(to, f.times[i+1])
		}
		if segEnd <= segStart {
			if f.times[i] >= to {
				break
			}
			continue
		}
		sum.Add(f.values[i] * (segEnd - segStart))
		if segEnd == to {
			break
		}
	}
	return sum.Value()
}

// TimeToProcess returns the earliest time C >= from such that a task starting
// at time from, with degree bound cap, processing at rate min(cap, max(0,f(t)))
// accumulates volume exactly V by time C. The second return value reports
// whether such a time exists (it does not if the achievable volume on
// [from, +inf) with the tail rate is insufficient, i.e. the tail rate is zero
// and the remaining finite area is < V).
func (f *StepFunc) TimeToProcess(from, capacity, V float64) (float64, bool) {
	if V <= numeric.Eps {
		return from, true
	}
	if from < 0 {
		panic("stepfunc: negative time")
	}
	remaining := V
	i := f.segmentIndex(from)
	cursor := from
	for {
		rate := math.Min(capacity, math.Max(0, f.values[i]))
		segEnd := math.Inf(1)
		if i+1 < len(f.times) {
			segEnd = f.times[i+1]
		}
		if math.IsInf(segEnd, 1) {
			if rate <= 0 {
				return 0, false
			}
			return cursor + remaining/rate, true
		}
		span := segEnd - cursor
		if rate > 0 {
			if rate*span >= remaining-numeric.Eps*math.Max(1, V) {
				return cursor + remaining/rate, true
			}
			remaining -= rate * span
		}
		cursor = segEnd
		i++
	}
}

// ConsumeMin subtracts min(cap, max(0, f(t))) from f on [from, to), i.e.
// records that a task with degree bound cap consumed as much of the profile as
// it could on that interval. It returns the total volume consumed.
func (f *StepFunc) ConsumeMin(from, to, capacity float64) float64 {
	if from < 0 || to < from {
		panic("stepfunc: bad bounds")
	}
	if from == to {
		return 0
	}
	i := f.ensureBreakpoint(from)
	j := f.ensureBreakpoint(to)
	var consumed numeric.KahanSum
	for k := i; k < j; k++ {
		rate := math.Min(capacity, math.Max(0, f.values[k]))
		segEnd := f.times[k+1]
		consumed.Add(rate * (segEnd - f.times[k]))
		f.values[k] -= rate
	}
	return consumed.Value()
}

// Min returns the pointwise minimum of f and g as a new step function.
func Min(f, g *StepFunc) *StepFunc { return combine(f, g, math.Min) }

func combine(f, g *StepFunc, op func(a, b float64) float64) *StepFunc {
	times := mergeBreakpoints(f.times, g.times)
	values := make([]float64, len(times))
	for i, t := range times {
		values[i] = op(f.Value(t), g.Value(t))
	}
	out := &StepFunc{times: times, values: values}
	out.Compact()
	return out
}

func mergeBreakpoints(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// NextBreakpointAfter returns the first breakpoint of f strictly after t, or
// +Inf if t is at or beyond the last breakpoint. It performs no allocation,
// so event loops may call it per event.
func (f *StepFunc) NextBreakpointAfter(t float64) float64 {
	// First index with times[i] > t.
	i := sort.Search(len(f.times), func(i int) bool { return f.times[i] > t })
	if i >= len(f.times) {
		return math.Inf(1)
	}
	return f.times[i]
}

// String renders the step function as a compact human-readable description,
// e.g. "[0,2):3 [2,5):1 [5,inf):0".
func (f *StepFunc) String() string {
	var b strings.Builder
	for i := range f.times {
		end := "inf"
		if i+1 < len(f.times) {
			end = fmt.Sprintf("%g", f.times[i+1])
		}
		fmt.Fprintf(&b, "[%g,%s):%g", f.times[i], end, f.values[i])
		if i+1 < len(f.times) {
			b.WriteByte(' ')
		}
	}
	return b.String()
}
