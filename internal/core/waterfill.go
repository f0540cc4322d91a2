package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
)

// ErrInfeasibleCompletionTimes is returned by WaterFill when no valid
// schedule exists with the requested completion times. By Theorem 8 this is a
// definitive answer: if the water-filling algorithm fails, every other
// schedule fails too.
type ErrInfeasibleCompletionTimes struct {
	// Task is the index of the first task (in completion order) that cannot
	// be fitted.
	Task int
	// Missing is the volume that does not fit below the platform capacity.
	Missing float64
}

func (e *ErrInfeasibleCompletionTimes) Error() string {
	return fmt.Sprintf("core: completion times are infeasible: task %d cannot place %g units of work", e.Task, e.Missing)
}

// WaterFill runs Algorithm WF (Algorithm 2 of the paper): given per-task
// completion times, it rebuilds a valid column-based schedule in which task i
// completes at time completions[i], or reports that none exists. The schedule
// it produces is the paper's normal form; its total number of allocation
// changes is at most n (Theorem 9) and its integral conversion has at most 3n
// preemptions (Theorem 10).
func WaterFill(inst *schedule.Instance, completions []float64) (*schedule.ColumnSchedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	if len(completions) != n {
		return nil, fmt.Errorf("core: need %d completion times, got %d", n, len(completions))
	}
	for i, c := range completions {
		if c < -numeric.Eps || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("core: completion time of task %d is invalid (%g)", i, c)
		}
	}

	s := schedule.NewColumnSchedule(inst)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return completions[order[a]] < completions[order[b]] })
	s.Order = order
	for j, task := range order {
		s.Times[j] = completions[task]
	}

	heights := make([]float64, n) // heights[k] = occupied height of column k
	for j, task := range order {
		delta := inst.EffectiveDelta(task)
		volume := inst.Tasks[task].Volume

		// Capacity check: wf_i(P) >= V_i ?
		capacity := 0.0
		for k := 0; k <= j; k++ {
			l := s.ColumnLength(k)
			if l <= numeric.Eps {
				continue
			}
			capacity += l * numeric.Clamp(inst.P-heights[k], 0, delta)
		}
		if capacity < volume-1e-7*math.Max(1, volume) {
			return nil, &ErrInfeasibleCompletionTimes{Task: task, Missing: volume - capacity}
		}

		level := waterLevel(s, heights, j, delta, volume)

		// Allocate the task in columns 1..j at the computed level.
		for k := 0; k <= j; k++ {
			l := s.ColumnLength(k)
			if l <= numeric.Eps {
				continue
			}
			a := numeric.Clamp(level-heights[k], 0, delta)
			if a <= numeric.Eps {
				continue
			}
			s.Alloc[task][k] = a
			heights[k] += a
		}
	}
	return s, nil
}

// waterLevel returns the minimal level h such that pouring task volume into
// columns 0..j (with per-column cap delta above the current height) absorbs
// exactly `volume`: min{h : Σ_k l_k·clamp(h-heights[k], 0, delta) = volume}.
func waterLevel(s *schedule.ColumnSchedule, heights []float64, j int, delta, volume float64) float64 {
	// Candidate breakpoints of the piecewise-linear filling function.
	var bps []float64
	for k := 0; k <= j; k++ {
		if s.ColumnLength(k) <= numeric.Eps {
			continue
		}
		bps = append(bps, heights[k], heights[k]+delta)
	}
	bps = append(bps, 0)
	sort.Float64s(bps)

	fill := func(h float64) float64 {
		var sum numeric.KahanSum
		for k := 0; k <= j; k++ {
			l := s.ColumnLength(k)
			if l <= numeric.Eps {
				continue
			}
			sum.Add(l * numeric.Clamp(h-heights[k], 0, delta))
		}
		return sum.Value()
	}

	prevH, prevV := bps[0], fill(bps[0])
	if prevV >= volume {
		return prevH
	}
	for _, h := range bps[1:] {
		if h <= prevH {
			continue
		}
		v := fill(h)
		if v >= volume {
			// Interpolate inside [prevH, h]; the filling function is linear
			// there and strictly increasing because v > prevV.
			slope := (v - prevV) / (h - prevH)
			return prevH + (volume-prevV)/slope
		}
		prevH, prevV = h, v
	}
	// The capacity check in WaterFill guarantees we never fall through for
	// feasible inputs; returning the last breakpoint keeps the function total.
	return prevH
}

// WaterFillFeasible reports whether a valid schedule exists in which task i
// completes at completions[i]. It is a thin wrapper around WaterFill that
// discards the schedule.
func WaterFillFeasible(inst *schedule.Instance, completions []float64) bool {
	_, err := WaterFill(inst, completions)
	return err == nil
}

// Normalize rebuilds the schedule's normal form: it extracts the completion
// times of the given valid schedule and reconstructs the water-filling
// schedule with the same completion times (Theorem 8). The objective value is
// unchanged; the number of allocation changes is at most n.
func Normalize(s *schedule.ColumnSchedule) (*schedule.ColumnSchedule, error) {
	return WaterFill(s.Inst, s.CompletionTimes())
}

// MinimizeMaxLateness computes a schedule minimizing the maximum lateness
// max_i (C_i - Due_i) by binary search on the lateness value, using the
// water-filling feasibility test. This is the application of the normal form
// mentioned in the introduction of the paper (the maximum-lateness problem is
// solvable with the same machinery once release dates are all zero).
func MinimizeMaxLateness(inst *schedule.Instance) (*schedule.ColumnSchedule, float64, error) {
	if err := inst.Validate(); err != nil {
		return nil, 0, err
	}
	n := inst.N()
	// Lower bound: every task needs at least V_i/δ_i time; upper bound: the
	// makespan-optimal schedule meets deadline d_i + (Cmax* - min d).
	lo := math.Inf(-1)
	minDue := math.Inf(1)
	for i := 0; i < n; i++ {
		if l := inst.Tasks[i].Volume/inst.EffectiveDelta(i) - inst.Tasks[i].Due; l > lo {
			lo = l
		}
		if inst.Tasks[i].Due < minDue {
			minDue = inst.Tasks[i].Due
		}
	}
	hi := inst.OptimalMakespan() - minDue
	if hi < lo {
		hi = lo
	}
	deadlines := func(l float64) []float64 {
		ds := make([]float64, n)
		for i := range ds {
			ds[i] = math.Max(0, inst.Tasks[i].Due+l)
		}
		return ds
	}
	if !WaterFillFeasible(inst, deadlines(hi)) {
		return nil, 0, fmt.Errorf("core: internal error: upper lateness bound %g is infeasible", hi)
	}
	if WaterFillFeasible(inst, deadlines(lo)) {
		s, err := WaterFill(inst, deadlines(lo))
		return s, lo, err
	}
	for iter := 0; iter < 100 && hi-lo > 1e-9*math.Max(1, math.Abs(hi)); iter++ {
		mid := (lo + hi) / 2
		if WaterFillFeasible(inst, deadlines(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	s, err := WaterFill(inst, deadlines(hi))
	if err != nil {
		return nil, 0, err
	}
	return s, hi, nil
}
