package core

import (
	"math"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/stepfunc"
)

// ShareAllocationInto implements the resource-sharing rule of Algorithm 1
// (WDEQ): the P processors are split between the active tasks proportionally
// to their weights; tasks whose proportional share exceeds their degree bound
// δ_i are pinned at δ_i and the surplus is redistributed among the others,
// repeatedly, until a fixed point is reached.
//
// weights and deltas describe the active tasks only; the shares always sum to
// at most P. The function is purely combinatorial (it never looks at
// volumes), which is what makes WDEQ non-clairvoyant. It follows the
// append-into-dst convention of the hot engine loop: the n shares are
// appended to dst and the extended slice is returned. When
// cap(dst) >= len(dst)+n no allocation is performed, so callers that thread
// the same buffer through every event run allocation-free in steady state.
func ShareAllocationInto(dst []float64, p float64, weights, deltas []float64) []float64 {
	return ShareAllocationFunc(dst, p, len(weights),
		func(i int) float64 { return weights[i] },
		func(i int) float64 { return deltas[i] })
}

// unpinned marks a task whose share is still being negotiated by the
// fixed-point loop of ShareAllocationFunc. Real allocations are never
// negative, so the sentinel doubles as the "pinned" flag and the usual
// separate bool scratch slice disappears.
const unpinned = -1

// ShareAllocationFunc is the accessor form of the sharing rule: the weights
// and degree bounds of the n active tasks are read through weight(i) and
// delta(i) instead of materialized slices, and the shares are appended to
// dst. Policies that observe task structs (engine.TaskState) call this
// directly so no per-event weight/delta slices exist at all.
func ShareAllocationFunc(dst []float64, p float64, n int, weight, delta func(int) float64) []float64 {
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, unpinned)
	}
	alloc := dst[base:]
	remaining := p
	for {
		var weightSum float64
		for i := 0; i < n; i++ {
			if alloc[i] == unpinned {
				weightSum += weight(i)
			}
		}
		if weightSum <= 0 {
			for i := 0; i < n; i++ {
				if alloc[i] == unpinned {
					alloc[i] = 0
				}
			}
			break
		}
		changed := false
		for i := 0; i < n; i++ {
			if alloc[i] != unpinned {
				continue
			}
			share := weight(i) * remaining / weightSum
			if d := delta(i); d < share {
				alloc[i] = d
				remaining -= d
				changed = true
			}
		}
		if !changed {
			for i := 0; i < n; i++ {
				if alloc[i] == unpinned {
					alloc[i] = weight(i) * remaining / weightSum
				}
			}
			break
		}
	}
	return dst
}

// EquipartitionAllocationInto is the unweighted DEQ sharing rule, where every
// active task has weight one, with the append-into-dst convention of
// ShareAllocationInto.
func EquipartitionAllocationInto(dst []float64, p float64, deltas []float64) []float64 {
	return ShareAllocationFunc(dst, p, len(deltas),
		func(int) float64 { return 1 },
		func(i int) float64 { return deltas[i] })
}

// RunWDEQ simulates the non-clairvoyant WDEQ algorithm (Algorithm 1 of the
// paper) on the instance and returns the resulting column-based schedule.
// The scheduler re-computes the weighted equipartition every time a task
// completes; it never uses the task volumes to take decisions (they are used
// by the simulation only to detect completions), which is exactly the
// non-clairvoyant execution model of Section III.
func RunWDEQ(inst *schedule.Instance) (*schedule.ColumnSchedule, error) {
	return runEquipartition(inst, false)
}

// RunDEQ simulates the unweighted DEQ algorithm of Deng et al. (all weights
// treated as one), the baseline WDEQ generalizes.
func RunDEQ(inst *schedule.Instance) (*schedule.ColumnSchedule, error) {
	return runEquipartition(inst, true)
}

func runEquipartition(inst *schedule.Instance, ignoreWeights bool) (*schedule.ColumnSchedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	remaining := make([]float64, n)
	active := make([]int, 0, n)
	profiles := make([]*stepfunc.StepFunc, n)
	completions := make([]float64, n)
	for i := range remaining {
		remaining[i] = inst.Tasks[i].Volume
		active = append(active, i)
		profiles[i] = stepfunc.Constant(0)
	}
	now := 0.0
	// Scratch threaded through every decision point so the simulation loop
	// does not allocate per event (the append-into-dst contract of
	// ShareAllocationInto).
	weights := make([]float64, 0, n)
	deltas := make([]float64, 0, n)
	var allocBuf []float64
	for len(active) > 0 {
		weights, deltas = weights[:0], deltas[:0]
		for _, i := range active {
			if !ignoreWeights {
				weights = append(weights, inst.Tasks[i].Weight)
			}
			deltas = append(deltas, inst.EffectiveDelta(i))
		}
		if ignoreWeights {
			allocBuf = EquipartitionAllocationInto(allocBuf[:0], inst.P, deltas)
		} else {
			allocBuf = ShareAllocationInto(allocBuf[:0], inst.P, weights, deltas)
		}
		alloc := allocBuf

		// Next event: the earliest completion under the current allocation.
		dt := math.Inf(1)
		for k, i := range active {
			if alloc[k] <= 0 {
				continue
			}
			if d := remaining[i] / alloc[k]; d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			// No active task makes progress: impossible for valid instances
			// because the sharing rule always hands out positive allocations.
			return nil, errNoProgress
		}

		for k, i := range active {
			if alloc[k] <= 0 {
				continue
			}
			profiles[i].AddOn(now, now+dt, alloc[k])
			remaining[i] -= alloc[k] * dt
		}
		now += dt

		// Retire completed tasks (several may finish simultaneously).
		stillActive := active[:0]
		for _, i := range active {
			if remaining[i] <= 1e-9*math.Max(1, inst.Tasks[i].Volume) {
				completions[i] = now
				remaining[i] = 0
			} else {
				stillActive = append(stillActive, i)
			}
		}
		active = stillActive
	}
	return schedule.FromAllocationFunctions(inst, completions, profiles)
}

// errNoProgress reports a stalled equipartition simulation; it cannot occur
// for valid instances and exists to avoid an infinite loop on corrupted data.
var errNoProgress = &noProgressError{}

type noProgressError struct{}

func (*noProgressError) Error() string {
	return "core: equipartition simulation made no progress (corrupt instance?)"
}

// WDEQApproximationRatio runs WDEQ on the instance and returns the ratio of
// its objective to the given reference value (typically the optimum or the
// LowerBound). It returns +Inf if the reference is not positive.
func WDEQApproximationRatio(inst *schedule.Instance, reference float64) (float64, error) {
	s, err := RunWDEQ(inst)
	if err != nil {
		return 0, err
	}
	if reference <= numeric.Eps {
		return math.Inf(1), nil
	}
	return s.WeightedCompletionTime() / reference, nil
}
