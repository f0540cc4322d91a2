package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/stepfunc"
)

// Greedy builds the greedy schedule of Algorithm 3 for the given task order:
// tasks are considered one by one in the order σ, and each task is allocated
// as much resource as possible, as early as possible (at most δ_i processors
// and at most the processors left over by the previously placed tasks), so
// that its completion time is minimized given the earlier choices.
func Greedy(inst *schedule.Instance, order []int) (*schedule.ColumnSchedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	if len(order) != n || !numeric.IsPermutation(order) {
		return nil, fmt.Errorf("core: order %v is not a permutation of the %d tasks", order, n)
	}
	avail := stepfunc.Constant(inst.P)
	profiles := make([]*stepfunc.StepFunc, n)
	completions := make([]float64, n)
	for _, task := range order {
		delta := inst.EffectiveDelta(task)
		volume := inst.Tasks[task].Volume
		completion, ok := avail.TimeToProcess(0, delta, volume)
		if !ok {
			// Cannot happen: the availability profile always ends with P free
			// processors, so every volume is eventually processed.
			return nil, fmt.Errorf("core: greedy could not place task %d", task)
		}
		// The task's allocation is min(δ, availability) on [0, completion).
		profile := stepfunc.Min(avail, stepfunc.Constant(delta))
		profile.SetOn(completion, math.Inf(1), 0)
		profile.Compact()
		profiles[task] = profile
		completions[task] = completion
		avail.ConsumeMin(0, completion, delta)
	}
	return schedule.FromAllocationFunctions(inst, completions, profiles)
}

// GreedyResult pairs a greedy schedule with the order that produced it.
type GreedyResult struct {
	// Order is the task order handed to Algorithm 3.
	Order []int
	// Schedule is the resulting schedule.
	Schedule *schedule.ColumnSchedule
	// Objective is the weighted sum of completion times of the schedule.
	Objective float64
}

// GreedySmith runs Algorithm 3 with Smith's ordering (non-decreasing V_i/w_i),
// the natural heuristic order discussed in the conclusion of the paper.
func GreedySmith(inst *schedule.Instance) (*GreedyResult, error) {
	order := inst.SmithOrder()
	s, err := Greedy(inst, order)
	if err != nil {
		return nil, err
	}
	return &GreedyResult{Order: order, Schedule: s, Objective: s.WeightedCompletionTime()}, nil
}

// ExhaustiveGreedyLimit is the largest task count for which BestGreedy
// enumerates every one of the n! orders; beyond it a heuristic portfolio of
// orders is used instead.
const ExhaustiveGreedyLimit = 8

// BestGreedy searches for the best greedy schedule. For instances with at
// most ExhaustiveGreedyLimit tasks it enumerates all n! orders (this is the
// procedure used in the paper's Section V-A experiments); for larger
// instances it evaluates a portfolio of heuristic orders (Smith, δ ascending
// and descending, weight descending, height ascending) plus `extraRandom`
// random orders drawn from rng, and returns the best one found.
func BestGreedy(inst *schedule.Instance, rng *rand.Rand, extraRandom int) (*GreedyResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	var best *GreedyResult
	consider := func(order []int) error {
		s, err := Greedy(inst, order)
		if err != nil {
			return err
		}
		obj := s.WeightedCompletionTime()
		if best == nil || obj < best.Objective {
			best = &GreedyResult{
				Order:     append([]int(nil), order...),
				Schedule:  s,
				Objective: obj,
			}
		}
		return nil
	}

	if n <= ExhaustiveGreedyLimit {
		var firstErr error
		numeric.Permutations(n, func(perm []int) bool {
			if err := consider(perm); err != nil {
				firstErr = err
				return false
			}
			return true
		})
		if firstErr != nil {
			return nil, firstErr
		}
		return best, nil
	}

	orders := [][]int{
		inst.SmithOrder(),
		inst.DeltaDescendingOrder(),
		numeric.ReversePermutation(inst.DeltaDescendingOrder()),
		weightDescendingOrder(inst),
		heightAscendingOrder(inst),
	}
	for _, o := range orders {
		if err := consider(o); err != nil {
			return nil, err
		}
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	for k := 0; k < extraRandom; k++ {
		if err := consider(rng.Perm(n)); err != nil {
			return nil, err
		}
	}
	return best, nil
}

func weightDescendingOrder(inst *schedule.Instance) []int {
	order := numeric.IdentityPermutation(inst.N())
	insertionSortBy(order, func(a, b int) bool {
		return inst.Tasks[a].Weight > inst.Tasks[b].Weight
	})
	return order
}

func heightAscendingOrder(inst *schedule.Instance) []int {
	order := numeric.IdentityPermutation(inst.N())
	insertionSortBy(order, func(a, b int) bool {
		return inst.Tasks[a].Height() < inst.Tasks[b].Height()
	})
	return order
}

// insertionSortBy sorts the small order slices used for heuristic portfolios;
// stability matters for reproducibility and n is tiny, so insertion sort keeps
// the helper dependency-free.
func insertionSortBy(s []int, less func(a, b int) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// CmaxOptimal builds a schedule with the optimal makespan
// Cmax* = max(ΣV_i/P, max_i V_i/δ_i): all tasks complete exactly at Cmax*,
// each running at constant rate V_i/Cmax*. It is used as the makespan entry
// of the Table I comparison and to exercise the water-filling algorithm with
// tied completion times.
func CmaxOptimal(inst *schedule.Instance) (*schedule.ColumnSchedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cmax := inst.OptimalMakespan()
	completions := make([]float64, inst.N())
	for i := range completions {
		completions[i] = cmax
	}
	return WaterFill(inst, completions)
}
