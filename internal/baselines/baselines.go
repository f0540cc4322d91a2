// Package baselines implements the comparison algorithms appearing in
// Table I of the paper: Smith's rule on the squashed platform, SPT and LRF
// (Kawaguchi–Kyan) list scheduling for single-processor tasks and weighted
// round-robin processor sharing. They serve as reference points for the Table I reproduction
// (experiment E9) and as sanity baselines in the examples.
package baselines

import (
	"fmt"
	"math"
	"sort"

	"github.com/malleable-sched/malleable/internal/core"
	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/stepfunc"
)

// SmithSequential schedules the tasks one after another, each alone on the
// platform at min(δ_i, P) processors, in Smith order (non-decreasing V_i/w_i).
// When every δ_i >= P this is Smith's rule on the squashed platform and is
// optimal (the "= P, clairvoyant, polynomial" row of Table I); for general
// instances it is a simple clairvoyant baseline.
func SmithSequential(inst *schedule.Instance) (*schedule.ColumnSchedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	order := inst.SmithOrder()
	completions := make([]float64, inst.N())
	profiles := make([]*stepfunc.StepFunc, inst.N())
	now := 0.0
	for _, task := range order {
		width := inst.EffectiveDelta(task)
		duration := inst.Tasks[task].Volume / width
		profile := stepfunc.Constant(0)
		profile.AddOn(now, now+duration, width)
		profiles[task] = profile
		now += duration
		completions[task] = now
	}
	return schedule.FromAllocationFunctions(inst, completions, profiles)
}

// ListSchedule performs non-preemptive list scheduling of single-processor
// tasks: tasks are taken in the given order and each starts on the processor
// that becomes available first. Every task must have δ_i >= 1; it runs on
// exactly one processor for V_i time units. This is the classical machinery
// behind the δ_i = 1 rows of Table I.
func ListSchedule(inst *schedule.Instance, order []int) (*schedule.ColumnSchedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if len(order) != inst.N() || !numeric.IsPermutation(order) {
		return nil, fmt.Errorf("baselines: order %v is not a permutation of the %d tasks", order, inst.N())
	}
	p := int(math.Floor(inst.P + numeric.Eps))
	if p < 1 {
		return nil, fmt.Errorf("baselines: list scheduling needs at least one whole processor, P = %g", inst.P)
	}
	for i := range inst.Tasks {
		if inst.Tasks[i].Delta < 1-numeric.Eps {
			return nil, fmt.Errorf("baselines: list scheduling requires δ_i >= 1, task %d has δ = %g", i, inst.Tasks[i].Delta)
		}
	}
	free := make([]float64, p) // next free time of each processor
	completions := make([]float64, inst.N())
	profiles := make([]*stepfunc.StepFunc, inst.N())
	for _, task := range order {
		// Pick the processor that frees up first.
		best := 0
		for q := 1; q < p; q++ {
			if free[q] < free[best] {
				best = q
			}
		}
		start := free[best]
		end := start + inst.Tasks[task].Volume
		free[best] = end
		completions[task] = end
		profile := stepfunc.Constant(0)
		profile.AddOn(start, end, 1)
		profiles[task] = profile
	}
	return schedule.FromAllocationFunctions(inst, completions, profiles)
}

// SPT runs shortest-processing-time list scheduling (optimal for ΣC_i with
// single-processor tasks, the "δ=1, ΣC_i, clairvoyant" row of Table I).
func SPT(inst *schedule.Instance) (*schedule.ColumnSchedule, error) {
	order := numeric.IdentityPermutation(inst.N())
	sort.SliceStable(order, func(a, b int) bool {
		return inst.Tasks[order[a]].Volume < inst.Tasks[order[b]].Volume
	})
	return ListSchedule(inst, order)
}

// LRF runs largest-ratio-first list scheduling (WSPT order, non-increasing
// w_i/V_i), the (1+√2)/2-approximation of Kawaguchi and Kyan for ΣwC with
// single-processor tasks (the last row of Table I).
func LRF(inst *schedule.Instance) (*schedule.ColumnSchedule, error) {
	order := numeric.IdentityPermutation(inst.N())
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := inst.Tasks[order[a]], inst.Tasks[order[b]]
		return ta.Weight/ta.Volume > tb.Weight/tb.Volume
	})
	return ListSchedule(inst, order)
}

// WeightedRoundRobin simulates weighted processor sharing of a single
// processor (or, equivalently, of the squashed platform of speed P treated as
// one processor): every alive task receives a share proportional to its
// weight, recomputed at completions. It is the non-clairvoyant
// 2-approximation of Kim and Chwa for the "δ = P" row of Table I, and ignores
// the individual degree bounds by design.
func WeightedRoundRobin(inst *schedule.Instance) (*schedule.ColumnSchedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	relaxed := inst.Clone()
	for i := range relaxed.Tasks {
		relaxed.Tasks[i].Delta = relaxed.P
	}
	s, err := core.RunWDEQ(relaxed)
	if err != nil {
		return nil, err
	}
	// Rebind the schedule to the original instance: the allocations are valid
	// for it only when δ_i >= P; callers use the completion times and the
	// objective, which is what the baseline is for.
	out := s.Clone()
	out.Inst = inst
	return out, nil
}

// Comparison is one row of an algorithm comparison: the algorithm name, its
// objective value and its ratio to a reference value (typically the optimum
// or a lower bound).
type Comparison struct {
	Name      string
	Objective float64
	Ratio     float64
}

// CompareOnInstance runs the library's main algorithms and the applicable
// baselines on the instance and reports their weighted completion times
// relative to the given reference value. Baselines whose assumptions do not
// hold for the instance (for example list scheduling when some δ_i < 1) are
// skipped.
func CompareOnInstance(inst *schedule.Instance, reference float64) ([]Comparison, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	var rows []Comparison
	add := func(name string, s *schedule.ColumnSchedule, err error) {
		if err != nil {
			return
		}
		obj := s.WeightedCompletionTime()
		ratio := math.Inf(1)
		if reference > 0 {
			ratio = obj / reference
		}
		rows = append(rows, Comparison{Name: name, Objective: obj, Ratio: ratio})
	}

	wdeq, err := core.RunWDEQ(inst)
	add("WDEQ (non-clairvoyant)", wdeq, err)
	deq, err := core.RunDEQ(inst)
	add("DEQ (unweighted, non-clairvoyant)", deq, err)
	smithGreedy, err := core.GreedySmith(inst)
	if err == nil {
		add("Greedy (Smith order)", smithGreedy.Schedule, nil)
	}
	best, err := core.BestGreedy(inst, nil, 16)
	if err == nil {
		add("Greedy (best order)", best.Schedule, nil)
	}
	cmax, err := core.CmaxOptimal(inst)
	add("Cmax-optimal (all deadlines equal)", cmax, err)
	smithSeq, err := SmithSequential(inst)
	add("Smith sequential", smithSeq, err)
	wrr, err := WeightedRoundRobin(inst)
	add("Weighted round-robin (δ ignored)", wrr, err)

	allUnit := true
	for i := range inst.Tasks {
		if inst.Tasks[i].Delta < 1 {
			allUnit = false
			break
		}
	}
	if allUnit && inst.P >= 1 {
		spt, err := SPT(inst)
		add("SPT list scheduling (δ=1 view)", spt, err)
		lrf, err := LRF(inst)
		add("LRF / Kawaguchi-Kyan (δ=1 view)", lrf, err)
	}
	return rows, nil
}
