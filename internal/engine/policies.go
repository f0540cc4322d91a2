package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/malleable-sched/malleable/internal/core"
)

// WDEQPolicy is the weighted dynamic equipartition of the paper's Algorithm 1:
// the available capacity is split between the alive tasks proportionally to
// their weights, tasks whose share exceeds their degree bound are pinned at δ
// and the surplus is redistributed (core.ShareAllocationFunc's fixed point).
// It is non-clairvoyant — it never reads volumes — and is the library's
// default policy.
type WDEQPolicy struct{}

// Name implements Policy.
func (WDEQPolicy) Name() string { return "WDEQ" }

// Allocate implements Policy. It reads weights and degree bounds through
// accessors, so it performs no allocation when dst has spare capacity.
func (WDEQPolicy) Allocate(p float64, alive []TaskState, dst []float64) []float64 {
	return core.ShareAllocationFunc(dst, p, len(alive),
		func(i int) float64 { return alive[i].Weight },
		func(i int) float64 { return alive[i].Delta })
}

// EqualShareWeight implements EqualShareCertifier: with no task pinned at its
// degree bound, the share fixed point is exactly the weight-proportional
// split, which is what lets the engine run WDEQ segments on the virtual
// clock without invoking Allocate.
func (WDEQPolicy) EqualShareWeight(weight float64) float64 { return weight }

// DEQPolicy is the unweighted dynamic equipartition (all weights treated as
// one), the baseline of Deng et al. that WDEQ generalizes.
type DEQPolicy struct{}

// Name implements Policy.
func (DEQPolicy) Name() string { return "DEQ" }

// Allocate implements Policy.
func (DEQPolicy) Allocate(p float64, alive []TaskState, dst []float64) []float64 {
	return core.ShareAllocationFunc(dst, p, len(alive),
		func(int) float64 { return 1 },
		func(i int) float64 { return alive[i].Delta })
}

// EqualShareWeight implements EqualShareCertifier: DEQ splits capacity
// evenly, i.e. proportionally to the constant weight 1.
func (DEQPolicy) EqualShareWeight(float64) float64 { return 1 }

// WeightGreedyPolicy is the online analogue of a greedy schedule ordered by
// weight: the heaviest alive task receives min(δ, what is left), then the
// next, and so on. Ties go to the earlier release, then to the lower ID. It
// is non-clairvoyant (it never looks at volumes).
type WeightGreedyPolicy struct{}

// Name implements Policy.
func (WeightGreedyPolicy) Name() string { return "weight-greedy" }

// Allocate implements Policy. This stateless form allocates rank scratch per
// call; the engine's run loop uses the scratch-holding clone from CloneForRun
// instead, which is allocation-free in steady state.
func (WeightGreedyPolicy) Allocate(p float64, alive []TaskState, dst []float64) []float64 {
	g := greedyRun{name: "weight-greedy", less: weightGreedyLess}
	return g.Allocate(p, alive, dst)
}

// CloneForRun implements RunCloner.
func (WeightGreedyPolicy) CloneForRun() Policy {
	return &greedyRun{name: "weight-greedy", less: weightGreedyLess}
}

func weightGreedyLess(a, b TaskState) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return a.ID < b.ID
}

// SmithRatioPolicy is a clairvoyant baseline: it serves alive tasks greedily
// in non-decreasing order of remaining-volume over weight (the online
// counterpart of Smith's rule). Because it reads TaskState.Remaining it has
// strictly more information than the paper's non-clairvoyant model allows; it
// exists to measure how much WDEQ loses to clairvoyance under load.
type SmithRatioPolicy struct{}

// Name implements Policy.
func (SmithRatioPolicy) Name() string { return "smith-ratio" }

// Clairvoyant implements the Clairvoyant marker: this policy reads
// TaskState.Remaining by design.
func (SmithRatioPolicy) Clairvoyant() {}

// Allocate implements Policy. See WeightGreedyPolicy.Allocate for the
// stateless-versus-cloned trade-off.
func (SmithRatioPolicy) Allocate(p float64, alive []TaskState, dst []float64) []float64 {
	g := greedyRun{name: "smith-ratio", less: smithRatioLess}
	return g.Allocate(p, alive, dst)
}

// CloneForRun implements RunCloner.
func (SmithRatioPolicy) CloneForRun() Policy {
	return &greedyRun{name: "smith-ratio", less: smithRatioLess}
}

func smithRatioLess(a, b TaskState) bool {
	ra, rb := a.Remaining/a.Weight, b.Remaining/b.Weight
	if ra != rb {
		return ra < rb
	}
	return a.ID < b.ID
}

// greedyRun hands out the capacity following the order induced by less: each
// task in turn receives min(δ, remaining capacity). It owns the rank-index
// scratch, so one clone serves a whole run without allocating.
type greedyRun struct {
	name   string
	less   func(a, b TaskState) bool
	sorter rankSorter
}

// Name implements Policy.
func (g *greedyRun) Name() string { return g.name }

// Allocate implements Policy.
func (g *greedyRun) Allocate(p float64, alive []TaskState, dst []float64) []float64 {
	s := &g.sorter
	s.idx = s.idx[:0]
	for i := range alive {
		s.idx = append(s.idx, i)
	}
	s.alive, s.less = alive, g.less
	// Every comparator breaks ties by ID, so the order is total and the
	// unstable sort is deterministic.
	sort.Sort(s)
	s.alive = nil

	base := len(dst)
	for range alive {
		dst = append(dst, 0)
	}
	alloc := dst[base:]
	capacity := p
	for _, i := range s.idx {
		a := math.Min(alive[i].Delta, capacity)
		if a < 0 {
			a = 0
		}
		alloc[i] = a
		capacity -= a
	}
	return dst
}

// rankSorter sorts a task-index slice by a TaskState comparator without the
// closure and reflection overhead of sort.Slice.
type rankSorter struct {
	idx   []int
	alive []TaskState
	less  func(a, b TaskState) bool
}

func (s *rankSorter) Len() int           { return len(s.idx) }
func (s *rankSorter) Swap(i, j int)      { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *rankSorter) Less(i, j int) bool { return s.less(s.alive[s.idx[i]], s.alive[s.idx[j]]) }

// PolicyNames lists the policy names accepted by PolicyByName.
func PolicyNames() []string {
	return []string{"wdeq", "deq", "weight-greedy", "smith-ratio"}
}

// PolicyByName resolves a policy name: "wdeq" and "deq" are the
// non-clairvoyant equipartition policies of the paper, "weight-greedy" is the
// non-clairvoyant greedy priority policy, and "smith-ratio" is the
// clairvoyant Smith-rule baseline.
func PolicyByName(name string) (Policy, error) {
	switch strings.ToLower(name) {
	case "wdeq":
		return WDEQPolicy{}, nil
	case "deq":
		return DEQPolicy{}, nil
	case "weight-greedy":
		return WeightGreedyPolicy{}, nil
	case "smith-ratio":
		return SmithRatioPolicy{}, nil
	default:
		return nil, fmt.Errorf("engine: unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
	}
}
