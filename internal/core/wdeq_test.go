package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
)

func TestShareAllocationProportional(t *testing.T) {
	// No δ limit binds: shares are proportional to weights.
	alloc := ShareAllocationInto(nil, 6, []float64{1, 2, 3}, []float64{10, 10, 10})
	want := []float64{1, 2, 3}
	for i := range want {
		if !numeric.ApproxEqual(alloc[i], want[i]) {
			t.Errorf("alloc = %v, want %v", alloc, want)
		}
	}
}

func TestShareAllocationPinsAtDelta(t *testing.T) {
	// Task 0 would get 6*3/4 = 4.5 but is capped at 1; the surplus goes to task 1.
	alloc := ShareAllocationInto(nil, 6, []float64{3, 1}, []float64{1, 10})
	if !numeric.ApproxEqual(alloc[0], 1) {
		t.Errorf("alloc[0] = %g, want 1", alloc[0])
	}
	if !numeric.ApproxEqual(alloc[1], 5) {
		t.Errorf("alloc[1] = %g, want 5", alloc[1])
	}
}

func TestShareAllocationCascadingPins(t *testing.T) {
	// Pinning one task can push another task over its own bound.
	alloc := ShareAllocationInto(nil, 10, []float64{1, 1, 1}, []float64{1, 3, 100})
	if !numeric.ApproxEqual(alloc[0], 1) || !numeric.ApproxEqual(alloc[1], 3) || !numeric.ApproxEqual(alloc[2], 6) {
		t.Errorf("alloc = %v, want [1 3 6]", alloc)
	}
}

func TestShareAllocationAllPinned(t *testing.T) {
	// Σδ < P: everyone runs at δ, processors are left idle.
	alloc := ShareAllocationInto(nil, 10, []float64{1, 1}, []float64{2, 3})
	if !numeric.ApproxEqual(alloc[0], 2) || !numeric.ApproxEqual(alloc[1], 3) {
		t.Errorf("alloc = %v, want [2 3]", alloc)
	}
}

func TestShareAllocationEmpty(t *testing.T) {
	if len(ShareAllocationInto(nil, 4, nil, nil)) != 0 {
		t.Errorf("expected empty allocation")
	}
}

func TestEquipartitionAllocation(t *testing.T) {
	alloc := EquipartitionAllocationInto(nil, 4, []float64{4, 4})
	if !numeric.ApproxEqual(alloc[0], 2) || !numeric.ApproxEqual(alloc[1], 2) {
		t.Errorf("DEQ alloc = %v", alloc)
	}
}

func TestRunWDEQSingleTask(t *testing.T) {
	inst := mustInstance(t, 4, []schedule.Task{{Weight: 2, Volume: 6, Delta: 3}})
	s, err := RunWDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if !numeric.ApproxEqual(s.CompletionTime(0), 2) {
		t.Errorf("C = %g, want 2 (V/δ)", s.CompletionTime(0))
	}
}

func TestRunWDEQTwoIdenticalTasks(t *testing.T) {
	// P=2, two identical tasks with δ=2: each gets one processor and both
	// finish at time 2 (the classic DEQ behaviour, ratio 4/3 vs optimal 3).
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 2, Delta: 2},
	})
	s, err := RunWDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if !numeric.ApproxEqual(s.CompletionTime(0), 2) || !numeric.ApproxEqual(s.CompletionTime(1), 2) {
		t.Errorf("completions = %v, want both 2", s.CompletionTimes())
	}
	if !numeric.ApproxEqual(s.SumCompletionTimes(), 4) {
		t.Errorf("ΣC = %g, want 4", s.SumCompletionTimes())
	}
}

func TestRunWDEQWeightedSingleProcessor(t *testing.T) {
	// P=1, δ_i=1: WDEQ is weighted processor sharing. Tasks (V=1,w=1) and
	// (V=1,w=3): shares 1/4 and 3/4. Task 2 completes at 4/3, then task 1
	// runs alone and completes at 2.
	inst := mustInstance(t, 1, []schedule.Task{
		{Weight: 1, Volume: 1, Delta: 1},
		{Weight: 3, Volume: 1, Delta: 1},
	})
	s, err := RunWDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(s.CompletionTime(1), 4.0/3) {
		t.Errorf("C2 = %g, want 4/3", s.CompletionTime(1))
	}
	if !numeric.ApproxEqual(s.CompletionTime(0), 2) {
		t.Errorf("C1 = %g, want 2", s.CompletionTime(0))
	}
}

func TestRunWDEQRespectsDeltaBound(t *testing.T) {
	// A heavy task with a small δ must not hog the machine.
	inst := mustInstance(t, 4, []schedule.Task{
		{Weight: 100, Volume: 4, Delta: 1},
		{Weight: 1, Volume: 3, Delta: 4},
	})
	s, err := RunWDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Task 0 runs at 1 processor for its whole life: C0 = 4.
	if !numeric.ApproxEqual(s.CompletionTime(0), 4) {
		t.Errorf("C0 = %g, want 4", s.CompletionTime(0))
	}
	// Task 1 runs at 3 processors while task 0 is alive: C1 = 1.
	if !numeric.ApproxEqual(s.CompletionTime(1), 1) {
		t.Errorf("C1 = %g, want 1", s.CompletionTime(1))
	}
}

func TestRunDEQIgnoresWeights(t *testing.T) {
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 100, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 2, Delta: 2},
	})
	s, err := RunDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	// DEQ splits evenly regardless of weights: both complete at 2.
	if !numeric.ApproxEqual(s.CompletionTime(0), 2) || !numeric.ApproxEqual(s.CompletionTime(1), 2) {
		t.Errorf("completions = %v", s.CompletionTimes())
	}
}

func TestWDEQApproximationRatio(t *testing.T) {
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 2, Delta: 2},
	})
	r, err := WDEQApproximationRatio(inst, 3) // the optimum is 3
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(r, 4.0/3) {
		t.Errorf("ratio = %g, want 4/3", r)
	}
	if r, _ := WDEQApproximationRatio(inst, 0); r < 1e18 && !numeric.ApproxEqual(r, 1e18) {
		t.Errorf("ratio with zero reference should be +Inf, got %g", r)
	}
}

// Property: WDEQ always produces a valid schedule whose allocation is never
// idle while an unfinished task could still use processors (the equipartition
// always hands out min(P, Σδ) processors).
func TestQuickWDEQValidAndWorkConserving(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1+rng.Intn(6), float64(1+rng.Intn(4)))
		s, err := RunWDEQ(inst)
		if err != nil {
			return false
		}
		if err := s.Validate(); err != nil {
			return false
		}
		// Work conservation: in every column before the last completion, the
		// total allocation is min(P, Σ_active δ_i).
		for j := 0; j < s.NumColumns(); j++ {
			if s.ColumnLength(j) <= numeric.Eps {
				continue
			}
			var used, deltaSum float64
			for i := 0; i < inst.N(); i++ {
				used += s.Alloc[i][j]
				if s.ColumnOf(i) >= j {
					deltaSum += inst.EffectiveDelta(i)
				}
			}
			expect := inst.P
			if deltaSum < expect {
				expect = deltaSum
			}
			if !numeric.ApproxEqualTol(used, expect, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 4 necessary condition): the WDEQ objective never exceeds
// twice the best greedy objective, because the best greedy objective is an
// upper bound of the optimum and WDEQ is a 2-approximation of the optimum...
// the implication actually needed is WDEQ <= 2·OPT <= 2·BestGreedy, which is
// what is checked here on small instances.
func TestQuickWDEQWithinTwiceBestGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1+rng.Intn(4), float64(1+rng.Intn(3)))
		s, err := RunWDEQ(inst)
		if err != nil {
			return false
		}
		best, err := BestGreedy(inst, rng, 0)
		if err != nil {
			return false
		}
		return s.WeightedCompletionTime() <= 2*best.Objective+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The append-into-dst variants must respect the append base offset, produce
// the same floating-point sequence at any offset, and DEQ must be WDEQ with
// unit weights.
func TestShareAllocationIntoAppendOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		p := 1 + 7*rng.Float64()
		weights := make([]float64, n)
		deltas := make([]float64, n)
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
			deltas[i] = 0.1 + p*rng.Float64()
		}
		want := ShareAllocationInto(nil, p, weights, deltas)
		prefix := []float64{-7, -8}
		got := ShareAllocationInto(append([]float64(nil), prefix...), p, weights, deltas)
		if len(got) != len(prefix)+n {
			t.Fatalf("trial %d: got length %d, want %d", trial, len(got), len(prefix)+n)
		}
		if got[0] != -7 || got[1] != -8 {
			t.Fatalf("trial %d: prefix clobbered: %v", trial, got[:2])
		}
		for i := range want {
			if got[len(prefix)+i] != want[i] {
				t.Errorf("trial %d: entry %d = %g, want %g", trial, i, got[len(prefix)+i], want[i])
			}
		}
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		eqWant := ShareAllocationInto(nil, p, ones, deltas)
		eqGot := EquipartitionAllocationInto(nil, p, deltas)
		for i := range eqWant {
			if eqGot[i] != eqWant[i] {
				t.Errorf("trial %d: equipartition entry %d = %g, want %g", trial, i, eqGot[i], eqWant[i])
			}
		}
	}
}

// The dst-threaded fixed point must not allocate when dst has capacity: this
// is the contract the engine's zero-allocation hot loop is built on.
func TestShareAllocationIntoZeroAlloc(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	deltas := []float64{1, 1, 2, 8}
	dst := make([]float64, 0, len(weights))
	allocs := testing.AllocsPerRun(100, func() {
		dst = ShareAllocationInto(dst[:0], 4, weights, deltas)
	})
	if allocs != 0 {
		t.Errorf("ShareAllocationInto allocated %.3g times per call, want 0", allocs)
	}
}
