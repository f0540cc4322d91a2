package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
)

func TestGreedySingleTask(t *testing.T) {
	inst := mustInstance(t, 4, []schedule.Task{{Weight: 1, Volume: 6, Delta: 3}})
	s, err := Greedy(inst, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(s.CompletionTime(0), 2) {
		t.Errorf("C = %g, want 2", s.CompletionTime(0))
	}
}

func TestGreedyRejectsBadOrder(t *testing.T) {
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 1, Delta: 1},
		{Weight: 1, Volume: 1, Delta: 1},
	})
	if _, err := Greedy(inst, []int{0, 0}); err == nil {
		t.Errorf("duplicate order accepted")
	}
	if _, err := Greedy(inst, []int{0}); err == nil {
		t.Errorf("short order accepted")
	}
}

func TestGreedyTwoTasksSequencing(t *testing.T) {
	// P=2, both tasks δ=2, V=2: the first scheduled task takes the whole
	// platform and finishes at 1; the second follows and finishes at 2.
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 2, Delta: 2},
	})
	s, err := Greedy(inst, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if !numeric.ApproxEqual(s.CompletionTime(0), 1) || !numeric.ApproxEqual(s.CompletionTime(1), 2) {
		t.Errorf("completions = %v, want [1 2]", s.CompletionTimes())
	}
	if !numeric.ApproxEqual(s.SumCompletionTimes(), 3) {
		t.Errorf("ΣC = %g, want 3 (the optimum)", s.SumCompletionTimes())
	}
}

func TestGreedySecondTaskUsesLeftover(t *testing.T) {
	// P=3. First task δ=2 (completes at 1 using 2 processors); second task
	// δ=2 runs on the remaining processor until t=1 and then on 2 processors.
	inst := mustInstance(t, 3, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 3, Delta: 2},
	})
	s, err := Greedy(inst, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Task 1 processes 1 unit by t=1, then 2 more units at rate 2 -> C=2.
	if !numeric.ApproxEqual(s.CompletionTime(1), 2) {
		t.Errorf("C1 = %g, want 2", s.CompletionTime(1))
	}
	if !numeric.ApproxEqual(s.Alloc[1][0], 1) || !numeric.ApproxEqual(s.Alloc[1][1], 2) {
		t.Errorf("allocations of task 1 = %v", s.Alloc[1])
	}
}

func TestGreedySmith(t *testing.T) {
	inst := mustInstance(t, 1, []schedule.Task{
		{Weight: 1, Volume: 4, Delta: 1},
		{Weight: 10, Volume: 1, Delta: 1},
	})
	res, err := GreedySmith(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Smith order runs the heavy-weight short task first: objective
	// 10*1 + 1*5 = 15, which is optimal on a single processor.
	if !numeric.ApproxEqual(res.Objective, 15) {
		t.Errorf("objective = %g, want 15", res.Objective)
	}
	if res.Order[0] != 1 {
		t.Errorf("Smith order = %v", res.Order)
	}
}

func TestBestGreedyExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := randomInstance(rng, 4, 2)
	best, err := BestGreedy(inst, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Schedule.Validate(); err != nil {
		t.Fatalf("best greedy invalid: %v", err)
	}
	// No single heuristic order can beat the exhaustive best.
	smith, err := GreedySmith(inst)
	if err != nil {
		t.Fatal(err)
	}
	if best.Objective > smith.Objective+1e-9 {
		t.Errorf("best greedy %g worse than Smith greedy %g", best.Objective, smith.Objective)
	}
}

func TestBestGreedyHeuristicLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(rng, ExhaustiveGreedyLimit+4, 4)
	best, err := BestGreedy(inst, rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Schedule.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(best.Order) != inst.N() {
		t.Errorf("order length = %d", len(best.Order))
	}
}

// isGreedy reports whether s coincides, up to numeric tolerance, with the
// greedy schedule of its own completion order: whether Algorithm 3 could have
// produced it. It is the membership test behind Theorem 11 and Conjecture 12.
func isGreedy(s *schedule.ColumnSchedule) bool {
	g, err := Greedy(s.Inst, s.Order)
	if err != nil {
		return false
	}
	for j := range s.Times {
		if !numeric.ApproxEqualTol(g.Times[j], s.Times[j], 1e-6) {
			return false
		}
	}
	for i := range s.Alloc {
		for j := range s.Alloc[i] {
			if s.ColumnLength(j) <= numeric.Eps {
				continue
			}
			if !numeric.ApproxEqualTol(g.Alloc[i][j], s.Alloc[i][j], 1e-6) {
				return false
			}
		}
	}
	return true
}

func TestIsGreedy(t *testing.T) {
	// Two identical δ=P tasks: the greedy schedule for the order (0,1) has
	// completion order (0,1), so it is recognized as greedy; the Cmax-optimal
	// schedule stretches both tasks to the same completion time and is not.
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 2, Delta: 2},
	})
	g, err := Greedy(inst, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !isGreedy(g) {
		t.Errorf("greedy schedule not recognized as greedy")
	}
	cm, err := CmaxOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if isGreedy(cm) {
		t.Errorf("Cmax-optimal schedule wrongly recognized as greedy")
	}
}

// unitClassInstance builds an instance of the restricted class of Section
// V-B: P=1, V_i=1, w_i=1, δ_i in [1/2, 1].
func unitClassInstance(deltas []float64) *schedule.Instance {
	tasks := make([]schedule.Task, len(deltas))
	for i, d := range deltas {
		tasks[i] = schedule.Task{Weight: 1, Volume: 1, Delta: d}
	}
	return &schedule.Instance{P: 1, Tasks: tasks}
}

// unitClassRecurrence evaluates the closed-form greedy recurrence of Section
// V-B for the given δ values in schedule order σ (σ given as task indices).
func unitClassRecurrence(deltas []float64, sigma []int) []float64 {
	c := make([]float64, len(sigma))
	var cPrev, cPrev2 float64
	for i, task := range sigma {
		d := deltas[task]
		if i == 0 {
			c[i] = 1 / d
		} else {
			dPrev := deltas[sigma[i-1]]
			c[i] = cPrev + (1-(1-dPrev)*(cPrev-cPrev2))/d
		}
		cPrev2, cPrev = cPrev, c[i]
	}
	return c
}

func TestGreedyMatchesUnitClassRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		deltas := make([]float64, n)
		for i := range deltas {
			deltas[i] = 0.5 + 0.5*rng.Float64()
		}
		inst := unitClassInstance(deltas)
		sigma := rng.Perm(n)
		s, err := Greedy(inst, sigma)
		if err != nil {
			t.Fatal(err)
		}
		want := unitClassRecurrence(deltas, sigma)
		for i, task := range sigma {
			if !numeric.ApproxEqualTol(s.CompletionTime(task), want[i], 1e-6) {
				t.Fatalf("trial %d: task %d completion = %g, recurrence %g (σ=%v, δ=%v)",
					trial, task, s.CompletionTime(task), want[i], sigma, deltas)
			}
		}
	}
}

func TestOptimalOrderThreeTasksSmallestInMiddle(t *testing.T) {
	// Section V-B: with δ1 >= δ2 >= δ3, the orders (1,3,2) and (2,3,1) are
	// optimal (the smallest δ in the middle). Verify by enumeration.
	deltas := []float64{0.9, 0.8, 0.6} // δ1 >= δ2 >= δ3
	inst := unitClassInstance(deltas)
	bestObj := math.Inf(1)
	var bestOrders [][]int
	numeric.Permutations(3, func(p []int) bool {
		s, err := Greedy(inst, p)
		if err != nil {
			t.Fatal(err)
		}
		obj := s.SumCompletionTimes()
		if obj < bestObj-1e-9 {
			bestObj = obj
			bestOrders = [][]int{append([]int(nil), p...)}
		} else if numeric.ApproxEqualTol(obj, bestObj, 1e-9) {
			bestOrders = append(bestOrders, append([]int(nil), p...))
		}
		return true
	})
	// Task indices are 0-based: the paper's 1,3,2 is {0,2,1} and 2,3,1 is {1,2,0}.
	found132, found231 := false, false
	for _, o := range bestOrders {
		if o[0] == 0 && o[1] == 2 && o[2] == 1 {
			found132 = true
		}
		if o[0] == 1 && o[1] == 2 && o[2] == 0 {
			found231 = true
		}
	}
	if !found132 || !found231 {
		t.Errorf("optimal orders %v do not include (1,3,2) and (2,3,1)", bestOrders)
	}
}

func TestCmaxOptimalValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(rng, 1+rng.Intn(6), float64(1+rng.Intn(4)))
		s, err := CmaxOptimal(inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid: %v", err)
		}
		if !numeric.ApproxEqualTol(s.Makespan(), inst.OptimalMakespan(), 1e-6) {
			t.Errorf("makespan %g, want %g", s.Makespan(), inst.OptimalMakespan())
		}
	}
}

// Property: greedy schedules are always valid, and the greedy makespan is
// never smaller than the optimal makespan.
func TestQuickGreedyValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1+rng.Intn(7), float64(1+rng.Intn(4)))
		s, err := Greedy(inst, rng.Perm(inst.N()))
		if err != nil {
			return false
		}
		if err := s.Validate(); err != nil {
			return false
		}
		return s.Makespan() >= inst.OptimalMakespan()-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (Conjecture 13): on the unit class with δ_i >= P/2, the greedy
// objective of an order equals the greedy objective of the reversed order.
// The paper checked the identity formally up to 15 tasks; this float64 check
// complements the exact-rational verification in internal/exact.
func TestQuickConjecture13FloatingPoint(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%6)
		rng := rand.New(rand.NewSource(seed))
		deltas := make([]float64, n)
		for i := range deltas {
			deltas[i] = 0.5 + 0.5*rng.Float64()
		}
		inst := unitClassInstance(deltas)
		sigma := rng.Perm(n)
		forward, err := Greedy(inst, sigma)
		if err != nil {
			return false
		}
		backward, err := Greedy(inst, numeric.ReversePermutation(sigma))
		if err != nil {
			return false
		}
		return numeric.ApproxEqualTol(forward.SumCompletionTimes(), backward.SumCompletionTimes(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 11 structural consequence): on instances with homogeneous
// weights and δ_i > P/2, in the best greedy schedule each task is saturated in
// its completion column (Lemma 7).
func TestQuickLemma7SaturationInLastColumn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		p := float64(1 + rng.Intn(3))
		tasks := make([]schedule.Task, n)
		for i := range tasks {
			tasks[i] = schedule.Task{
				Weight: 1,
				Volume: 0.2 + rng.Float64(),
				Delta:  p/2 + 1e-3 + rng.Float64()*(p/2-1e-3),
			}
		}
		inst := &schedule.Instance{P: p, Tasks: tasks}
		best, err := BestGreedy(inst, rng, 0)
		if err != nil {
			return false
		}
		s := best.Schedule
		for i := 0; i < n; i++ {
			j := s.ColumnOf(i)
			if s.ColumnLength(j) <= numeric.Eps {
				continue
			}
			a := s.Alloc[i][j]
			// Saturated means a = δ_i (or the task is alone and bounded by P).
			if !numeric.ApproxEqualTol(a, inst.EffectiveDelta(i), 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
