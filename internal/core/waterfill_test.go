package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
)

func TestWaterFillSingleTask(t *testing.T) {
	inst := mustInstance(t, 4, []schedule.Task{{Weight: 1, Volume: 6, Delta: 3}})
	s, err := WaterFill(inst, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if !numeric.ApproxEqual(s.Alloc[0][0], 3) {
		t.Errorf("allocation = %g, want 3", s.Alloc[0][0])
	}
}

func TestWaterFillInfeasibleDetection(t *testing.T) {
	inst := mustInstance(t, 2, []schedule.Task{{Weight: 1, Volume: 6, Delta: 3}})
	// Even at full platform width (2), 6 units cannot finish by time 2.
	_, err := WaterFill(inst, []float64{2})
	if err == nil {
		t.Fatalf("expected infeasibility")
	}
	var infeasible *ErrInfeasibleCompletionTimes
	if !errors.As(err, &infeasible) {
		t.Fatalf("error type = %T", err)
	}
	if infeasible.Task != 0 || infeasible.Missing <= 0 {
		t.Errorf("infeasible detail = %+v", infeasible)
	}
}

func TestWaterFillRejectsBadInput(t *testing.T) {
	inst := mustInstance(t, 2, []schedule.Task{{Weight: 1, Volume: 1, Delta: 1}})
	if _, err := WaterFill(inst, []float64{1, 2}); err == nil {
		t.Errorf("length mismatch accepted")
	}
	if _, err := WaterFill(inst, []float64{-1}); err == nil {
		t.Errorf("negative completion accepted")
	}
}

func TestWaterFillTwoTasksKnownShape(t *testing.T) {
	// P=3. T0: V=2, δ=2, C=1. T1: V=5, δ=2, C=3.
	// Column 1 = [0,1]: T0 needs 2 processors; T1 gets level-filled.
	// T1's allocation: column 1 at most 1 processor free below P... water
	// level: it can use column 1 (cap δ=2, free height 3) and column 2.
	// Level h with 1*(h-2 clamped to [0,2]) + 2*(h clamped to [0,2]) = 5 →
	// h = 7/3: column1 share 1/3, column2 share 7/3 > 2 → actually the δ cap
	// bites: try h=2: 0*1? Let's simply assert validity and completion times
	// here and rely on the structural checks below.
	inst := mustInstance(t, 3, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 5, Delta: 2},
	})
	s, err := WaterFill(inst, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if !numeric.ApproxEqual(s.CompletionTime(0), 1) || !numeric.ApproxEqual(s.CompletionTime(1), 3) {
		t.Errorf("completions = %v", s.CompletionTimes())
	}
	// T1 is saturated in its last column (it needs its full δ there, because
	// 5 > 2*2 means it cannot fit in column 2 alone even at δ).
	if !numeric.ApproxEqual(s.Alloc[1][1], 2) {
		t.Errorf("T1 allocation in column 2 = %g, want 2 (saturated)", s.Alloc[1][1])
	}
	if !numeric.ApproxEqual(s.Alloc[1][0], 1) {
		t.Errorf("T1 allocation in column 1 = %g, want 1", s.Alloc[1][0])
	}
}

func TestWaterFillHeightsNonIncreasing(t *testing.T) {
	// Lemma 3: after each allocation the column occupancy is non-increasing
	// over time. Verify on a random-ish hand instance by checking the final
	// usage profile is non-increasing.
	inst := mustInstance(t, 4, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 3, Delta: 1},
		{Weight: 1, Volume: 4, Delta: 3},
		{Weight: 1, Volume: 1, Delta: 4},
	})
	completions := []float64{1, 3, 2.5, 4}
	s, err := WaterFill(inst, completions)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	prev := inst.P + 1
	for j := 0; j < s.NumColumns(); j++ {
		if s.ColumnLength(j) <= numeric.Eps {
			continue
		}
		var used float64
		for i := 0; i < inst.N(); i++ {
			used += s.Alloc[i][j]
		}
		if used > prev+1e-9 {
			t.Errorf("column %d usage %g exceeds previous column usage %g", j, used, prev)
		}
		prev = used
	}
}

func TestWaterFillEqualCompletionTimes(t *testing.T) {
	// All tasks complete at the makespan-optimal time: WF must accept it.
	inst := mustInstance(t, 3, []schedule.Task{
		{Weight: 1, Volume: 3, Delta: 2},
		{Weight: 2, Volume: 2, Delta: 1},
		{Weight: 1, Volume: 4, Delta: 3},
	})
	s, err := CmaxOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if !numeric.ApproxEqual(s.Makespan(), inst.OptimalMakespan()) {
		t.Errorf("makespan = %g, want %g", s.Makespan(), inst.OptimalMakespan())
	}
}

func TestNormalizePreservesCompletionTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng, 6, 3)
	orig, err := RunWDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := Normalize(orig)
	if err != nil {
		t.Fatalf("Normalize failed on a valid schedule: %v", err)
	}
	if err := norm.Validate(); err != nil {
		t.Fatalf("normal form invalid: %v", err)
	}
	for i := 0; i < inst.N(); i++ {
		if !numeric.ApproxEqualTol(norm.CompletionTime(i), orig.CompletionTime(i), 1e-6) {
			t.Errorf("task %d completion changed: %g vs %g", i, norm.CompletionTime(i), orig.CompletionTime(i))
		}
	}
	if !numeric.ApproxEqualTol(norm.WeightedCompletionTime(), orig.WeightedCompletionTime(), 1e-6) {
		t.Errorf("objective changed by normalization")
	}
}

// WaterFillFeasible accepts the completion times of a valid schedule and
// rejects them once they are scaled so that every task finishes before the
// optimal makespan, which no valid schedule can do.
func TestWaterFillFeasibleOnWDEQCompletions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		inst := randomInstance(rng, 1+rng.Intn(6), float64(1+rng.Intn(4)))
		s, err := RunWDEQ(inst)
		if err != nil {
			t.Fatal(err)
		}
		completions := s.CompletionTimes()
		if !WaterFillFeasible(inst, completions) {
			t.Fatalf("trial %d: WDEQ completion times %v reported infeasible", trial, completions)
		}
		scale := 0.99 * inst.OptimalMakespan() / s.Makespan()
		tight := make([]float64, len(completions))
		for i := range tight {
			tight[i] = completions[i] * scale
		}
		if WaterFillFeasible(inst, tight) {
			t.Fatalf("trial %d: scaled completion times %v reported feasible", trial, tight)
		}
		if _, err := WaterFill(inst, tight); err == nil {
			t.Fatalf("trial %d: WaterFill built a schedule for infeasible completion times", trial)
		}
	}
}

func TestMinimizeMaxLateness(t *testing.T) {
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2, Due: 1},
		{Weight: 1, Volume: 2, Delta: 1, Due: 2},
	})
	s, lmax, err := MinimizeMaxLateness(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Total volume 4 on P=2 needs 2 time units; with dues (1,2) the best
	// achievable maximum lateness is 2/3: schedule task 1 at rate 2 until
	// t=5/3... in fact the optimum satisfies both tasks finishing at
	// due+Lmax; verify the reported value matches the schedule.
	if lmax+1e-6 < s.MaxLateness() && !numeric.ApproxEqual(lmax+1e-6, s.MaxLateness()) {
		t.Errorf("reported Lmax %g smaller than the schedule's %g", lmax, s.MaxLateness())
	}
	// A lower bound: task 0 alone needs 1 time unit (due 1 → lateness >= 0),
	// and both together need 2 time units, so some task is late by at least
	// 2 - 2 = 0; the optimum is within [0, 1].
	if lmax < -1e-6 || lmax > 1+1e-6 {
		t.Errorf("Lmax = %g outside the expected range [0,1]", lmax)
	}
}

// Property (Theorem 8): the completion times of any valid schedule produced
// by the library (WDEQ or a random greedy) are always accepted by WF, and the
// reconstructed schedule is valid with the same completion times.
func TestQuickWaterFillReconstructsValidSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1+rng.Intn(6), float64(1+rng.Intn(4)))
		var src *schedule.ColumnSchedule
		var err error
		if seed%2 == 0 {
			src, err = RunWDEQ(inst)
		} else {
			src, err = Greedy(inst, rng.Perm(inst.N()))
		}
		if err != nil {
			return false
		}
		rebuilt, err := WaterFill(inst, src.CompletionTimes())
		if err != nil {
			return false
		}
		if err := rebuilt.Validate(); err != nil {
			return false
		}
		for i := 0; i < inst.N(); i++ {
			if !numeric.ApproxEqualTol(rebuilt.CompletionTime(i), src.CompletionTime(i), 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 9): under the counting convention of Lemma 5 (the
// transition into a task's trailing saturated run is not charged to the
// task), the water-filling schedule has at most n allocation changes in
// total; under the natural convention it has at most 2n (one extra possible
// change per task).
func TestQuickWaterFillChangeBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1+rng.Intn(8), float64(1+rng.Intn(4)))
		src, err := RunWDEQ(inst)
		if err != nil {
			return false
		}
		wf, err := WaterFill(inst, src.CompletionTimes())
		if err != nil {
			return false
		}
		_, lemma5 := Lemma5ChangeCount(wf)
		_, natural := wf.AllocationChanges()
		return lemma5 <= inst.N() && natural <= 2*inst.N() && natural >= lemma5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: water-filling schedules also have a non-decreasing per-task
// allocation over time (the structural fact used by Lemma 6 to turn changes
// into preemptions), and their integral conversion (Theorem 3) is valid with
// per-task concurrency never exceeding the degree bound. The paper's 3n
// preemption bound applies to its own merged-column processor assignment; the
// per-column Theorem-3 conversion used here is measured and reported by
// experiment E6 instead of being asserted.
func TestQuickWaterFillMonotoneAndIntegralValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1+rng.Intn(8), float64(1+rng.Intn(4)))
		src, err := RunWDEQ(inst)
		if err != nil {
			return false
		}
		wf, err := WaterFill(inst, src.CompletionTimes())
		if err != nil {
			return false
		}
		// Per-task allocations never decrease before completion.
		for i := 0; i < inst.N(); i++ {
			prev := 0.0
			for j := 0; j <= wf.ColumnOf(i); j++ {
				if wf.ColumnLength(j) <= numeric.Eps {
					continue
				}
				a := wf.Alloc[i][j]
				if a > numeric.Eps && a < prev-1e-7 {
					return false
				}
				if a > numeric.Eps {
					prev = a
				}
			}
		}
		pa, err := schedule.FromColumns(wf)
		if err != nil {
			return false
		}
		return pa.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
