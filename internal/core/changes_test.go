package core

import (
	"testing"

	"github.com/malleable-sched/malleable/internal/schedule"
)

// buildScheduleWithAllocRows creates a three-column schedule with prescribed
// per-task allocation rows; the task volumes are derived from the rows so the
// schedule is internally consistent.
func buildScheduleWithAllocRows(t *testing.T, p float64, deltas []float64, times []float64, rows [][]float64) *schedule.ColumnSchedule {
	t.Helper()
	n := len(deltas)
	tasks := make([]schedule.Task, n)
	for i := range tasks {
		tasks[i] = schedule.Task{Weight: 1, Volume: 1, Delta: deltas[i]}
	}
	inst := &schedule.Instance{P: p, Tasks: tasks}
	s := schedule.NewColumnSchedule(inst)
	s.Times = append([]float64(nil), times...)
	for i := range rows {
		copy(s.Alloc[i], rows[i])
		v := 0.0
		for j := range rows[i] {
			v += rows[i][j] * s.ColumnLength(j)
		}
		inst.Tasks[i].Volume = v
	}
	return s
}

func TestLemma5ChangeCountExcludesTrailingSaturation(t *testing.T) {
	// Task 0: allocations 1, 1.5, 2 with δ = 2 — the step to 2 enters the
	// trailing saturated run and is not charged; the 1 -> 1.5 step is.
	// Task 1: constant allocation, no changes.
	// Task 2: allocations 0.5, 2, 1.5 with δ = 2 — the middle column touches
	// δ but the run is not trailing, so both steps count.
	s := buildScheduleWithAllocRows(t, 8,
		[]float64{2, 3, 2},
		[]float64{1, 2, 3},
		[][]float64{
			{1, 1.5, 2},
			{2, 2, 2},
			{0.5, 2, 1.5},
		})
	perTask, total := Lemma5ChangeCount(s)
	if perTask[0] != 1 {
		t.Errorf("task 0 changes = %d, want 1", perTask[0])
	}
	if perTask[1] != 0 {
		t.Errorf("task 1 changes = %d, want 0", perTask[1])
	}
	if perTask[2] != 2 {
		t.Errorf("task 2 changes = %d, want 2", perTask[2])
	}
	if total != 3 {
		t.Errorf("total = %d, want 3", total)
	}

	// The natural count charges the saturation transition of task 0 as well.
	perNatural, naturalTotal := s.AllocationChanges()
	if perNatural[0] != 2 || naturalTotal != 4 {
		t.Errorf("natural counts = %v (total %d), want task0=2 total=4", perNatural, naturalTotal)
	}
}

func TestLemma5ChangeCountSkipsZeroLengthColumns(t *testing.T) {
	// The middle column has zero length; the allocation recorded there must
	// not create a spurious change.
	s := buildScheduleWithAllocRows(t, 4,
		[]float64{2},
		[]float64{1, 1, 3},
		[][]float64{{1.5, 0, 1.5}})
	perTask, total := Lemma5ChangeCount(s)
	if perTask[0] != 0 || total != 0 {
		t.Errorf("changes = %v (total %d), want none", perTask, total)
	}
}

func TestMinimizeMaxLatenessZeroDueDates(t *testing.T) {
	// With all due dates at zero, the minimal maximum lateness equals the
	// optimal makespan.
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 3, Delta: 1},
	})
	s, lmax, err := MinimizeMaxLateness(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	want := inst.OptimalMakespan()
	if lmax < want-1e-6 || lmax > want+1e-6 {
		t.Errorf("Lmax = %g, want the optimal makespan %g", lmax, want)
	}
}

func TestCmaxOptimalSingleTask(t *testing.T) {
	inst := mustInstance(t, 4, []schedule.Task{{Weight: 2, Volume: 6, Delta: 2}})
	s, err := CmaxOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 3 {
		t.Errorf("makespan = %g, want 3 (δ-limited)", s.Makespan())
	}
}
