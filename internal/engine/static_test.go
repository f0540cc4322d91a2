package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/malleable-sched/malleable/internal/core"
	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/speedup"
)

func mustInstance(t *testing.T, p float64, tasks []schedule.Task) *schedule.Instance {
	t.Helper()
	inst, err := schedule.NewInstance(p, tasks)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func randomInstance(rng *rand.Rand, n int, p float64) *schedule.Instance {
	tasks := make([]schedule.Task, n)
	for i := range tasks {
		tasks[i] = schedule.Task{
			Weight: 0.05 + 0.95*rng.Float64(),
			Volume: 0.05 + 0.95*rng.Float64(),
			Delta:  0.05 + (p-0.05)*rng.Float64(),
		}
	}
	return &schedule.Instance{P: p, Tasks: tasks}
}

// The engine is the library's single kernel: replaying a static instance
// through RunStatic with the WDEQ policy must reproduce the direct offline
// WDEQ implementation of internal/core exactly, and the schedule
// reconstructed from the decision trace must be valid.
func TestRunStaticWDEQMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(rng, 1+rng.Intn(6), float64(1+rng.Intn(4)))
		res, err := RunStatic(inst, WDEQPolicy{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule == nil {
			t.Fatal("linear static run built no schedule")
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("invalid: %v", err)
		}
		direct, err := core.RunWDEQ(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.ApproxEqualTol(res.Schedule.WeightedCompletionTime(), direct.WeightedCompletionTime(), 1e-6) {
			t.Errorf("engine %g vs direct %g", res.Schedule.WeightedCompletionTime(), direct.WeightedCompletionTime())
		}
		if !numeric.ApproxEqualTol(res.WeightedCompletion, direct.WeightedCompletionTime(), 1e-6) {
			t.Errorf("engine metrics %g vs direct %g", res.WeightedCompletion, direct.WeightedCompletionTime())
		}
	}
}

// Property form of the same equivalence, over arbitrary random instances.
func TestQuickStaticEngineEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1+rng.Intn(6), float64(1+rng.Intn(4)))
		res, err := RunStatic(inst, WDEQPolicy{}, Options{})
		if err != nil {
			return false
		}
		direct, err := core.RunWDEQ(inst)
		if err != nil {
			return false
		}
		for i := 0; i < inst.N(); i++ {
			if !numeric.ApproxEqualTol(res.Schedule.CompletionTime(i), direct.CompletionTime(i), 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRunStaticPriorityPolicy(t *testing.T) {
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 2},
		{Weight: 1, Volume: 2, Delta: 2},
	})
	// Task 1 has the highest priority (rank 0).
	res, err := RunStatic(inst, priorityPolicy{Priority: []int{1, 0}, Label: "prio"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if !numeric.ApproxEqual(res.Schedule.CompletionTime(1), 1) || !numeric.ApproxEqual(res.Schedule.CompletionTime(0), 2) {
		t.Errorf("completions = %v, want task 1 first", res.Schedule.CompletionTimes())
	}
	if res.Policy != "prio" {
		t.Errorf("label not used: %q", res.Policy)
	}
	if (priorityPolicy{}).Name() != "priority" {
		t.Errorf("default name wrong")
	}
}

// Property: a priority policy driven by Smith's order always yields a valid
// schedule and respects the degree bounds (checked through schedule
// validation).
func TestQuickPriorityPolicyValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 1+rng.Intn(6), float64(1+rng.Intn(4)))
		priority := make([]int, inst.N())
		for rank, task := range inst.SmithOrder() {
			priority[task] = rank
		}
		res, err := RunStatic(inst, priorityPolicy{Priority: priority, Label: "smith"}, Options{})
		if err != nil {
			return false
		}
		return res.Schedule.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Non-linear models cannot be rendered as a ColumnSchedule (profiles would
// not integrate to the volumes): RunStatic must still report engine metrics
// but leave the schedule nil.
func TestRunStaticNonLinearNoSchedule(t *testing.T) {
	inst := mustInstance(t, 4, []schedule.Task{
		{Weight: 1, Volume: 2, Delta: 4},
		{Weight: 1, Volume: 2, Delta: 4},
	})
	res, err := RunStatic(inst, WDEQPolicy{}, Options{Model: speedup.PowerLaw{Alpha: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule != nil {
		t.Errorf("non-linear static run built a schedule")
	}
	if res.Model != "powerlaw" {
		t.Errorf("model = %q, want powerlaw", res.Model)
	}
	linear, err := RunStatic(inst, WDEQPolicy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each task holds 2 processors: concave rate 2^0.5 < 2, so the run is
	// strictly slower than under the linear model.
	if res.Makespan <= linear.Makespan {
		t.Errorf("concave makespan %g not slower than linear %g", res.Makespan, linear.Makespan)
	}
}

// RunStatic forces the trace internally to rebuild the schedule; the caller's
// TraceDecisions choice must still control what the result carries.
func TestRunStaticTraceControl(t *testing.T) {
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 1, Delta: 1},
		{Weight: 2, Volume: 1, Delta: 2},
	})
	quiet, err := RunStatic(inst, WDEQPolicy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Schedule == nil || len(quiet.Decisions) != 0 {
		t.Errorf("untraced run: schedule=%v decisions=%d, want schedule and no trace", quiet.Schedule != nil, len(quiet.Decisions))
	}
	traced, err := RunStatic(inst, WDEQPolicy{}, Options{TraceDecisions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Decisions) != traced.Events {
		t.Errorf("traced run recorded %d decisions for %d events", len(traced.Decisions), traced.Events)
	}
}

// badPolicy violates the capacity constraint to exercise the engine's guard
// on the static path too.
type badPolicy struct{}

func (badPolicy) Name() string { return "bad" }
func (badPolicy) Allocate(p float64, alive []TaskState, dst []float64) []float64 {
	for range alive {
		dst = append(dst, p) // every task asks for the whole platform
	}
	return dst
}

func TestRunStaticRejectsBadPolicies(t *testing.T) {
	inst := mustInstance(t, 2, []schedule.Task{
		{Weight: 1, Volume: 1, Delta: 2},
		{Weight: 1, Volume: 1, Delta: 2},
	})
	if _, err := RunStatic(inst, badPolicy{}, Options{}); err == nil {
		t.Errorf("over-allocation not detected")
	}
	if _, err := RunStatic(inst, starvingPolicy{}, Options{}); err == nil {
		t.Errorf("starvation not detected")
	}
	bad := &schedule.Instance{P: 1, Tasks: nil}
	if _, err := RunStatic(bad, WDEQPolicy{}, Options{}); err == nil {
		t.Errorf("invalid instance accepted")
	}
}
