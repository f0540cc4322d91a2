package engine

import (
	"math"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/stepfunc"
)

func mustProfile(t *testing.T, times, values []float64) *stepfunc.StepFunc {
	t.Helper()
	f, err := stepfunc.FromSteps(times, values)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// A single task holding q processors under PowerLaw{0.5} runs at rate √q:
// the completion time is hand-computable.
func TestPowerLawCompletionTime(t *testing.T) {
	arrivals := []Arrival{{Task: task(1, 2, 4)}}
	res := &Result{}
	if err := NewRunner().RunInto(res, 4, WDEQPolicy{}, arrivals, Options{Model: speedup.PowerLaw{Alpha: 0.5}}); err != nil {
		t.Fatal(err)
	}
	// WDEQ hands the lone task min(δ, P) = 4 processors; rate = 4^0.5 = 2,
	// so 2 units of volume complete at t = 1.
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 1, 1e-9) {
		t.Errorf("completion = %g, want 1", got)
	}
	if res.Model != "powerlaw" {
		t.Errorf("result model = %q", res.Model)
	}
}

// Amdahl's law: rate(q) = q / (σq + 1 - σ). With σ = 0.25 and q = 3 the rate
// is 2.
func TestAmdahlCompletionTime(t *testing.T) {
	arrivals := []Arrival{{Task: task(1, 4, 3)}}
	res := &Result{}
	if err := NewRunner().RunInto(res, 3, WDEQPolicy{}, arrivals, Options{Model: speedup.Amdahl{Sigma: 0.25}}); err != nil {
		t.Fatal(err)
	}
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 2, 1e-9) {
		t.Errorf("completion = %g, want 2 (4 volume at rate 2)", got)
	}
}

// The per-task Curve parameter must override the model default: two
// otherwise-identical tasks with different curves finish at different times.
func TestPerTaskCurveOverride(t *testing.T) {
	a := task(1, 2, 2)
	b := task(1, 2, 2)
	a.Curve = 1   // linear: rate 2 on its 2 processors
	b.Curve = 0.5 // square root: rate √2
	res := &Result{}
	if err := NewRunner().RunInto(res, 4, DEQPolicy{}, []Arrival{{Task: a}, {Task: b}}, Options{Model: speedup.PowerLaw{}}); err != nil {
		t.Fatal(err)
	}
	// DEQ gives each task 2 processors throughout (δ pins both at 2).
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 1, 1e-9) {
		t.Errorf("linear-curve task completed at %g, want 1", got)
	}
	if got := res.Tasks[1].Completion; !numeric.ApproxEqualTol(got, 2/math.Sqrt2, 1e-9) {
		t.Errorf("sqrt-curve task completed at %g, want %g", got, 2/math.Sqrt2)
	}
}

// A platform capacity step mid-run must re-invoke the policy exactly at the
// breakpoint and slow the run down by the hand-computed amount.
func TestPlatformCapacityDrop(t *testing.T) {
	model := speedup.Platform{Profile: mustProfile(t, []float64{0, 1}, []float64{2, 1})}
	arrivals := []Arrival{{Task: task(1, 3, 2)}}
	res := &Result{}
	if err := NewRunner().RunInto(res, 2, WDEQPolicy{}, arrivals, Options{Model: model, TraceDecisions: true}); err != nil {
		t.Fatal(err)
	}
	// Rate 2 on [0,1) processes 2 units; the remaining 1 unit runs at the
	// post-step capacity 1: completion at t = 2 (constant capacity: 1.5).
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 2, 1e-9) {
		t.Errorf("completion = %g, want 2", got)
	}
	if res.Events != 2 {
		t.Errorf("events = %d, want 2 (initial decision + capacity step)", res.Events)
	}
	if d := res.Decisions[1]; d.Time != 1 || !numeric.ApproxEqualTol(d.Alloc[0], 1, 1e-9) {
		t.Errorf("post-step decision = %+v, want time 1 with allocation 1", d)
	}
	if !strings.HasPrefix(res.Model, "platform") {
		t.Errorf("result model = %q", res.Model)
	}
}

// A capacity outage (budget zero) must park the alive tasks without
// triggering the starvation guard, and resume them when capacity returns.
func TestPlatformOutageParksTasks(t *testing.T) {
	model := speedup.Platform{Profile: mustProfile(t, []float64{0, 5}, []float64{0, 2})}
	arrivals := []Arrival{{Task: task(1, 2, 2)}}
	res := &Result{}
	if err := NewRunner().RunInto(res, 2, WDEQPolicy{}, arrivals, Options{Model: model}); err != nil {
		t.Fatal(err)
	}
	// Nothing runs on [0,5); at t=5 the task gets 2 processors and drains its
	// 2 units by t=6.
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 6, 1e-9) {
		t.Errorf("completion = %g, want 6", got)
	}
	if got := res.Tasks[0].Flow; !numeric.ApproxEqualTol(got, 6, 1e-9) {
		t.Errorf("flow = %g, want 6 (outage time counts as waiting)", got)
	}
}

// A permanent outage with work left is genuine starvation and must be
// reported as an error rather than looping forever.
func TestPlatformPermanentOutageIsStarvation(t *testing.T) {
	model := speedup.Platform{Profile: mustProfile(t, []float64{0}, []float64{0})}
	err := NewRunner().RunInto(&Result{}, 2, WDEQPolicy{}, []Arrival{{Task: task(1, 1, 1)}}, Options{Model: model})
	if err == nil || !strings.Contains(err.Error(), "starves") {
		t.Fatalf("err = %v, want starvation error", err)
	}
}

// Under a time-varying capacity the engine caps each task's visible Delta at
// the current budget, so greedy policies cannot over-allocate during a dip.
func TestPlatformCapsDeltaDuringDip(t *testing.T) {
	model := speedup.Platform{Profile: mustProfile(t, []float64{0, 1, 3}, []float64{4, 1, 4})}
	arrivals := []Arrival{
		{Task: task(10, 4, 4)},
		{Task: task(1, 4, 4)},
	}
	res := &Result{}
	if err := NewRunner().RunInto(res, 4, WeightGreedyPolicy{}, arrivals, Options{Model: model, TraceDecisions: true}); err != nil {
		t.Fatal(err)
	}
	// The heavy task takes the full capacity at every decision: 4 on [0,1)
	// — drains its 4 units right at t=1... which coalesces with the step.
	// Walk the trace and check no allocation ever exceeded the budget.
	for _, d := range res.Decisions {
		budget := model.BudgetAt(4, d.Time)
		var total float64
		for _, a := range d.Alloc {
			total += a
		}
		if total > budget+1e-6 {
			t.Errorf("decision at %g allocates %g over budget %g", d.Time, total, budget)
		}
	}
	if res.Tasks[1].Completion <= res.Tasks[0].Completion {
		t.Errorf("light task %g should finish after heavy %g under weight-greedy",
			res.Tasks[1].Completion, res.Tasks[0].Completion)
	}
}

// The zero-allocation steady state must survive non-default time-invariant
// models: the kernel's model calls are interface calls on stateless values,
// not per-event allocations.
func TestSteadyStateZeroAllocsUnderPowerLaw(t *testing.T) {
	arrivals := allocArrivals(t, 256, 17)
	runner := NewRunner()
	res := &Result{}
	opts := Options{Model: speedup.PowerLaw{Alpha: 0.8}}
	var runErr error
	run := func() {
		if err := runner.RunInto(res, 8, WDEQPolicy{}, arrivals, opts); err != nil {
			runErr = err
		}
	}
	run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("powerlaw steady-state run allocated %.3g times; want 0", allocs)
	}
}

// Sharded runs accept a model through RunShardsWithOptions and stay
// deterministic under it.
func TestRunShardsWithModelDeterministic(t *testing.T) {
	src := poissonSource(40)
	opts := Options{Model: speedup.Amdahl{Sigma: 0.2}}
	a, err := RunShardsWithOptions(2, WDEQPolicy{}, src, 3, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShardsWithOptions(2, WDEQPolicy{}, src, 3, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.WeightedFlow != b.WeightedFlow || a.Makespan != b.Makespan {
		t.Errorf("model runs with same seed differ: %g/%g vs %g/%g",
			a.WeightedFlow, a.Makespan, b.WeightedFlow, b.Makespan)
	}
	linear, err := RunShardsWithOptions(2, WDEQPolicy{}, src, 3, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(a.Makespan > linear.Makespan) {
		t.Errorf("amdahl makespan %g not slower than linear %g", a.Makespan, linear.Makespan)
	}
}

// brokenRateModel violates the Rate contract (non-zero at zero processors);
// the engine must reject it at run start rather than simulate nonsense.
type brokenRateModel struct{ speedup.LinearCap }

func (brokenRateModel) Rate(t speedup.TaskShape, procs float64) float64 { return 1 }

func TestEngineRejectsBrokenModel(t *testing.T) {
	err := NewRunner().RunInto(&Result{}, 2, WDEQPolicy{}, []Arrival{{Task: task(1, 1, 1)}}, Options{Model: brokenRateModel{}})
	if err == nil || !strings.Contains(err.Error(), "speedup") {
		t.Fatalf("err = %v, want model-contract rejection", err)
	}
}

// A capacity breakpoint at a time the float clock cannot hit by accumulation
// (0.1 + 0.2 != 0.3) must still be crossed exactly once: the engine snaps
// the clock onto absolute-time events.
func TestBudgetBreakpointCrossedOnce(t *testing.T) {
	model := speedup.Platform{Profile: mustProfile(t, []float64{0, 0.3}, []float64{2, 2})}
	arrivals := []Arrival{{Task: task(1, 1, 1), Release: 0.1}}
	res := &Result{}
	if err := NewRunner().RunInto(res, 2, WDEQPolicy{}, arrivals, Options{Model: model, TraceDecisions: true}); err != nil {
		t.Fatal(err)
	}
	// One decision at the admission (t=0.1), one at the capacity step
	// (t=0.3); a duplicate near-zero-dt event at ~0.3 would make it three.
	if res.Events != 2 {
		t.Fatalf("events = %d, want 2 (decisions at %v)", res.Events, res.Decisions)
	}
	if got := res.Decisions[1].Time; got != 0.3 {
		t.Errorf("capacity-step decision at %v, want exactly 0.3", got)
	}
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 1.1, 1e-9) {
		t.Errorf("completion = %g, want 1.1", got)
	}
}
