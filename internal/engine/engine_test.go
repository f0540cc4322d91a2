package engine

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/core"
	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
)

func task(w, v, d float64) schedule.Task { return schedule.Task{Weight: w, Volume: v, Delta: d} }

func mustRun(t *testing.T, p float64, policy Policy, arrivals []Arrival) *Result {
	t.Helper()
	res := &Result{}
	if err := NewRunner().RunInto(res, p, policy, arrivals, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// With every release date at zero the engine must reproduce the static
// simulator exactly: same completion times, same objective.
func TestMatchesStaticSimAtTimeZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(7)
		p := float64(1 + rng.Intn(4))
		tasks := make([]schedule.Task, n)
		arrivals := make([]Arrival, n)
		for i := range tasks {
			tasks[i] = task(0.05+rng.Float64(), 0.05+rng.Float64(), 0.05+(p-0.05)*rng.Float64())
			arrivals[i] = Arrival{Task: tasks[i]}
		}
		inst := &schedule.Instance{P: p, Tasks: tasks}
		res := mustRun(t, p, WDEQPolicy{}, arrivals)
		direct, err := core.RunWDEQ(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.ApproxEqualTol(res.WeightedCompletion, direct.WeightedCompletionTime(), 1e-6) {
			t.Errorf("trial %d: engine %g vs static WDEQ %g", trial, res.WeightedCompletion, direct.WeightedCompletionTime())
		}
		// With all releases at zero, flow time equals completion time.
		if !numeric.ApproxEqualTol(res.WeightedFlow, res.WeightedCompletion, 1e-9) {
			t.Errorf("trial %d: weighted flow %g != weighted completion %g", trial, res.WeightedFlow, res.WeightedCompletion)
		}
	}
}

// A task arriving at the exact instant another completes must be coalesced
// into a single event: the completed task leaves, the new one enters, and the
// policy sees only the newcomer.
func TestSimultaneousArrivalAndCompletionTie(t *testing.T) {
	arrivals := []Arrival{
		{Task: task(1, 1, 1), Release: 0}, // completes exactly at t=1 on P=1
		{Task: task(1, 1, 1), Release: 1}, // arrives exactly at t=1
	}
	res := &Result{}
	if err := NewRunner().RunInto(res, 1, WDEQPolicy{}, arrivals, Options{TraceDecisions: true}); err != nil {
		t.Fatal(err)
	}
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 1, 1e-9) {
		t.Errorf("task 0 completion = %g, want 1", got)
	}
	if got := res.Tasks[1].Completion; !numeric.ApproxEqualTol(got, 2, 1e-9) {
		t.Errorf("task 1 completion = %g, want 2", got)
	}
	if res.Events != 2 {
		t.Errorf("events = %d, want 2 (one per task; the tie must coalesce)", res.Events)
	}
	// The decision at t=1 must see exactly task 1.
	d := res.Decisions[len(res.Decisions)-1]
	if d.Time != 1 || len(d.Alive) != 1 || d.Alive[0] != 1 {
		t.Errorf("tie decision = %+v, want time 1 with alive [1]", d)
	}
	if got := res.Tasks[1].Flow; !numeric.ApproxEqualTol(got, 1, 1e-9) {
		t.Errorf("task 1 flow = %g, want 1", got)
	}
}

// A zero-volume task arriving late completes the instant it arrives, with
// zero flow time, without disturbing the running task.
func TestZeroVolumeLateArrival(t *testing.T) {
	arrivals := []Arrival{
		{Task: task(1, 10, 1), Release: 0},
		{Task: task(5, 0, 1), Release: 5},
	}
	res := mustRun(t, 1, WDEQPolicy{}, arrivals)
	if got := res.Tasks[1].Completion; got != 5 {
		t.Errorf("zero-volume completion = %g, want 5", got)
	}
	if got := res.Tasks[1].Flow; got != 0 {
		t.Errorf("zero-volume flow = %g, want 0", got)
	}
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 10, 1e-9) {
		t.Errorf("long task completion = %g, want 10 (must not be disturbed)", got)
	}
}

// An arrival while the machine is saturated forces the equipartition to
// split; the hand-computed trajectory pins every completion time.
func TestArrivalUnderSaturation(t *testing.T) {
	arrivals := []Arrival{
		{Task: task(1, 2, 1), Release: 0},   // alone until t=1, then shares
		{Task: task(1, 0.5, 1), Release: 1}, // arrives while P=1 is fully busy
	}
	res := mustRun(t, 1, WDEQPolicy{}, arrivals)
	// t in [0,1]: task 0 runs at 1 (processed 1, remaining 1).
	// t in [1,2]: both run at 1/2; task 1 finishes at 2 (0.5 volume).
	// t in [2,2.5]: task 0 runs at 1; remaining 0.5 -> completes at 2.5.
	if got := res.Tasks[1].Completion; !numeric.ApproxEqualTol(got, 2, 1e-9) {
		t.Errorf("task 1 completion = %g, want 2", got)
	}
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 2.5, 1e-9) {
		t.Errorf("task 0 completion = %g, want 2.5", got)
	}
	if got := res.Tasks[1].Flow; !numeric.ApproxEqualTol(got, 1, 1e-9) {
		t.Errorf("task 1 flow = %g, want 1", got)
	}
	if res.MaxAlive != 2 {
		t.Errorf("max alive = %d, want 2", res.MaxAlive)
	}
}

// During an idle gap (no alive tasks, future arrivals pending) the engine
// must jump straight to the next release date.
func TestIdleGapBetweenArrivals(t *testing.T) {
	arrivals := []Arrival{
		{Task: task(1, 1, 1), Release: 0},
		{Task: task(1, 1, 1), Release: 100},
	}
	res := mustRun(t, 1, DEQPolicy{}, arrivals)
	if got := res.Tasks[1].Completion; !numeric.ApproxEqualTol(got, 101, 1e-9) {
		t.Errorf("task 1 completion = %g, want 101", got)
	}
	if res.Events != 2 {
		t.Errorf("events = %d, want 2 (idle gaps are not events)", res.Events)
	}
	if got := res.Makespan; !numeric.ApproxEqualTol(got, 101, 1e-9) {
		t.Errorf("makespan = %g, want 101", got)
	}
}

type starvingPolicy struct{}

func (starvingPolicy) Name() string { return "starve" }
func (starvingPolicy) Allocate(p float64, alive []TaskState, dst []float64) []float64 {
	for range alive {
		dst = append(dst, 0)
	}
	return dst
}

func TestStarvationDetected(t *testing.T) {
	err := NewRunner().RunInto(&Result{}, 1, starvingPolicy{}, []Arrival{{Task: task(1, 1, 1)}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "starves") {
		t.Fatalf("err = %v, want starvation error", err)
	}
}

type overAllocatingPolicy struct{}

func (overAllocatingPolicy) Name() string { return "over" }
func (overAllocatingPolicy) Allocate(p float64, alive []TaskState, dst []float64) []float64 {
	for i := range alive {
		dst = append(dst, alive[i].Delta)
	}
	return dst
}

func TestOverAllocationRejected(t *testing.T) {
	arrivals := []Arrival{
		{Task: task(1, 1, 2)},
		{Task: task(1, 1, 2)},
	}
	err := NewRunner().RunInto(&Result{}, 2, overAllocatingPolicy{}, arrivals, Options{})
	if err == nil || !strings.Contains(err.Error(), "exceeds the platform capacity") {
		t.Fatalf("err = %v, want capacity violation", err)
	}
}

func TestArrivalValidation(t *testing.T) {
	cases := []struct {
		name string
		p    float64
		arr  Arrival
	}{
		{"negative release", 1, Arrival{Task: task(1, 1, 1), Release: -1}},
		{"zero weight", 1, Arrival{Task: task(0, 1, 1)}},
		{"negative volume", 1, Arrival{Task: task(1, -1, 1)}},
		{"zero delta", 1, Arrival{Task: task(1, 1, 0)}},
		{"nan release", 1, Arrival{Task: task(1, 1, 1), Release: math.NaN()}},
	}
	for _, c := range cases {
		if err := NewRunner().RunInto(&Result{}, c.p, WDEQPolicy{}, []Arrival{c.arr}, Options{}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := NewRunner().RunInto(&Result{}, 0, WDEQPolicy{}, []Arrival{{Task: task(1, 1, 1)}}, Options{}); err == nil {
		t.Errorf("zero capacity accepted")
	}
	if err := NewRunner().RunInto(&Result{}, 1, WDEQPolicy{}, nil, Options{}); err == nil {
		t.Errorf("empty stream accepted")
	}
}

// Degree bounds above the platform capacity are capped in the policy's view,
// so greedy policies cannot be tricked into over-allocating.
func TestDeltaCappedAtCapacity(t *testing.T) {
	arrivals := []Arrival{{Task: task(1, 4, 100)}}
	res := mustRun(t, 2, WeightGreedyPolicy{}, arrivals)
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 2, 1e-9) {
		t.Errorf("completion = %g, want 2 (delta capped at P=2)", got)
	}
}

// The clairvoyant Smith-ratio policy must finish short jobs first when
// weights are equal.
func TestSmithRatioPrefersShortJobs(t *testing.T) {
	arrivals := []Arrival{
		{Task: task(1, 10, 1)},
		{Task: task(1, 1, 1)},
	}
	res := mustRun(t, 1, SmithRatioPolicy{}, arrivals)
	if res.Tasks[1].Completion >= res.Tasks[0].Completion {
		t.Errorf("short job finished at %g, long at %g; smith-ratio must serve short first",
			res.Tasks[1].Completion, res.Tasks[0].Completion)
	}
	if got := res.Tasks[1].Completion; !numeric.ApproxEqualTol(got, 1, 1e-9) {
		t.Errorf("short job completion = %g, want 1", got)
	}
}

// WeightGreedy serves the heavy task first regardless of volumes.
func TestWeightGreedyPriority(t *testing.T) {
	arrivals := []Arrival{
		{Task: task(1, 1, 2)},
		{Task: task(10, 2, 2)},
	}
	res := mustRun(t, 2, WeightGreedyPolicy{}, arrivals)
	if got := res.Tasks[1].Completion; !numeric.ApproxEqualTol(got, 1, 1e-9) {
		t.Errorf("heavy task completion = %g, want 1", got)
	}
	// After the heavy task's exclusive run ([0,1] at rate 2), the light task
	// (δ=2) drains its unit volume at rate 2: done at 1.5.
	if got := res.Tasks[0].Completion; !numeric.ApproxEqualTol(got, 1.5, 1e-9) {
		t.Errorf("light task completion = %g, want 1.5", got)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() == "" {
			t.Errorf("%s: empty policy name", name)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Errorf("unknown policy accepted")
	}
}

// The result aggregates must be consistent with the per-task rows.
func TestResultAggregates(t *testing.T) {
	arrivals := []Arrival{
		{Task: task(2, 1, 1), Release: 0, Tenant: 0},
		{Task: task(1, 1, 1), Release: 0.5, Tenant: 1},
		{Task: task(1, 1, 1), Release: 4, Tenant: 1},
	}
	res := mustRun(t, 2, WDEQPolicy{}, arrivals)
	var wf, tf, mk float64
	for _, tm := range res.Tasks {
		wf += tm.Weight * tm.Flow
		tf += tm.Flow
		if tm.Completion > mk {
			mk = tm.Completion
		}
	}
	if !numeric.ApproxEqualTol(res.WeightedFlow, wf, 1e-9) || !numeric.ApproxEqualTol(res.TotalFlow, tf, 1e-9) {
		t.Errorf("aggregates %g/%g vs recomputed %g/%g", res.WeightedFlow, res.TotalFlow, wf, tf)
	}
	if res.Makespan != mk {
		t.Errorf("makespan %g vs recomputed %g", res.Makespan, mk)
	}
	tenants := res.PerTenant()
	if len(tenants) != 2 || tenants[0].Tenant != 0 || tenants[1].Tenant != 1 || tenants[1].Tasks != 2 {
		t.Errorf("per-tenant = %+v", tenants)
	}
	if res.Throughput() <= 0 || res.MeanFlow() <= 0 {
		t.Errorf("throughput %g, mean flow %g must be positive", res.Throughput(), res.MeanFlow())
	}
}
