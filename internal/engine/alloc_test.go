package engine

import (
	"testing"

	"github.com/malleable-sched/malleable/internal/workload"
)

// allocArrivals draws a fixed Poisson stream large enough that per-event
// behavior dominates any per-run bookkeeping.
func allocArrivals(t testing.TB, n int, seed int64) []Arrival {
	t.Helper()
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Class:   workload.Uniform,
		P:       8,
		Process: workload.Poisson,
		Rate:    8,
	}, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

// The tentpole property of the zero-allocation refactor: once a Runner's
// scratch has been warmed by one run, re-running the same workload into a
// reused Result performs no heap allocation at all — zero allocs per run,
// hence zero allocs per steady-state event — under the default LinearCap
// model, for every non-clairvoyant bundled policy including the rank-scratch
// priority policy (whose scratch lives in the per-run clone). The
// deep-backlog case keeps thousands of keys in the virtual-clock key heap.
func TestSteadyStateZeroAllocsPerEvent(t *testing.T) {
	arrivals := allocArrivals(t, 512, 99)
	priority := make([]int, len(arrivals))
	for i := range priority {
		priority[i] = len(arrivals) - 1 - i
	}
	cases := map[string]struct {
		policy   Policy
		arrivals []Arrival
	}{
		"wdeq":              {WDEQPolicy{}, arrivals},
		"weight-greedy":     {WeightGreedyPolicy{}, arrivals},
		"priority":          {priorityPolicy{Priority: priority}, arrivals},
		"wdeq-deep-backlog": {WDEQPolicy{}, deepBacklogArrivals(t, 4096, 1)},
	}
	for name, c := range cases {
		policy, arrivals := c.policy, c.arrivals
		t.Run(name, func(t *testing.T) {
			runner := NewRunner()
			res := &Result{}
			var runErr error
			run := func() {
				if err := runner.RunInto(res, 8, policy, arrivals, Options{}); err != nil {
					runErr = err
				}
			}
			run() // warm the scratch buffers
			if runErr != nil {
				t.Fatal(runErr)
			}
			events := res.Events
			if events < len(arrivals) {
				t.Fatalf("events = %d, want at least one per task (%d)", events, len(arrivals))
			}
			allocs := testing.AllocsPerRun(10, run)
			if runErr != nil {
				t.Fatal(runErr)
			}
			if allocs != 0 {
				t.Errorf("steady-state run allocated %.3g times (%d events, %.3g allocs/event); want 0",
					allocs, events, allocs/float64(events))
			}
		})
	}
}

// Tracing is the documented exception to the zero-allocation contract: with
// TraceDecisions on, each event copies the alive set and allocation. The
// default must stay off and record nothing.
func TestTraceDecisionsGate(t *testing.T) {
	arrivals := allocArrivals(t, 32, 5)
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	if err := NewRunner().RunInto(res, 8, policy, arrivals, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 0 {
		t.Errorf("default run recorded %d decisions, want 0", len(res.Decisions))
	}
	traced := &Result{}
	if err := NewRunner().RunInto(traced, 8, policy, arrivals, Options{TraceDecisions: true}); err != nil {
		t.Fatal(err)
	}
	if len(traced.Decisions) != traced.Events {
		t.Errorf("traced run recorded %d decisions for %d events", len(traced.Decisions), traced.Events)
	}
}

// A reused Runner must reproduce the one-shot package-level Run exactly, for
// every bundled policy, including across policy switches (which invalidate
// the cached per-run policy clone).
func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	arrivals := allocArrivals(t, 256, 11)
	runner := NewRunner()
	res := &Result{}
	for pass := 0; pass < 2; pass++ {
		for _, name := range PolicyNames() {
			policy, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			fresh := &Result{}
			if err := NewRunner().RunInto(fresh, 8, policy, arrivals, Options{}); err != nil {
				t.Fatal(err)
			}
			if err := runner.RunInto(res, 8, policy, arrivals, Options{}); err != nil {
				t.Fatal(err)
			}
			if res.WeightedFlow != fresh.WeightedFlow || res.Makespan != fresh.Makespan ||
				res.Events != fresh.Events || res.MaxAlive != fresh.MaxAlive {
				t.Errorf("pass %d, %s: reused runner (wf=%g mk=%g ev=%d ma=%d) differs from fresh run (wf=%g mk=%g ev=%d ma=%d)",
					pass, name, res.WeightedFlow, res.Makespan, res.Events, res.MaxAlive,
					fresh.WeightedFlow, fresh.Makespan, fresh.Events, fresh.MaxAlive)
			}
			for i := range res.Tasks {
				if res.Tasks[i] != fresh.Tasks[i] {
					t.Fatalf("pass %d, %s: task %d metrics differ: %+v vs %+v", pass, name, i, res.Tasks[i], fresh.Tasks[i])
				}
			}
		}
	}
}

// A reused Runner must not panic when the policy wraps an uncomparable value
// (the clone cache compares policy values to detect reuse; comparability is a
// property of the dynamic value, not just the type).
func TestRunnerReuseUncomparablePolicy(t *testing.T) {
	arrivals := allocArrivals(t, 16, 8)
	// priorityPolicy holds a rank slice, so the value is uncomparable even
	// though other policy types are comparable.
	policy := priorityPolicy{Priority: []int{0, 1, 2}}
	runner := NewRunner()
	for i := 0; i < 3; i++ {
		if err := runner.RunInto(&Result{}, 8, policy, arrivals, Options{}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// Unsorted arrival streams must be handled (sorted internally) and produce
// the same outcome as the pre-sorted stream.
func TestUnsortedArrivalsSorted(t *testing.T) {
	arrivals := allocArrivals(t, 64, 21)
	shuffled := make([]Arrival, len(arrivals))
	// Reverse is the worst case for the presorted fast path.
	for i := range arrivals {
		shuffled[i] = arrivals[len(arrivals)-1-i]
	}
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	a := &Result{}
	if err := NewRunner().RunInto(a, 8, policy, arrivals, Options{}); err != nil {
		t.Fatal(err)
	}
	b := &Result{}
	if err := NewRunner().RunInto(b, 8, policy, shuffled, Options{}); err != nil {
		t.Fatal(err)
	}
	if a.WeightedFlow != b.WeightedFlow || a.Makespan != b.Makespan || a.Events != b.Events {
		t.Errorf("reversed stream diverges: wf %g vs %g, mk %g vs %g, events %d vs %d",
			b.WeightedFlow, a.WeightedFlow, b.Makespan, a.Makespan, b.Events, a.Events)
	}
}
