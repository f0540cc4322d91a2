package engine

import (
	"runtime"
	"testing"

	"github.com/malleable-sched/malleable/internal/workload"
)

// soakConfig keeps the offered load just below capacity so the alive set
// stays small and the run is completion-bound, which is the regime the
// O(alive) memory claim is about.
func soakConfig() workload.ArrivalConfig {
	return workload.ArrivalConfig{
		Class: workload.Uniform, P: 8, Process: workload.Poisson, Rate: 12,
		Tenants: []workload.TenantSpec{
			{Name: "gold", Weight: 4, Share: 0.2},
			{Name: "bronze", Weight: 1, Share: 0.8},
		},
	}
}

// The soak acceptance test of the streaming refactor: driving ≥1M streamed
// arrivals through the engine must leave the live heap where it started —
// the run's working set is the alive tasks plus the fixed-size sinks, not
// the stream length — and the streamed results must match the slice path on
// a shorter prefix of the same workload.
func TestStreamSoakBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test drives 1M arrivals; skipped with -short")
	}
	const n = 1_000_000
	cfg := soakConfig()

	runner := NewRunner()
	agg := NewAggregateSink()
	sk := NewSketchSink(0)
	sink := MultiSink(agg, sk)
	res := &Result{}

	// Warm scratch, sink slots and sketch window on a short prefix so the
	// measured window only sees steady-state behavior.
	warm, err := workload.NewStream(cfg, 50_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.RunStreamInto(res, cfg.P, WDEQPolicy{}, warm, sink, Options{}); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	stream, err := workload.NewStream(cfg, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	agg.Reset()
	sk.Reset()
	if err := runner.RunStreamInto(res, cfg.P, WDEQPolicy{}, stream, sink, Options{}); err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d of %d", res.Completed, n)
	}
	if agg.Tasks() != n || sk.Sketch.Count() != n {
		t.Fatalf("sinks observed %d/%d tasks, want %d", agg.Tasks(), sk.Sketch.Count(), n)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	// The live heap may wiggle by runtime bookkeeping, but a retained-table
	// regression costs ~80 bytes per task ≈ 80 MB here. A single-megabyte
	// bound leaves two orders of magnitude of slack on both sides.
	const bound = 1 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
		t.Errorf("live heap grew by %d bytes over a %d-task streamed run (bound %d): the run retained per-task state", grew, n, bound)
	}

	// Cumulative allocation is the softer half of the contract: the warmed
	// engine+sinks allocate nothing per task, and the generator is
	// allocation-free too, so total allocated bytes across the entire 1M-task
	// run must stay far below one byte per task.
	if total := int64(after.TotalAlloc) - int64(before.TotalAlloc); total > n/2 {
		t.Errorf("streamed run allocated %d bytes cumulatively (%.3g bytes/task); the steady state should allocate none", total, float64(total)/n)
	}

	// Prefix equivalence: the first 10k tasks of the same workload, run both
	// ways, must agree row for row.
	const prefix = 10_000
	arrivals, err := workload.GenerateArrivals(cfg, prefix, 7)
	if err != nil {
		t.Fatal(err)
	}
	slice := &Result{}
	if err := NewRunner().RunInto(slice, cfg.P, WDEQPolicy{}, arrivals, Options{}); err != nil {
		t.Fatal(err)
	}
	short, err := workload.NewStream(cfg, prefix, 7)
	if err != nil {
		t.Fatal(err)
	}
	full := NewFullSink(prefix)
	streamRes := &Result{}
	if err := NewRunner().RunStreamInto(streamRes, cfg.P, WDEQPolicy{}, short, full, Options{}); err != nil {
		t.Fatal(err)
	}
	if streamRes.WeightedFlow != slice.WeightedFlow || streamRes.Makespan != slice.Makespan ||
		streamRes.Events != slice.Events || streamRes.Completed != slice.Completed {
		t.Errorf("prefix aggregates differ: %+v vs %+v", streamRes, slice)
	}
	for i := range slice.Tasks {
		if full.Tasks[i] != slice.Tasks[i] {
			t.Fatalf("prefix task %d differs: %+v vs %+v", i, full.Tasks[i], slice.Tasks[i])
		}
	}
}
