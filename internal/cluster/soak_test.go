package cluster

import (
	"runtime"
	"testing"

	"github.com/malleable-sched/malleable/internal/workload"
)

// The cluster soak: a quarter-million arrivals routed across an
// eight-shard fleet in one virtual timeline. It asserts the two properties
// a long cluster run must keep — every task completes exactly once, and the
// coordinator's memory stays O(shards · alive), not O(stream) (per-task
// rows are never retained). CI runs it under the race detector as a
// dedicated step; -short skips it to keep local iteration fast.
func TestClusterSoakRoutedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak drives 250k arrivals; skipped with -short")
	}
	const n = 250_000
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	stream, err := workload.NewStream(skewedConfig(57.6), n, 31)
	if err != nil {
		t.Fatal(err)
	}
	router, err := RouterByName("po2", 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Shards: 4, P: 8, Policy: wdeq(t), Router: router}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTasks != n {
		t.Fatalf("completed %d tasks, want %d", res.TotalTasks, n)
	}
	min, max := res.MinShardCompleted, res.MaxShardCompleted
	if min <= 0 || max >= n {
		t.Fatalf("degenerate dispatch: min=%d max=%d", min, max)
	}
	if res.Flow.P99 <= 0 {
		t.Fatalf("p99 flow = %g", res.Flow.P99)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// The live-heap delta must be a fleet-sized constant, nowhere near the
	// ~40 MiB retaining 250k TaskMetrics rows would cost. 4 MiB of slack
	// absorbs sketch windows and allocator noise.
	if delta := int64(after.HeapAlloc) - int64(before.HeapAlloc); delta > 4<<20 {
		t.Errorf("live heap grew by %d bytes over a %d-task cluster run; want a fleet-sized constant", delta, n)
	}
}

// The parallel soak: the same quarter-million-arrival fleet on the
// multi-worker window coordinator, once per way of reaching it — round-robin
// is state-free, and least-backlog reads window views under StaleRouting.
// CI runs this under the race detector as a dedicated step, which is the
// whole point: the spin barrier, the per-shard ownership partition and the
// window handoff get hundreds of windows of adversarial scheduling. The
// memory contract must hold too: worker stacks and batch scratch are
// fleet-sized, not stream-sized.
func TestClusterSoakParallelRoutedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel cluster soak drives 2x250k arrivals; skipped with -short")
	}
	const n = 250_000
	for _, tc := range []struct {
		router string
		label  string
		stale  bool
	}{
		{"round-robin", "batched", false},
		{"least-backlog", "stale", true},
	} {
		t.Run(tc.label, func(t *testing.T) {
			runtime.GC()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)

			stream, err := workload.NewStream(skewedConfig(57.6), n, 31)
			if err != nil {
				t.Fatal(err)
			}
			router, err := RouterByName(tc.router, 8)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{Shards: 4, P: 8, Policy: wdeq(t), Router: router, Workers: 4, StaleRouting: tc.stale}, stream)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalTasks != n {
				t.Fatalf("%s coordinator completed %d tasks, want %d", tc.label, res.TotalTasks, n)
			}
			if res.Flow.P99 <= 0 {
				t.Fatalf("p99 flow = %g", res.Flow.P99)
			}

			runtime.GC()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			if delta := int64(after.HeapAlloc) - int64(before.HeapAlloc); delta > 4<<20 {
				t.Errorf("live heap grew by %d bytes over a %d-task parallel cluster run; want a fleet-sized constant", delta, n)
			}
		})
	}
}
