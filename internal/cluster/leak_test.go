package cluster

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

// settleGoroutines polls runtime.NumGoroutine until it drops to want or a
// bounded retry budget (about two seconds) runs out, and returns the last
// count. Goroutines that were told to stop may need a few scheduler turns to
// return, so a single read right after Run would flake.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 400 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// faultyRouter wraps a router and returns an out-of-range shard on call
// failAt (0-based), forwarding both dispatch capabilities of the wrapped
// router so the run takes the window coordinator.
type faultyRouter struct {
	inner  Router
	calls  int
	failAt int
}

func (r *faultyRouter) Name() string { return "faulty-" + r.inner.Name() }
func (r *faultyRouter) Route(a engine.Arrival, shards []ShardState) int {
	r.calls++
	if r.calls-1 == r.failAt {
		return len(shards)
	}
	return r.inner.Route(a, shards)
}
func (r *faultyRouter) StateFree() bool {
	sf, ok := r.inner.(StateFreeRouter)
	return ok && sf.StateFree()
}
func (r *faultyRouter) WindowStale() bool {
	ws, ok := r.inner.(WindowStaleRouter)
	return ok && ws.WindowStale()
}

// failingStream yields the generated stream and fails instead of yielding
// arrival failAt; a negative failAt never fails.
func failingStream(t *testing.T, n, failAt int) engine.ArrivalStream {
	s, err := workload.NewStream(skewedConfig(60.8), n, 3)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	return streamFunc(func() (engine.Arrival, bool, error) {
		if pos == failAt {
			return engine.Arrival{}, false, errors.New("injected stream fault")
		}
		pos++
		return s.Next()
	})
}

// The window coordinator owns goroutines — the worker pool and, with
// Prefetch, the arrival producer — and every error path must retire them:
// a run that fails mid-window returns the process to its pre-run goroutine
// count.
func TestBatchedErrorPathsLeakNoGoroutines(t *testing.T) {
	const n, shards = 4 * batchSize, 4
	mid := batchSize + batchSize/2 // inside the second window
	cases := []struct {
		name        string
		router      Router
		stale       bool
		streamFault int
		want        string
	}{
		{"router out of range mid-window", &faultyRouter{inner: NewRoundRobin(), failAt: mid}, false, -1, "routed arrival"},
		{"stream error mid-window", NewRoundRobin(), false, mid, "injected stream fault"},
		{"stale run fails after its first view", &faultyRouter{inner: NewLeastBacklog(), failAt: mid}, true, -1, "routed arrival"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, err := Run(Config{
				Shards: shards, P: 8, Policy: wdeq(t), Router: tc.router,
				Workers: 2, Prefetch: true, StaleRouting: tc.stale,
			}, failingStream(t, n, tc.streamFault))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
			if after := settleGoroutines(before); after > before {
				t.Fatalf("goroutines: %d before the run, %d after it failed", before, after)
			}
		})
	}
}
