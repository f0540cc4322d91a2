package cluster

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

// The stale-batched determinism contract, asserted like the parallel
// equivalence suite: the run at Workers=0 is the reference, and
// every other worker count — 1, a few, all shards, beyond the shards — must
// reproduce it byte for byte (dispatch sequence, merged result, shared-sink
// order, fleet-probe trace), for both window-stale routers, with and
// without a probe. Unlike those suites the reference is NOT the sequential
// exact-view coordinator: stale routing is its own deterministic schedule.
func TestStaleBatchedByteIdenticalAcrossWorkers(t *testing.T) {
	const n, shards, seed = 3000, 4, 7
	newStream := func() engine.ArrivalStream {
		s, err := workload.NewStream(skewedConfig(60.8), n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	newRouter := func(name string) Router {
		r, err := RouterByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, router := range []string{"least-backlog", "po2"} {
		for _, withProbe := range []bool{false, true} {
			mode := "noprobe"
			if withProbe {
				mode = "probe"
			}
			t.Run(fmt.Sprintf("%s/%s", router, mode), func(t *testing.T) {
				base := Config{Shards: shards, P: 8, Policy: wdeq(t), StaleRouting: true}
				base.Router = newRouter(router)
				ref := captureRun(t, base, newStream(), withProbe)
				if len(ref.dispatch) != n {
					t.Fatalf("reference run routed %d arrivals, want %d", len(ref.dispatch), n)
				}
				for _, workers := range []int{1, 2, 3, shards, 16} {
					cfg := base
					cfg.Router = newRouter(router)
					cfg.Workers = workers
					got := captureRun(t, cfg, newStream(), withProbe)
					assertCapturesEqual(t, ref, got, fmt.Sprintf("workers=%d", workers))
				}
			})
		}
	}
}

// The adversarial window-edge stream — tied releases across window
// boundaries, zero-volume tasks completing exactly at horizons — must also
// be worker-count-invariant under stale routing.
func TestStaleBatchedWindowBoundaryEdgeCases(t *testing.T) {
	const n, shards = 4 * batchSize, 3
	base := Config{Shards: shards, P: 8, Policy: wdeq(t), StaleRouting: true, Router: NewLeastBacklog()}
	ref := captureRun(t, base, sliceStream(boundaryArrivals(n)), false)
	for _, workers := range []int{1, 2, 3} {
		cfg := base
		cfg.Router = NewLeastBacklog()
		cfg.Workers = workers
		got := captureRun(t, cfg, sliceStream(boundaryArrivals(n)), false)
		assertCapturesEqual(t, ref, got, fmt.Sprintf("workers=%d", workers))
	}
}

// Without a shared sink the stale work loop takes the FeedBatch fast path;
// with one it interleaves per arrival for the sink buffer's window floor.
// Both must produce the same dispatches and merged result — the cluster-level
// face of FeedBatch's bitwise-equivalence contract.
func TestStaleBatchedFeedBatchPathMatchesSinkPath(t *testing.T) {
	const n, shards, seed = 3000, 4, 7
	run := func(workers int, withSink bool) ([]int, []byte) {
		stream, err := workload.NewStream(skewedConfig(60.8), n, seed)
		if err != nil {
			t.Fatal(err)
		}
		routed, rec := record(NewLeastBacklog())
		cfg := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: routed, StaleRouting: true, Workers: workers}
		if withSink {
			cfg.Sink = sinkFunc(func(engine.TaskMetrics) {})
		}
		res, err := Run(cfg, stream)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return rec.dispatch, blob
	}
	refDispatch, refBlob := run(0, false)
	for _, workers := range []int{0, 4} {
		for _, withSink := range []bool{false, true} {
			dispatch, blob := run(workers, withSink)
			label := fmt.Sprintf("workers=%d sink=%v", workers, withSink)
			if len(dispatch) != len(refDispatch) {
				t.Fatalf("%s: %d dispatches vs %d", label, len(dispatch), len(refDispatch))
			}
			for i := range refDispatch {
				if dispatch[i] != refDispatch[i] {
					t.Fatalf("%s: dispatch %d routed to %d, reference chose %d", label, i, dispatch[i], refDispatch[i])
				}
			}
			if string(blob) != string(refBlob) {
				t.Fatalf("%s: merged LoadResult differs from the reference", label)
			}
		}
	}
}

// Stale routing really is a different (deterministic) schedule, and the
// result reports its view cadence: one view per full window plus one for
// the remainder, at the fixed window size.
func TestStaleBatchedViewAccounting(t *testing.T) {
	const n, shards, seed = 3000, 4, 7
	stream, err := workload.NewStream(skewedConfig(60.8), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Shards: shards, P: 8, Policy: wdeq(t), Router: NewLeastBacklog(), StaleRouting: true}, stream)
	if err != nil {
		t.Fatal(err)
	}
	wantViews := (n + batchSize - 1) / batchSize
	if res.StaleViews != wantViews || res.StaleWindow != batchSize {
		t.Fatalf("stale accounting: views=%d window=%d, want %d/%d", res.StaleViews, res.StaleWindow, wantViews, batchSize)
	}
	// The exact-view run reports no stale counters.
	exact := runCluster(t, "least-backlog", shards, n, seed)
	if exact.StaleViews != 0 || exact.StaleWindow != 0 {
		t.Fatalf("exact run leaked stale counters: views=%d window=%d", exact.StaleViews, exact.StaleWindow)
	}
	if exact.Flow.P99 == res.Flow.P99 && exact.PeakBacklog == res.PeakBacklog {
		t.Log("stale and exact least-backlog coincided on every compared metric (possible, but suspicious)")
	}
}

// The StaleRouting flag is a capability check, not a blind switch: a
// state-free router ignores it (batched dispatch never reads the view), an
// exact-state router without the capability is rejected, and an engine
// probe is incompatible with the mode.
func TestStaleRoutingGating(t *testing.T) {
	const n, shards, seed = 2000, 4, 13
	newStream := func() engine.ArrivalStream {
		s, err := workload.NewStream(skewedConfig(60.8), n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Round-robin: flag is a no-op, results identical to the plain run.
	run := func(staleRouting bool) []byte {
		res, err := Run(Config{Shards: shards, P: 8, Policy: wdeq(t), Router: NewRoundRobin(), StaleRouting: staleRouting, Workers: 2}, newStream())
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.StaleViews; staleRouting && got != 0 {
			t.Fatalf("state-free stale run published %d views", got)
		}
		return blob
	}
	if string(run(false)) != string(run(true)) {
		t.Fatal("StaleRouting changed a state-free router's results")
	}

	// An exact-state router without the WindowStale capability is rejected.
	exactOnly := &recordingRouter{inner: NewLeastBacklog()} // wrapper drops the capability
	_, err := Run(Config{Shards: shards, P: 8, Policy: wdeq(t), Router: exactOnly, StaleRouting: true}, newStream())
	if err == nil || !strings.Contains(err.Error(), "WindowStale") {
		t.Fatalf("exact-state router accepted under StaleRouting: %v", err)
	}

	// Engine probes interleave the global timeline; stale windows cannot.
	probe := engine.ProbeFunc(func(engine.Snapshot) {})
	_, err = Run(Config{
		Shards: shards, P: 8, Policy: wdeq(t), Router: NewLeastBacklog(),
		StaleRouting: true, Opts: engine.Options{Probe: probe},
	}, newStream())
	if err == nil || !strings.Contains(err.Error(), "Opts.Probe") {
		t.Fatalf("engine probe accepted under StaleRouting: %v", err)
	}
}

// Config.Prefetch is a pure pipeline stage: both dispatch contracts must be
// byte-identical with and without it.
func TestClusterPrefetchByteIdentical(t *testing.T) {
	const n, shards, seed = 3000, 4, 7
	newStream := func() engine.ArrivalStream {
		s, err := workload.NewStream(skewedConfig(60.8), n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"sequential-exact", func() Config {
			return Config{Shards: shards, P: 8, Policy: wdeq(t), Router: NewLeastBacklog()}
		}},
		{"exact-with-workers", func() Config {
			return Config{Shards: shards, P: 8, Policy: wdeq(t), Router: NewLeastBacklog(), Workers: 2}
		}},
		{"batched-state-free", func() Config {
			return Config{Shards: shards, P: 8, Policy: wdeq(t), Router: NewRoundRobin(), Workers: 2}
		}},
		{"stale-batched", func() Config {
			return Config{Shards: shards, P: 8, Policy: wdeq(t), Router: NewLeastBacklog(), StaleRouting: true, Workers: 2}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := captureRun(t, tc.cfg(), newStream(), false)
			cfg := tc.cfg()
			cfg.Prefetch = true
			pre := captureRun(t, cfg, newStream(), false)
			assertCapturesEqual(t, plain, pre, "prefetch=true")
		})
	}
}
