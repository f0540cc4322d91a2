package main

import (
	"testing"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

// The coordinator picks its dispatch mode from the router's capabilities, so
// a tracing wrapper that dropped one would time a different program.
func TestTracedRouterKeepsCapabilities(t *testing.T) {
	for _, name := range cluster.RouterNames() {
		inner, err := cluster.RouterByName(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := tracedRouter{inner, &layer{every: 16}}
		var w cluster.Router = wrapped
		sfIn, okIn := inner.(cluster.StateFreeRouter)
		sfOut, okOut := w.(cluster.StateFreeRouter)
		if !okOut || sfOut.StateFree() != (okIn && sfIn.StateFree()) {
			t.Errorf("%s: StateFree not forwarded", name)
		}
		wsIn, okIn := inner.(cluster.WindowStaleRouter)
		wsOut, okOut := w.(cluster.WindowStaleRouter)
		if !okOut || wsOut.WindowStale() != (okIn && wsIn.WindowStale()) {
			t.Errorf("%s: WindowStale not forwarded", name)
		}
		if wrapped.Name() != inner.Name() {
			t.Errorf("%s: name %q", name, wrapped.Name())
		}
	}
}

// Wrapped streams and routers must leave every output of a run unchanged,
// in each coordinator mode a workload uses.
func TestWrappedRunsMatchUnwrapped(t *testing.T) {
	cfg, err := arrivalConfig(simSpecs["fleet-replay"])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		router  string
		workers int
		stale   bool
	}{
		{"round-robin", 2, false},
		{"least-backlog", 0, false},
		{"least-backlog", 2, true},
		{"po2", 2, false},
	} {
		var results [2]*engine.LoadResult
		for i, traced := range []bool{false, true} {
			stream, err := workload.NewStream(cfg, 4096, 3)
			if err != nil {
				t.Fatal(err)
			}
			router, err := cluster.RouterByName(c.router, 3)
			if err != nil {
				t.Fatal(err)
			}
			var s engine.ArrivalStream = stream
			next, route := &layer{every: 1}, &layer{every: 16}
			if traced {
				s, router = tracedStream{stream, next}, tracedRouter{router, route}
			}
			results[i], err = cluster.Run(cluster.Config{Shards: 16, P: capacity, Policy: engine.WDEQPolicy{},
				Router: router, Workers: c.workers, StaleRouting: c.stale}, s)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.router, c.workers, err)
			}
			if traced && (next.calls != 4097 || route.calls != 4096 || route.timed != 256) {
				t.Errorf("%s: counted %d pulls and %d routes (%d timed)", c.router, next.calls, route.calls, route.timed)
			}
		}
		if err := sameJSON(results[0], results[1]); err != nil {
			t.Errorf("%s workers=%d stale=%v: %v", c.router, c.workers, c.stale, err)
		}
	}
}

// The traced single-engine drive (StartStream, Step, Finish) must produce
// what the untraced RunStreamInto does.
func TestTracedSoloMatchesUntraced(t *testing.T) {
	s, err := newSim("solo-backlog", 5)
	if err != nil {
		t.Fatal(err)
	}
	s.spec.tasks = 2048
	plain, err := s.sample(false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := s.sample(true)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Fatalf("traced %+v, untraced %+v", traced, plain)
	}
	if s.step.calls != int64(plain.Events)+1 || s.sinkL.calls != 2048 {
		t.Errorf("counted %d steps for %d events, %d sink calls", s.step.calls, plain.Events, s.sinkL.calls)
	}
}
