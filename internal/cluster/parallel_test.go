package cluster

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/workload"
)

// recordingStateFree is a recordingRouter that preserves the wrapped
// router's state-free declaration, so recording the dispatch sequence does
// not silently demote a batched run to the exact coordinator.
type recordingStateFree struct {
	recordingRouter
}

func (r *recordingStateFree) StateFree() bool { return true }

// recordingWindowStale likewise preserves the wrapped router's window-stale
// declaration, so recording does not demote a stale-batched run either.
type recordingWindowStale struct {
	recordingRouter
}

func (r *recordingWindowStale) WindowStale() bool { return true }

// record wraps a router with dispatch recording, keeping the StateFree and
// WindowStale capabilities intact.
func record(inner Router) (Router, *recordingRouter) {
	if sf, ok := inner.(StateFreeRouter); ok && sf.StateFree() {
		r := &recordingStateFree{recordingRouter{inner: inner}}
		return r, &r.recordingRouter
	}
	if ws, ok := inner.(WindowStaleRouter); ok && ws.WindowStale() {
		r := &recordingWindowStale{recordingRouter{inner: inner}}
		return r, &r.recordingRouter
	}
	r := &recordingRouter{inner: inner}
	return r, r
}

// observers selects what a captured run attaches: a shared sink, a fleet
// probe, an engine probe.
type observers struct {
	sink, fleetProbe, engineProbe bool
}

// parallelCapture is everything observable about one cluster run: the
// dispatch sequence, the full merged result (JSON blob, so every field
// participates in the comparison), every shared-sink row in order, the
// fleet-probe trace and the engine-probe trace. sinkBursts counts the gaps
// between routing decisions in which sink rows arrived: the window
// coordinator delivers rows only at window barriers, the exact coordinator
// between almost every pair of dispatches.
type parallelCapture struct {
	dispatch   []int
	blob       []byte
	rows       []engine.TaskMetrics
	probe      *fleetProbe
	snaps      []engine.Snapshot
	sinkBursts int
}

func captureRun(t *testing.T, cfg Config, stream engine.ArrivalStream, withProbe bool) parallelCapture {
	t.Helper()
	got, err := captureObserved(cfg, stream, observers{sink: true, fleetProbe: withProbe})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func captureObserved(cfg Config, stream engine.ArrivalStream, o observers) (parallelCapture, error) {
	routed, rec := record(cfg.Router)
	cfg.Router = routed
	var got parallelCapture
	if o.sink {
		mark := -1
		cfg.Sink = sinkFunc(func(m engine.TaskMetrics) {
			if mark != len(rec.dispatch) {
				mark = len(rec.dispatch)
				got.sinkBursts++
			}
			got.rows = append(got.rows, m)
		})
	}
	if o.fleetProbe {
		got.probe = &fleetProbe{}
		cfg.Probe = got.probe
	}
	if o.engineProbe {
		cfg.Opts.Probe = engine.ProbeFunc(func(s engine.Snapshot) { got.snaps = append(got.snaps, s) })
	}
	res, err := Run(cfg, stream)
	if err != nil {
		return got, err
	}
	got.blob, err = json.Marshal(res)
	got.dispatch = rec.dispatch
	return got, err
}

func assertCapturesEqual(t *testing.T, want, got parallelCapture, label string) {
	t.Helper()
	if len(want.dispatch) != len(got.dispatch) {
		t.Fatalf("%s: dispatch count %d vs sequential %d", label, len(got.dispatch), len(want.dispatch))
	}
	for i := range want.dispatch {
		if want.dispatch[i] != got.dispatch[i] {
			t.Fatalf("%s: dispatch %d routed to shard %d, sequential chose %d", label, i, got.dispatch[i], want.dispatch[i])
		}
	}
	if string(want.blob) != string(got.blob) {
		t.Fatalf("%s: merged LoadResult differs from the sequential coordinator's", label)
	}
	if len(want.rows) != len(got.rows) {
		t.Fatalf("%s: shared sink saw %d rows, sequential %d", label, len(got.rows), len(want.rows))
	}
	for i := range want.rows {
		if want.rows[i] != got.rows[i] {
			t.Fatalf("%s: sink row %d = %+v, sequential %+v", label, i, got.rows[i], want.rows[i])
		}
	}
	if (want.probe == nil) != (got.probe == nil) {
		t.Fatalf("%s: probe presence mismatch", label)
	}
	if want.probe != nil {
		if len(want.probe.times) != len(got.probe.times) {
			t.Fatalf("%s: probe fired %d times, sequential %d", label, len(got.probe.times), len(want.probe.times))
		}
		for i := range want.probe.times {
			if want.probe.times[i] != got.probe.times[i] ||
				want.probe.dispatched[i] != got.probe.dispatched[i] ||
				want.probe.backlogs[i] != got.probe.backlogs[i] ||
				want.probe.completed[i] != got.probe.completed[i] {
				t.Fatalf("%s: probe observation %d differs from sequential", label, i)
			}
		}
	}
	if len(want.snaps) != len(got.snaps) {
		t.Fatalf("%s: engine probe fired %d times, sequential %d", label, len(got.snaps), len(want.snaps))
	}
	for i := range want.snaps {
		if want.snaps[i] != got.snaps[i] {
			t.Fatalf("%s: engine probe observation %d = %+v, sequential %+v", label, i, got.snaps[i], want.snaps[i])
		}
	}
}

// The coordinator-selection contract, as one table: every bundled router ×
// Workers {0, 1, 2, 8} × observer {plain, shared sink, fleet probe, engine
// probe} × StaleRouting. Selection is batched := stale || (workers >= 2 &&
// state-free router && no fleet or engine probe); everything else runs the
// exact coordinator. Non-stale runs must be byte-identical to the Workers 0
// run — dispatch sequence, merged LoadResult, sink rows, probe traces —
// whichever coordinator the rule picked; stale runs must be byte-identical
// across Workers; the one rejected bundled combination (StaleRouting with
// an engine probe, whatever the router) must keep its error. The sink's
// delivery pattern shows which coordinator actually ran.
func TestParallelMatchesSequentialByteForByte(t *testing.T) {
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
	kinds := []struct {
		name string
		o    observers
	}{
		{"plain", observers{}},
		{"sink", observers{sink: true}},
		{"fleet-probe", observers{fleetProbe: true}},
		{"engine-probe", observers{engineProbe: true}},
	}
	windows := (n + batchSize - 1) / batchSize
	for _, router := range RouterNames() {
		sf, ok := newRouter(router).(StateFreeRouter)
		stateFree := ok && sf.StateFree()
		for _, kind := range kinds {
			for _, stale := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/stale=%v", router, kind.name, stale), func(t *testing.T) {
					var ref parallelCapture
					for _, workers := range []int{0, 1, 2, 8} {
						cfg := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: newRouter(router),
							Workers: workers, StaleRouting: stale}
						got, err := captureObserved(cfg, newStream(), kind.o)
						if stale && kind.o.engineProbe {
							if err == nil || !strings.Contains(err.Error(), "Opts.Probe") {
								t.Fatalf("workers=%d: StaleRouting with an engine probe: err = %v, want the Opts.Probe rejection", workers, err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						if len(got.dispatch) != n {
							t.Fatalf("workers=%d: routed %d arrivals, want %d", workers, len(got.dispatch), n)
						}
						if kind.o.sink {
							batched := (stale && !stateFree) ||
								(workers >= 2 && stateFree && !kind.o.fleetProbe && !kind.o.engineProbe)
							if windowed := got.sinkBursts <= windows+1; windowed != batched {
								t.Fatalf("workers=%d: sink rows arrived in %d bursts over %d windows; want batched=%v",
									workers, got.sinkBursts, windows, batched)
							}
						}
						if workers == 0 {
							ref = got
							continue
						}
						assertCapturesEqual(t, ref, got, fmt.Sprintf("workers=%d", workers))
					}
				})
			}
		}
	}
}

// sliceStream adapts an arrival slice to an ArrivalStream.
func sliceStream(arrs []engine.Arrival) engine.ArrivalStream {
	pos := 0
	return streamFunc(func() (engine.Arrival, bool, error) {
		if pos >= len(arrs) {
			return engine.Arrival{}, false, nil
		}
		a := arrs[pos]
		pos++
		return a, true, nil
	})
}

// boundaryArrivals builds the adversarial stream for the window-edge tests:
// arrivals clustered on integer instants (eight per instant, so shard events
// collide with window horizons and with each other), every fourth task
// zero-volume (completes the instant it is admitted — exactly AT the window
// boundary), tenants cycling so hash-tenant spreads them.
func boundaryArrivals(n int) []engine.Arrival {
	arrs := make([]engine.Arrival, n)
	for i := range arrs {
		task := schedule.Task{Weight: 1 + float64(i%3), Volume: float64(1 + i%5), Delta: 2}
		if i%4 == 0 {
			task.Volume = 0 // zero-volume: admission and completion coincide
		}
		arrs[i] = engine.Arrival{
			Task:    task,
			Release: float64(i / 8), // eight simultaneous releases per instant
			Tenant:  i % 6,
		}
	}
	return arrs
}

// Window-boundary edge cases: zero-volume tasks completing exactly at the
// lookahead horizon, simultaneous events on several shards at the same
// instant, and equal-release runs crossing batch boundaries (n far exceeds
// batchSize). Every bundled router must still reproduce its Workers 0 run
// bit for bit, whether the selection rule sends it to the window
// coordinator (state-free) or keeps it on the exact one.
func TestParallelWindowBoundaryEdgeCases(t *testing.T) {
	const n, shards = 4 * batchSize, 3
	for _, router := range RouterNames() {
		t.Run(router, func(t *testing.T) {
			newRouter := func() Router {
				r, err := RouterByName(router, 5)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			base := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: newRouter()}
			seq := captureRun(t, base, sliceStream(boundaryArrivals(n)), false)
			for _, workers := range []int{2, 3} {
				cfg := base
				cfg.Router = newRouter()
				cfg.Workers = workers
				par := captureRun(t, cfg, sliceStream(boundaryArrivals(n)), false)
				assertCapturesEqual(t, seq, par, fmt.Sprintf("workers=%d", workers))
			}
		})
	}
}

// Worker count beyond the shard count is capped, never wrong: 16 workers on
// 2 shards must match the sequential run exactly.
func TestParallelWorkersExceedShards(t *testing.T) {
	const n, shards = 2000, 2
	newStream := func() engine.ArrivalStream {
		s, err := workload.NewStream(skewedConfig(30), n, 13)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: NewLeastBacklog()}
	seq := captureRun(t, base, newStream(), true)
	cfg := base
	cfg.Router = NewLeastBacklog()
	cfg.Workers = 16
	par := captureRun(t, cfg, newStream(), true)
	assertCapturesEqual(t, seq, par, "workers=16 shards=2")
}

// An engine-level probe (Options.Probe) interleaves every shard's rest
// states on the global timeline, which only the sequential coordinator can
// order; Workers must silently fall back and the probe trace must be
// identical to an explicitly sequential run's.
func TestParallelEngineProbeForcesSequential(t *testing.T) {
	const n, shards = 1500, 3
	type obs struct {
		now       float64
		completed int
		backlog   int
		done      bool
	}
	run := func(workers int) ([]obs, []byte) {
		var seen []obs
		probe := engine.ProbeFunc(func(s engine.Snapshot) {
			seen = append(seen, obs{now: s.Now, completed: s.Completed, backlog: s.Backlog, done: s.Done})
		})
		stream, err := workload.NewStream(skewedConfig(40), n, 31)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Shards: shards, P: 8, Policy: wdeq(t), Router: NewRoundRobin(),
			Workers: workers, Opts: engine.Options{Probe: probe},
		}, stream)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return seen, blob
	}
	seqObs, seqBlob := run(0)
	parObs, parBlob := run(4)
	if len(seqObs) == 0 {
		t.Fatal("engine probe never fired")
	}
	if len(seqObs) != len(parObs) {
		t.Fatalf("probe fired %d times with workers, %d sequentially", len(parObs), len(seqObs))
	}
	for i := range seqObs {
		if seqObs[i] != parObs[i] {
			t.Fatalf("probe observation %d: %+v with workers vs %+v sequential", i, parObs[i], seqObs[i])
		}
	}
	if string(seqBlob) != string(parBlob) {
		t.Fatal("results differ between Workers=4 (probe fallback) and sequential run")
	}
}

// Negative worker counts are a configuration error, not a silent default.
func TestParallelNegativeWorkersRejected(t *testing.T) {
	stream := sliceStream(boundaryArrivals(8))
	_, err := Run(Config{Shards: 2, P: 8, Policy: wdeq(t), Workers: -1}, stream)
	if err == nil {
		t.Fatal("Workers=-1 accepted")
	}
}

// A 64-shard fleet, eight times the shards of the selection table, with
// Workers both below and equal to the shard count: every bundled router
// (and both window-stale ones under StaleRouting) must be byte-identical to
// its Workers 0 run, whichever contract it runs under.
func TestFleetOf64ShardsByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("64-shard fleet comparison is slow under -short")
	}
	const n, shards, seed = 8192, 64, 411
	type tc struct {
		router string
		stale  bool
	}
	var cases []tc
	for _, router := range RouterNames() {
		cases = append(cases, tc{router: router})
	}
	cases = append(cases, tc{"least-backlog", true}, tc{"po2", true})
	for _, c := range cases {
		name := c.router
		if c.stale {
			name += "/stale"
		}
		t.Run(name, func(t *testing.T) {
			capture := func(workers int) parallelCapture {
				r, err := RouterByName(c.router, seed)
				if err != nil {
					t.Fatal(err)
				}
				s, err := workload.NewStream(skewedConfig(900), n, seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: r, Workers: workers, StaleRouting: c.stale}
				return captureRun(t, cfg, s, false)
			}
			ref := capture(0)
			if len(ref.dispatch) != n {
				t.Fatalf("routed %d arrivals, want %d", len(ref.dispatch), n)
			}
			for _, workers := range []int{8, shards} {
				assertCapturesEqual(t, ref, capture(workers), fmt.Sprintf("64 shards workers=%d", workers))
			}
		})
	}
}

// Engine options reach every shard unchanged under both contracts: a run
// with the decision trace on (which switches off the certified fast path)
// or with the naive event core must be byte-identical to its Workers 0 run
// for a state-free router (window coordinator at Workers >= 2) and a
// state-reading one (always exact).
func TestEngineOptionsByteIdenticalAcrossWorkers(t *testing.T) {
	const n, shards, seed = 2000, 4, 17
	opts := []struct {
		name string
		opts engine.Options
	}{
		{"trace", engine.Options{TraceDecisions: true}},
		{"naive-core", engine.Options{EventCore: engine.CoreNaive}},
	}
	for _, o := range opts {
		for _, router := range []string{"round-robin", "least-backlog"} {
			t.Run(o.name+"/"+router, func(t *testing.T) {
				capture := func(workers int) parallelCapture {
					r, err := RouterByName(router, seed)
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{Shards: shards, P: 8, Policy: wdeq(t), Router: r, Workers: workers, Opts: o.opts}
					return captureRun(t, cfg, sliceStream(boundaryArrivals(n)), false)
				}
				ref := capture(0)
				for _, workers := range []int{2, shards} {
					assertCapturesEqual(t, ref, capture(workers), fmt.Sprintf("%s workers=%d", o.name, workers))
				}
			})
		}
	}
}
