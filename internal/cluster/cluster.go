// Package cluster is the virtual-time fleet layer above the engine kernel:
// one coordinator owns N resumable steppers (one per shard) and ONE global
// arrival stream, and dispatches each arrival at its release time to a shard
// chosen by a pluggable Router. This is the layer where shard count becomes
// a scheduling variable instead of a parallelism knob — the engine's
// independent-streams drivers (engine.RunShards*) answer "how fast can N
// decoupled schedulers run", this package answers "how should arriving tasks
// be routed to schedulers, and what does the routing policy cost".
//
// The coordinator advances the fleet in global event order: before an
// arrival is routed, every shard has processed every event up to the
// arrival's release, so the Router observes exact live backlog and
// allocation snapshots, not stale polls. That sequencing is what makes a
// cluster run byte-deterministic — same stream, same router, same seed,
// same report, at any GOMAXPROCS.
//
// Two dispatch contracts run on that timeline (see the DESIGN.md section
// "Dispatch contracts"):
//
//   - exact (runSequential): the router sees every shard's exact state at
//     each arrival's release. This is the default, and every configuration
//     that does not ask for the window contract runs it, whatever Workers
//     says.
//   - window (runBatched): the coordinator pre-routes up to batchSize
//     arrivals against a view published once per window and then advances
//     every shard through the window privately — on a worker pool when
//     Workers >= 2, serially otherwise. State-free routers never read the
//     view, so their results stay identical to the exact contract's;
//     window-stale routers (Config.StaleRouting) read it and get a
//     different, but equally deterministic, schedule.
//
// Either way the output — dispatch sequence, merged LoadResult, shared-sink
// order, fleet-probe observations — is a pure function of the stream and
// the configuration, never of the worker count, which the test suite
// asserts.
package cluster

import (
	"fmt"
	"math"

	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

// batchSize bounds how many arrivals the window coordinator pre-routes
// between barriers: larger batches amortize the barrier, while the bound
// keeps the coordinator's batch scratch O(1) in the stream length. The value
// is fixed — for state-free routers it must not influence results (and
// tests pin that it does not), and for window-stale routers it is part of
// the schedule's definition (the view is refreshed once per window).
const batchSize = 512

// Config parameterizes a cluster run.
type Config struct {
	// Shards is the number of scheduler shards (engine steppers).
	Shards int
	// P is the per-shard platform capacity.
	P float64
	// Policy is the per-shard scheduling policy. Bundled policies are
	// stateless values; the coordinator clones per-shard state where a
	// policy carries any (engine.Runner does this), so one value may be
	// shared across shards even with Workers > 1.
	Policy engine.Policy
	// Router picks the destination shard of each arrival; nil defaults to
	// round-robin.
	Router Router
	// Opts are the per-shard engine options (speedup model, event bounds),
	// applied uniformly to every shard. A non-nil Opts.Probe observes every
	// shard's engine-level rest states interleaved on the global timeline;
	// that interleave is inherently sequential, so setting it forces the
	// exact coordinator regardless of Workers (the output stays
	// byte-identical either way, which is the point).
	Opts engine.Options
	// Workers sets how many pool workers advance shards through a dispatch
	// window; it is capped at Shards. Workers only parallelise batched
	// dispatch: the window coordinator of a state-free router (without a
	// fleet Probe or Opts.Probe) or of a StaleRouting run. Every other run uses the exact
	// coordinator on one goroutine. Every observable output is
	// byte-identical across all Workers settings; the knob trades
	// goroutines for wall-clock time only.
	Workers int
	// StaleRouting opts a state-reading router into the window contract
	// (see the DESIGN.md section "Dispatch contracts"): the router's fleet
	// view is published once per dispatch window of up to batchSize
	// arrivals — the state every shard reached at the last window boundary,
	// evolved only by the coordinator's own in-window dispatch counts —
	// instead of being re-synchronized per dispatch. The view is a pure
	// function of the stream and the window size, never of worker
	// interleaving, so output stays byte-identical at every Workers setting
	// (including 0 and 1, which run the same windowed algorithm serially).
	// It is NOT the exact-view schedule: routing decisions, and therefore
	// results, differ deterministically from the exact coordinator's.
	// Requires a router declaring the WindowStaleRouter capability
	// (least-backlog, po2); a state-free router ignores the flag (it never
	// reads the view), any other router is rejected. Incompatible with
	// Opts.Probe (whose global event interleave needs the exact
	// coordinator).
	StaleRouting bool
	// Prefetch overlaps arrival generation or trace decoding with shard
	// execution: a single producer goroutine fills fixed-size buffers — one
	// dispatch window each — while the coordinator drains the previously
	// handed-off one (see workload.Prefetch). Handoff happens at fixed
	// batch boundaries, so the coordinator observes exactly the stream's
	// sequence and every mode's output is unchanged; the knob trades one
	// goroutine for overlap, nothing more.
	Prefetch bool
	// Sink, when non-nil, observes every completed task of the whole fleet
	// in a deterministic global order: ascending completion time, ties by
	// shard index, exactly the order the sequential coordinator emits. On
	// the window coordinator completions are buffered per shard during a
	// window and replayed into Sink in that same order at the next barrier.
	Sink engine.MetricSink
	// Probe, when non-nil, observes the fleet at dispatch time: it is handed
	// the same exact per-shard snapshots the Router just saw (after the
	// dispatch was counted), so probe output and routing decisions describe
	// the same instant. A final observation fires after the fleet drains,
	// with every shard's terminal counters. Fleet probing wants an exact
	// snapshot per dispatch, so it keeps a StateFreeRouter on the exact
	// coordinator; under StaleRouting it observes the window views the
	// router saw. See Probe.
	Probe Probe
	// ProbeEveryDispatches fires the probe every k-th dispatch (k > 0); 0
	// observes every dispatch. The snapshots are assembled for the router
	// anyway, so thinning only saves the probe body, not the scan.
	ProbeEveryDispatches int
}

// Probe observes the fleet's per-shard state on the coordinator's virtual
// timeline — the cluster half of the observability plane (internal/obs
// exposes implementations as labeled Prometheus gauge families).
//
// ObserveFleet is called from the coordinator goroutine; now is the release
// time of the arrival just dispatched (or the fleet's final virtual time on
// the closing observation). The shards slice is the coordinator's scratch:
// implementations must read it synchronously and must not retain it.
type Probe interface {
	ObserveFleet(now float64, shards []ShardState)
}

// coordinator is the per-run state shared by the two dispatch contracts:
// the shard steppers and their result/sink columns, the validated
// one-arrival lookahead into the global stream, and the scratch the router
// and probe observe.
type coordinator struct {
	cfg    Config
	n      int
	router Router
	stream engine.ArrivalStream

	runners    []*engine.Runner
	results    []*engine.Result
	aggs       []*engine.AggregateSink
	sketches   []*engine.SketchSink
	steppers   []*engine.Stepper
	states     []ShardState
	dispatched []int
	routed     int

	// One look-ahead into the global stream, with the same boundary
	// validation the engine applies.
	count       int
	lastRelease float64

	// Exact contract: the index-min heap over shard next-event times.
	h shardHeap

	// Window contract: the worker pool (nil below two workers), and the
	// per-shard completion buffers with their merge scratch (only when
	// cfg.Sink is set).
	pool      *pool
	bufs      []*sinkBuffer
	flushHead []int
}

// Run dispatches the global arrival stream across the fleet and merges the
// per-shard outcomes into the same LoadResult schema the independent-streams
// drivers report: per-shard results in Shards, deterministic aggregate and
// sketch merges, flow quantiles flagged FlowApprox, and the imbalance
// fields (MinShardCompleted/MaxShardCompleted/PeakBacklog) that make router
// quality visible without a profiler.
//
// Arrivals are validated at the coordinator boundary (well-formed,
// non-decreasing releases) and fed to the routed shard at their release
// time; per-task rows are never retained, so a run's memory is
// O(shards · (alive tasks + sink size)) regardless of the stream length.
//
// A state-free router (without a fleet or engine probe) at
// cfg.Workers >= 2, and every StaleRouting run, take the window
// coordinator; everything else takes the exact one (see Config.Workers).
// The returned result and every configured observer output are
// byte-identical across Workers settings.
func Run(cfg Config, stream engine.ArrivalStream) (*engine.LoadResult, error) {
	if stream == nil {
		return nil, fmt.Errorf("cluster: nil arrival stream")
	}
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("cluster: need at least one shard, got %d", cfg.Shards)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: nil policy")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("cluster: negative worker count %d", cfg.Workers)
	}
	router := cfg.Router
	if router == nil {
		router = NewRoundRobin()
	}
	sf, ok := router.(StateFreeRouter)
	stateFree := ok && sf.StateFree()
	// Window-stale dispatch is a router capability, not just a flag: the
	// router must have declared that boundary views are acceptable input.
	stale := false
	if cfg.StaleRouting {
		if cfg.Opts.Probe != nil {
			return nil, fmt.Errorf("cluster: StaleRouting is incompatible with an engine probe (Opts.Probe): the probe interleaves every shard's events on one timeline, stale dispatch advances shards through private windows; drop one")
		}
		if ws, ok := router.(WindowStaleRouter); ok && ws.WindowStale() {
			stale = true
		} else if !stateFree {
			return nil, fmt.Errorf("cluster: router %q reads exact fleet state and declares no WindowStaleRouter capability; StaleRouting needs a window-stale router (least-backlog, po2) or a state-free one", router.Name())
		}
		// A state-free router never reads the view at all, so the flag is a
		// no-op there.
	}
	if cfg.Prefetch {
		// The prefetcher is a pure pipeline stage over the global stream —
		// same arrivals, same order — so it composes with both contracts.
		pf := workload.NewPrefetch(stream, batchSize)
		defer pf.Stop()
		stream = pf
	}

	c := &coordinator{cfg: cfg, n: cfg.Shards, router: router, stream: stream}

	workers := cfg.Workers
	if workers > c.n {
		workers = c.n
	}
	// Engine-level probes interleave every shard's rest states on one
	// timeline, and fleet probes want an exact snapshot per dispatch; both
	// pin a state-free router to the exact contract.
	batched := stale || (workers >= 2 && stateFree && cfg.Probe == nil && cfg.Opts.Probe == nil)

	n := c.n
	c.runners = make([]*engine.Runner, n)
	c.results = make([]*engine.Result, n)
	c.aggs = make([]*engine.AggregateSink, n)
	c.sketches = make([]*engine.SketchSink, n)
	c.steppers = make([]*engine.Stepper, n)
	c.states = make([]ShardState, n)
	c.dispatched = make([]int, n)
	if batched && cfg.Sink != nil {
		c.bufs = make([]*sinkBuffer, n)
		c.flushHead = make([]int, n)
	}
	for i := 0; i < n; i++ {
		c.states[i].Shard = i
		c.runners[i] = engine.NewRunner()
		c.results[i] = &engine.Result{}
		c.aggs[i] = engine.NewAggregateSink()
		c.sketches[i] = engine.NewSketchSink(0)
		shared := cfg.Sink
		if c.bufs != nil {
			c.bufs[i] = &sinkBuffer{}
			shared = c.bufs[i]
		}
		sink := engine.MultiSink(c.aggs[i], c.sketches[i], shared)
		st, err := c.runners[i].StartFeed(c.results[i], cfg.P, cfg.Policy, sink, cfg.Opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		c.steppers[i] = st
	}

	if !batched {
		return c.runSequential()
	}
	// The window contract runs the same algorithm at every worker count —
	// the window schedule is fixed by the stream, workers only add hands —
	// so below two workers it runs serially, without a pool.
	if workers >= 2 {
		c.pool = newPool(workers, n)
		defer c.pool.close()
	}
	return c.runBatched(stale)
}

// pull advances the global one-arrival lookahead, validating each arrival
// and the release ordering at the coordinator boundary with errors labeled
// by stream position.
func (c *coordinator) pull() (engine.Arrival, bool, error) {
	a, ok, err := c.stream.Next()
	if err != nil {
		return engine.Arrival{}, false, fmt.Errorf("cluster: arrival %d: %w", c.count, err)
	}
	if !ok {
		return engine.Arrival{}, false, nil
	}
	if err := a.Validate(); err != nil {
		return engine.Arrival{}, false, fmt.Errorf("cluster: arrival %d: %w", c.count, err)
	}
	if c.count > 0 && a.Release < c.lastRelease {
		return engine.Arrival{}, false, fmt.Errorf(
			"cluster: arrival %d: release %g precedes %g — the global stream must be non-decreasing in release time",
			c.count, a.Release, c.lastRelease)
	}
	c.lastRelease = a.Release
	c.count++
	return a, true, nil
}

// fillStates snapshots every shard into the router/probe scratch.
func (c *coordinator) fillStates() {
	for i, st := range c.steppers {
		c.states[i] = ShardState{
			Shard:      i,
			Now:        st.Now(),
			Backlog:    st.Backlog(),
			Allocated:  st.Allocated(),
			Completed:  st.Completed(),
			Dispatched: c.dispatched[i],
		}
	}
}

// route asks the router for the arrival's destination and range-checks it.
func (c *coordinator) route(a engine.Arrival) (int, error) {
	idx := c.router.Route(a, c.states)
	if idx < 0 || idx >= c.n {
		return 0, fmt.Errorf("cluster: router %q routed arrival %d to shard %d of %d", c.router.Name(), c.count-1, idx, c.n)
	}
	return idx, nil
}

// observeDispatch fires the fleet probe for the dispatch just performed,
// honoring the thinning configuration. The probe sees exactly what the
// router saw, plus the dispatch it just caused — the fed arrival itself is
// not admitted until the shard's next event, so Backlog is still the routed
// view.
func (c *coordinator) observeDispatch(idx int, release float64) {
	if c.cfg.Probe != nil && (c.cfg.ProbeEveryDispatches <= 1 || c.routed%c.cfg.ProbeEveryDispatches == 0) {
		c.states[idx].Dispatched = c.dispatched[idx]
		c.cfg.Probe.ObserveFleet(release, c.states)
	}
}

// runSequential advances the fleet on the coordinator goroutine in global
// event order, ordering the shards' next events on the index-min heap —
// O(log shards) per event instead of the former linear scan per event.
func (c *coordinator) runSequential() (*engine.LoadResult, error) {
	c.h.init(c.n)
	// advance processes every shard event at or before horizon in global
	// (time, shard index) order; the heap keys are refreshed only for the
	// stepped shard, the single shard whose state changed.
	advance := func(horizon float64) error {
		for {
			s, t := c.h.min()
			if math.IsInf(t, 1) || t > horizon {
				return nil
			}
			if _, err := c.steppers[s].Step(); err != nil {
				return fmt.Errorf("cluster: shard %d: %w", s, err)
			}
			c.h.update(s, c.steppers[s].NextEventTime())
		}
	}

	next, ok, err := c.pull()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("cluster: empty arrival stream")
	}
	for ok {
		// Bring every shard up to the arrival's release time: completions
		// (and capacity steps) due before it are processed first, so the
		// router's snapshots are exact at dispatch time. Shard events at the
		// same instant as the arrival retire before routing — a router
		// should see a queue that just drained as drained.
		if err := advance(next.Release); err != nil {
			return nil, err
		}
		c.fillStates()
		idx, err := c.route(next)
		if err != nil {
			return nil, err
		}
		if err := c.steppers[idx].Feed(next); err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", idx, err)
		}
		c.h.update(idx, c.steppers[idx].NextEventTime())
		c.dispatched[idx]++
		c.routed++
		c.observeDispatch(idx, next.Release)
		next, ok, err = c.pull()
		if err != nil {
			return nil, err
		}
	}

	// The global stream is over: close every feed and drain the fleet in
	// the same global event order.
	for _, st := range c.steppers {
		st.CloseFeed()
	}
	if err := advance(math.Inf(1)); err != nil {
		return nil, err
	}
	return c.finish()
}

// shardBatch is one shard's dispatch subsequence of the current batch.
type shardBatch struct {
	arrivals []int32 // indices into the batch's arrival slice
}

// feedWindow advances shard s through one dispatch window: its subsequence
// of the batch is fed in release order, then events drain up to the window
// horizon. Without a shared sink the whole subsequence goes through
// Stepper.FeedBatch — one fused advance-and-feed call per shard per window,
// which is where batched dispatch's per-arrival overhead goes away; with
// one, feeds interleave an arrival at a time so the sink buffer's window
// floor can track each dispatch (see sinkBuffer). The two paths are
// bit-identical by FeedBatch's contract.
func (c *coordinator) feedWindow(s int, arrs []engine.Arrival, idxs []int32, scratch [][]engine.Arrival, horizon float64) error {
	st := c.steppers[s]
	if c.bufs == nil {
		if len(idxs) > 0 {
			batch := scratch[s][:0]
			for _, gi := range idxs {
				batch = append(batch, arrs[gi])
			}
			scratch[s] = batch
			if _, err := st.FeedBatch(batch); err != nil {
				return fmt.Errorf("cluster: shard %d: %w", s, err)
			}
		}
	} else {
		buf := c.bufs[s]
		for _, gi := range idxs {
			a := arrs[gi]
			if _, err := st.StepUntil(a.Release); err != nil {
				return fmt.Errorf("cluster: shard %d: %w", s, err)
			}
			if err := st.Feed(a); err != nil {
				return fmt.Errorf("cluster: shard %d: %w", s, err)
			}
			buf.floor = int(gi) + 1
		}
	}
	if _, err := st.StepUntil(horizon); err != nil {
		return fmt.Errorf("cluster: shard %d: %w", s, err)
	}
	return nil
}

// runBatched is the window contract's coordinator. Each window it publishes
// a fleet view — every shard's exact rest state at the previous window's
// horizon — pre-routes up to batchSize arrivals against it, counting each
// routed-but-not-yet-admitted arrival into its target's backlog and
// dispatch tally, and then hands every shard its dispatch subsequence to
// advance privately: one barrier per window instead of one per dispatch.
//
// Determinism does not depend on the worker count. Which arrivals form a
// window is fixed by the stream and batchSize, and every shard's state at a
// boundary is fixed by the dispatches before it, so the views — and with
// them the dispatch sequence — never depend on how many workers advanced
// the shards or in what order they finished. A state-free router never
// reads the view, so its per-shard trajectories are exactly the exact
// coordinator's (a stepper's events depend only on its own feeds and their
// release times); a window-stale router reads it and gets its own
// deterministic schedule, stale by at most one window. The shared sink's
// global order is reconstructed from the per-row (window, time, shard) key
// (see sinkBuffer), and the fleet probe observes the same views the router
// saw.
func (c *coordinator) runBatched(stale bool) (*engine.LoadResult, error) {
	arrs := make([]engine.Arrival, 0, batchSize)
	releases := make([]float64, 0, batchSize)
	perShard := make([]shardBatch, c.n)
	scratch := make([][]engine.Arrival, c.n) // per-shard FeedBatch input
	var horizon float64
	views := 0

	work := func(s int) error {
		return c.feedWindow(s, arrs, perShard[s].arrivals, scratch, horizon)
	}

	next, ok, err := c.pull()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("cluster: empty arrival stream")
	}
	for ok {
		arrs = arrs[:0]
		releases = releases[:0]
		for i := range perShard {
			perShard[i].arrivals = perShard[i].arrivals[:0]
		}
		// Every shard is at rest at the last window boundary, so this view —
		// and every routing decision of the window — depends only on where
		// the boundaries fall in the stream.
		c.fillStates()
		views++
		for ok && len(arrs) < batchSize {
			idx, err := c.route(next)
			if err != nil {
				return nil, err
			}
			arrs = append(arrs, next)
			releases = append(releases, next.Release)
			perShard[idx].arrivals = append(perShard[idx].arrivals, int32(len(arrs)-1))
			c.dispatched[idx]++
			c.routed++
			// The coordinator's own dispatches are the one part of the view
			// it can keep current for free: counting them spreads a window
			// across shards instead of dogpiling the boundary minimum.
			c.states[idx].Backlog++
			c.states[idx].Dispatched = c.dispatched[idx]
			c.observeDispatch(idx, next.Release)
			next, ok, err = c.pull()
			if err != nil {
				return nil, err
			}
		}
		horizon = releases[len(releases)-1]
		if err := c.runWindow(work, releases); err != nil {
			return nil, err
		}
	}

	for _, st := range c.steppers {
		st.CloseFeed()
	}
	// Drain every shard to its last event; drain rows carry window 0 over an
	// empty release table, i.e. plain (time, shard) order, which is exactly
	// the sequential drain's interleave.
	drain := func(s int) error {
		if _, err := c.steppers[s].StepUntil(math.Inf(1)); err != nil {
			return fmt.Errorf("cluster: shard %d: %w", s, err)
		}
		return nil
	}
	if err := c.runWindow(drain, nil); err != nil {
		return nil, err
	}
	res, err := c.finish()
	if err != nil {
		return nil, err
	}
	if stale {
		res.StaleViews = views
		res.StaleWindow = batchSize
	}
	return res, nil
}

// runWindow executes one window's shard work against the given release
// table: on the pool, or serially on the coordinator goroutine when the run
// has no pool (Workers < 2) — same work, same results, fewer hands. The
// shared-sink buffers are reset before and replayed into cfg.Sink after.
func (c *coordinator) runWindow(work func(int) error, releases []float64) error {
	for _, b := range c.bufs {
		b.reset(releases)
	}
	if c.pool != nil {
		if err := c.pool.run(work); err != nil {
			return err
		}
	} else {
		for s := 0; s < c.n; s++ {
			if err := work(s); err != nil {
				return err
			}
		}
	}
	if c.bufs != nil {
		flushBuffers(c.bufs, c.cfg.Sink, c.flushHead)
	}
	return nil
}

// finish completes the drained fleet: the final Step every shard needs to
// observe its closed feed, Finish validation, the closing probe
// observation, and the deterministic shard merge.
func (c *coordinator) finish() (*engine.LoadResult, error) {
	runs := make([]engine.ShardRun, c.n)
	for i, st := range c.steppers {
		// A shard that never received an arrival still needs its final Step
		// to observe the closed feed and finish.
		if !st.Done() {
			if _, err := st.Step(); err != nil {
				return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
			}
		}
		if err := st.Finish(); err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		runs[i] = engine.ShardRun{Shard: i, Result: c.results[i]}
	}
	if c.cfg.Probe != nil {
		// Closing observation: every shard's terminal counters at the
		// fleet's final virtual time, so samplers always capture the
		// drained endpoint whatever the dispatch thinning.
		final := 0.0
		c.fillStates()
		for i := range c.states {
			if c.results[i].Makespan > final {
				final = c.results[i].Makespan
			}
		}
		c.cfg.Probe.ObserveFleet(final, c.states)
	}
	res, err := engine.MergeShards(c.cfg.P, c.cfg.Policy.Name(), runs, c.aggs, c.sketches)
	if err != nil {
		return nil, err
	}
	return res, nil
}
