// Package perf is the library's standing benchmark and regression harness: a
// pinned set of named scenarios (static WDEQ batch, online Poisson, bursty
// multi-tenant, sharded fleet, concave per-task speedups, time-varying
// platform capacity) executed for a fixed wall budget, reported as
// ns/op, allocs/op, tasks/sec and flow-time quantiles, and serialized under a
// stable JSON schema so two runs — today's and a checked-in baseline — can be
// diffed mechanically by CompareRuns. `mwct bench` is the command-line front
// end; CI runs it on every push and fails the build on large regressions, so
// the performance trajectory of the engine is a tracked artifact rather than
// a one-off number.
package perf

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/obs"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/stats"
	"github.com/malleable-sched/malleable/internal/workload"
)

// ProcessStatic is the pseudo arrival process of batch scenarios: the
// workload is drawn like a Poisson stream and every release date is then
// forced to zero, turning the run into the paper's static setting.
const ProcessStatic = "static"

// Scenario is one named benchmark configuration. All fields are pure data so
// a scenario can round-trip through the JSON report and reproduce the exact
// run.
type Scenario struct {
	// Name identifies the scenario in reports and on the command line.
	Name string `json:"name"`
	// Policy is one of engine.PolicyNames.
	Policy string `json:"policy"`
	// Class is the instance class of the task shapes (see `mwct gen`).
	Class string `json:"class"`
	// Process is "poisson", "bursty", or ProcessStatic.
	Process string `json:"process"`
	// Rate is the arrival rate (tasks per unit of virtual time).
	Rate float64 `json:"rate"`
	// Burst is the mean burst size of the bursty process.
	Burst float64 `json:"burst,omitempty"`
	// Tenants is a name:weight:share list; empty means a single tenant.
	Tenants string `json:"tenants,omitempty"`
	// TenantSkew is the Zipf exponent reshaping the tenant shares (see
	// workload.ArrivalConfig.TenantSkew); 0 keeps them as configured.
	TenantSkew float64 `json:"tenantSkew,omitempty"`
	// Router switches the scenario to cluster mode: ONE global arrival
	// stream (Rate is fleet-wide) dispatched across Shards engine steppers
	// by the named router on a single virtual timeline. Cluster scenarios
	// pin the coordinator's sequential interleave — the routed fleet's
	// throughput ceiling — rather than the concurrent independent-shards
	// driver.
	Router string `json:"router,omitempty"`
	// Workers sets cluster.Config.Workers: 0 or 1 pins the sequential
	// coordinator, >= 2 the parallel one (same bytes out, different wall
	// clock). Only meaningful with a Router.
	Workers int `json:"workers,omitempty"`
	// Speculate sets cluster.Config.Speculate: the optimistic coordinator
	// that checkpoints shards past dispatch horizons and rolls back
	// mispredictions instead of barriering per dispatch. Same bytes out as
	// the sequential coordinator. Only meaningful with a Router and
	// Workers >= 2.
	Speculate bool `json:"speculate,omitempty"`
	// Stale sets cluster.Config.StaleRouting: the stale-batched coordinator,
	// whose router reads fleet views published once per dispatch window. A
	// different (deterministic) schedule than the exact-view coordinators,
	// byte-identical at any Workers. Only meaningful with a window-stale
	// Router (least-backlog, po2).
	Stale bool `json:"stale,omitempty"`
	// Prefetch sets cluster.Config.Prefetch: arrival generation overlaps
	// shard execution on a producer goroutine. Pure pipelining, same bytes
	// out. Only meaningful with a Router.
	Prefetch bool `json:"prefetch,omitempty"`
	// Tasks is the number of tasks per run (total across shards).
	Tasks int `json:"tasks"`
	// Shards is the number of concurrent engines; 1 runs a single engine on
	// the calling goroutine.
	Shards int `json:"shards"`
	// P is the per-shard platform capacity.
	P float64 `json:"p"`
	// Seed makes the workload deterministic.
	Seed int64 `json:"seed"`
	// Speedup is the speedup-model spec (see speedup.ParseModel); empty means
	// the paper's linear-cap model.
	Speedup string `json:"speedup,omitempty"`
	// CurveMin and CurveMax draw per-task speedup-curve parameters (see
	// workload.ArrivalConfig); both zero disables per-task curves.
	CurveMin float64 `json:"curveMin,omitempty"`
	CurveMax float64 `json:"curveMax,omitempty"`
	// Stream runs the scenario through the streaming path: arrivals are
	// pulled from a constant-memory workload.Stream inside the timed region
	// (generation is part of the cost being pinned) and per-task metrics go
	// to aggregate+sketch sinks instead of a retained table, so the
	// scenario's memory is O(alive tasks) however large Tasks is. Flow
	// quantiles come from the sketch. Static scenarios cannot stream.
	Stream bool `json:"stream,omitempty"`
	// Probe attaches an obs.EngineCollector as an engine probe, so the run
	// pays the observation cost — snapshot fill plus atomic metric mirroring
	// — at every fire. Only single-engine scenarios (Shards == 1, no Router)
	// can probe; the point is to pin the probe's overhead against the
	// identically-shaped unprobed scenario.
	Probe bool `json:"probe,omitempty"`
	// ProbeEvery thins the probe to every k-th policy event (engine
	// Options.ProbeEveryEvents); 0 fires on every event. Mirroring a dozen
	// atomics per event costs ~40% throughput at this event rate, so the
	// pinned scenario samples the way a live scrape target would.
	ProbeEvery int `json:"probeEvery,omitempty"`
}

// Scenarios returns the pinned scenario set CI benchmarks on every push. The
// set is append-only by convention: renaming or removing a scenario silently
// invalidates every stored baseline, so new shapes get new names.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "static-wdeq", Policy: "wdeq", Class: "uniform",
			Process: ProcessStatic, Rate: 8, Tasks: 2048, Shards: 1, P: 8, Seed: 401,
		},
		{
			Name: "online-poisson", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 8, Tasks: 4096, Shards: 1, P: 8, Seed: 402,
		},
		{
			Name: "bursty-multitenant", Policy: "wdeq", Class: "uniform",
			Process: "bursty", Rate: 8, Burst: 8,
			Tenants: "gold:4:0.2,silver:2:0.3,bronze:1:0.5",
			Tasks:   4096, Shards: 1, P: 8, Seed: 403,
		},
		{
			Name: "sharded", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 8, Tasks: 4096, Shards: 4, P: 8, Seed: 404,
		},
		{
			// Concave per-task speedups: the same Poisson load under a
			// power-law model with per-task exponents. Pins the cost of the
			// model-threaded advance step (rates are math.Pow, not a copy).
			Name: "concave-speedup", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 6, Tasks: 4096, Shards: 1, P: 8, Seed: 405,
			Speedup: "powerlaw:0.75", CurveMin: 0.6, CurveMax: 0.95,
		},
		{
			// Time-varying platform capacity: the fleet loses half its
			// processors on a square wave. Pins the budget-event machinery of
			// the kernel (capacity steps are events, visited once each).
			Name: "time-varying-capacity", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 6, Tasks: 4096, Shards: 1, P: 8, Seed: 406,
			Speedup: "platform:8@0,4@100,8@200,4@300,8@400,4@500,8@600",
		},
		{
			// The streaming path end to end: lazy generation + engine +
			// aggregate/sketch sinks, no retained rows. Same load as
			// online-poisson so the cost of streaming (generation inside the
			// timed region, sink observes) stays directly comparable.
			Name: "online-stream", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 8, Tasks: 4096, Shards: 1, P: 8, Seed: 407,
			Stream: true,
		},
		{
			// online-poisson with an observability probe attached: an
			// obs.EngineCollector mirrors the rest-state snapshot into atomic
			// registry metrics every 64th policy event — a live scrape
			// target's cadence. Same load and seed as online-poisson, so the
			// pinned gap between the two scenarios IS the probe overhead —
			// and allocs/op stays zero, proving observation never touches the
			// allocator.
			Name: "online-probe", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 8, Tasks: 4096, Shards: 1, P: 8, Seed: 402,
			Probe: true, ProbeEvery: 64,
		},
		{
			// The routed fleet, power-of-two-choices: one Zipf-skewed global
			// stream dispatched across four steppers on a single virtual
			// timeline. Pins the coordinator's sequential interleave — the
			// per-arrival advance-route-feed cycle plus two sampled
			// snapshots per dispatch.
			Name: "cluster-po2", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 57.6,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      8192, Shards: 4, P: 8, Seed: 409,
			Router: "po2",
		},
		{
			// Same fleet and load under the full-information least-backlog
			// router: every dispatch scans all shard snapshots, the O(shards)
			// upper envelope of routing cost.
			Name: "cluster-least-backlog", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 57.6,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      8192, Shards: 4, P: 8, Seed: 410,
			Router: "least-backlog",
		},
		{
			// The eight-shard sequential baseline the parallel scenarios are
			// measured against: same skewed fleet load at double the rate so
			// eight shards see the per-shard pressure the four-shard scenarios
			// pin. Throughput here is the single-goroutine interleave ceiling.
			Name: "cluster-least-backlog-8", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 115.2,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      16384, Shards: 8, P: 8, Seed: 411,
			Router: "least-backlog",
		},
		{
			// The batched parallel coordinator: round-robin declares itself
			// state-free, so dispatches proceed in 512-arrival batches with one
			// barrier each — the near-linear-scaling mode. On a >= 8-core box
			// this scenario must beat cluster-least-backlog-8 by >= 3x tasks/sec
			// (asserted by TestParallelScalingRatio in CI's multicore job).
			Name: "cluster-parallel-rr", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 115.2,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      16384, Shards: 8, P: 8, Seed: 411,
			Router: "round-robin", Workers: 8,
		},
		{
			// The windowed parallel coordinator: least-backlog reads exact
			// fleet state per dispatch, so shards only advance concurrently
			// inside each dispatch window — the synchronization-bound mode.
			// Pinned so the window overhead has a tracked number.
			Name: "cluster-parallel-lb", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 115.2,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      16384, Shards: 8, P: 8, Seed: 411,
			Router: "least-backlog", Workers: 8,
		},
		{
			// The speculative coordinator on the same fleet and load as
			// cluster-parallel-lb: shards run past dispatch horizons on
			// checkpoints instead of barriering per dispatch, so the pinned gap
			// between the two scenarios IS the win of optimism over windowing
			// for state-reading routers (asserted >= 1x by
			// TestSpeculativeScalingRatio in CI's multicore job).
			Name: "cluster-spec-lb", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 115.2,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      16384, Shards: 8, P: 8, Seed: 411,
			Router: "least-backlog", Workers: 8, Speculate: true,
		},
		{
			// The scaled fleet dimension: 64 shards under the full-information
			// least-backlog router, speculative coordinator. Every dispatch
			// scans 64 shard states and the router's pick rolls one of them
			// back, so this pins both the O(shards) routing envelope and the
			// checkpoint machinery at fleet scale.
			Name: "cluster-spec-lb-64", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 921.6,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      32768, Shards: 64, P: 8, Seed: 412,
			Router: "least-backlog", Workers: 8, Speculate: true,
		},
		{
			// The 64-shard batched baseline: round-robin is state-free, so the
			// same fleet width runs the near-linear batched mode — the ceiling
			// the speculative 64-shard scenario is compared against.
			Name: "cluster-parallel-rr-64", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 921.6,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      32768, Shards: 64, P: 8, Seed: 412,
			Router: "round-robin", Workers: 8,
		},
		{
			// The stale-batched coordinator on the same fleet and load as
			// cluster-parallel-lb: least-backlog routes from window-boundary
			// views instead of exact per-dispatch snapshots, so dispatch runs
			// through the 512-arrival batched fast path with one barrier per
			// window, and the arrival stream is prefetched on a producer
			// goroutine. The pinned gap against cluster-parallel-lb IS the win
			// of window-stale routing over exact windowing (asserted >= 1x by
			// TestStaleBatchedScalingRatio in CI's multicore job).
			Name: "cluster-stale-lb", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 115.2,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      16384, Shards: 8, P: 8, Seed: 411,
			Router: "least-backlog", Workers: 8, Stale: true, Prefetch: true,
		},
		{
			// The scaled stale fleet: 64 shards on the cluster-spec-lb-64 load,
			// stale-batched instead of speculative. Each view is one O(shards)
			// state fill per 512 dispatches rather than one scan per dispatch,
			// so this pins how the view cadence amortizes the routing envelope
			// at fleet width.
			Name: "cluster-stale-lb-64", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 921.6,
			Tenants:    "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1",
			TenantSkew: 1.5,
			Tasks:      32768, Shards: 64, P: 8, Seed: 412,
			Router: "least-backlog", Workers: 8, Stale: true, Prefetch: true,
		},
		{
			// Deep-backlog online run: arrivals outpace the platform ~12x, so
			// the alive set climbs past 10k and stays above 4k for most of the
			// run. Per-event cost here is all alive-set data structure — the
			// regime the O(log n) event core exists for. The large-delta class
			// (δ > P/2, unit weights) keeps every event on the certified
			// equal-share path, so this pins the virtual-clock key-heap core
			// specifically; weight-greedy over the same stream (see
			// EXPERIMENTS.md) pins the indexed-heap fallback.
			Name: "online-hiback", Policy: "wdeq", Class: "large-delta",
			Process: "poisson", Rate: 200, Tasks: 16384, Shards: 1, P: 8, Seed: 413,
		},
		{
			// The same deep-backlog regime across a routed 4-shard fleet:
			// every shard sustains a >= 4k-task backlog while the sequential
			// least-backlog coordinator interleaves them, so the per-event win
			// has to survive the coordinator's snapshot/advance pattern too.
			Name: "cluster-hiback-lb", Policy: "wdeq", Class: "large-delta",
			Process: "poisson", Rate: 800, Tasks: 32768, Shards: 4, P: 8, Seed: 414,
			Router: "least-backlog",
		},
	}
}

// GuardedScenarios are pinned like Scenarios but excluded from the default
// set (and therefore from the CI gate): they exist to reproduce headline
// numbers on demand without making every `mwct bench` run minutes long.
// Resolve them by name: `mwct bench -scenarios streaming-10m`.
func GuardedScenarios() []Scenario {
	return []Scenario{
		{
			// The memory acceptance scenario of the streaming refactor: ten
			// million tasks through one engine in O(alive) memory. A single
			// run takes seconds, which is why it is guarded.
			Name: "streaming-10m", Policy: "wdeq", Class: "uniform",
			Process: "poisson", Rate: 12, Tasks: 10_000_000, Shards: 1, P: 8, Seed: 408,
			Stream: true,
		},
	}
}

// ScenarioNames lists the names of the pinned set, in run order.
func ScenarioNames() []string {
	all := Scenarios()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// ScenarioByName resolves a pinned scenario, including the guarded ones.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	for _, s := range GuardedScenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	names := ScenarioNames()
	for _, s := range GuardedScenarios() {
		names = append(names, s.Name+" (guarded)")
	}
	return Scenario{}, fmt.Errorf("perf: unknown scenario %q (want one of %v)", name, names)
}

// arrivalConfig translates the scenario into a workload configuration.
func (s Scenario) arrivalConfig() (workload.ArrivalConfig, error) {
	class, err := workload.ParseClass(s.Class)
	if err != nil {
		return workload.ArrivalConfig{}, err
	}
	processName := s.Process
	if processName == ProcessStatic {
		processName = "poisson"
	}
	process, err := workload.ParseProcess(processName)
	if err != nil {
		return workload.ArrivalConfig{}, err
	}
	tenants, err := workload.ParseTenants(s.Tenants)
	if err != nil {
		return workload.ArrivalConfig{}, err
	}
	return workload.ArrivalConfig{
		Class:      class,
		P:          s.P,
		Process:    process,
		Rate:       s.Rate,
		MeanBurst:  s.Burst,
		Tenants:    tenants,
		TenantSkew: s.TenantSkew,
		CurveMin:   s.CurveMin,
		CurveMax:   s.CurveMax,
	}, nil
}

// options resolves the scenario's engine options (speedup model) and checks
// the per-task curve range against the model's domain.
func (s Scenario) options() (engine.Options, error) {
	model, err := speedup.ParseModel(s.Speedup)
	if err != nil {
		return engine.Options{}, err
	}
	if err := speedup.ValidateCurves(model, s.CurveMin, s.CurveMax); err != nil {
		return engine.Options{}, err
	}
	return engine.Options{Model: model}, nil
}

// generate draws one shard's arrival stream.
func (s Scenario) generate(cfg workload.ArrivalConfig, n int, seed int64) ([]engine.Arrival, error) {
	arrivals, err := workload.GenerateArrivals(cfg, n, seed)
	if err != nil {
		return nil, err
	}
	if s.Process == ProcessStatic {
		for i := range arrivals {
			arrivals[i].Release = 0
		}
	}
	return arrivals, nil
}

// RunScenario executes the scenario repeatedly until the wall budget is
// exhausted (at least once) and reports averaged metrics. Workload generation
// happens before the clock starts; the timed region is exactly the engine
// work, so allocs/op of the single-shard scenarios reflects the
// zero-allocation steady state of the event loop.
func RunScenario(s Scenario, budget time.Duration) (Result, error) {
	if s.Tasks <= 0 {
		return Result{}, fmt.Errorf("perf: scenario %q: need a positive task count, got %d", s.Name, s.Tasks)
	}
	if s.Shards <= 0 {
		return Result{}, fmt.Errorf("perf: scenario %q: need a positive shard count, got %d", s.Name, s.Shards)
	}
	policy, err := engine.PolicyByName(s.Policy)
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	cfg, err := s.arrivalConfig()
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	opts, err := s.options()
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	if s.Probe {
		if s.Router != "" || s.Shards != 1 {
			return Result{}, fmt.Errorf("perf: scenario %q: probe scenarios pin the single-engine path; use shards=1 without a router", s.Name)
		}
		// The collector (and its registry) live outside the timed region, as
		// they would in a long-running server; the loop pays only for firing.
		opts.Probe = obs.NewEngineCollector(obs.NewRegistry())
		opts.ProbeEveryEvents = s.ProbeEvery
	}
	if s.Router != "" {
		if s.Process == ProcessStatic {
			return Result{}, fmt.Errorf("perf: scenario %q: static scenarios cannot run the cluster coordinator", s.Name)
		}
		return runClusterScenario(s, policy, cfg, opts, budget)
	}
	if s.Stream {
		if s.Process == ProcessStatic {
			return Result{}, fmt.Errorf("perf: scenario %q: static scenarios cannot stream (releases are rewritten after generation)", s.Name)
		}
		if s.Shards != 1 {
			return Result{}, fmt.Errorf("perf: scenario %q: streaming scenarios pin the single-engine path; use shards=1", s.Name)
		}
		return runStreamSingle(s, policy, cfg, opts, budget)
	}
	if s.Shards == 1 {
		return runSingle(s, policy, cfg, opts, budget)
	}
	return runSharded(s, policy, cfg, opts, budget)
}

// measurement is what timedLoop observes about the budget-bounded loop.
type measurement struct {
	runs        int
	elapsed     time.Duration
	allocsPerOp float64
	bytesPerOp  float64
}

// timedLoop is the shared measurement scaffolding of every scenario kind:
// force a GC so the Mallocs window is clean, then re-execute run until the
// wall budget is spent (at least once) and average the allocation counters
// over the runs. The caller warms and validates run before the clock starts.
func timedLoop(budget time.Duration, run func() error) (measurement, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var m measurement
	start := time.Now()
	for m.elapsed < budget || m.runs == 0 {
		if err := run(); err != nil {
			return measurement{}, err
		}
		m.runs++
		m.elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&ms1)
	m.allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(m.runs)
	m.bytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(m.runs)
	return m, nil
}

// runSingle benchmarks one engine on the calling goroutine with a reused
// Runner and Result — the zero-allocation path.
func runSingle(s Scenario, policy engine.Policy, cfg workload.ArrivalConfig, opts engine.Options, budget time.Duration) (Result, error) {
	arrivals, err := s.generate(cfg, s.Tasks, s.Seed)
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	runner := engine.NewRunner()
	res := &engine.Result{}
	run := func() error { return runner.RunInto(res, s.P, policy, arrivals, opts) }
	// Warm the scratch buffers (and validate the run) outside the clock.
	if err := run(); err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	events := res.Events
	m, err := timedLoop(budget, run)
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	return newResult(s, m, events, stats.Summarize(res.FlowTimes())), nil
}

// runStreamSingle benchmarks the streaming path of one engine: workload
// generation happens lazily inside the timed region (that is the shape being
// pinned — nothing is materialized), per-task metrics flow into reused
// aggregate and sketch sinks, and the reported quantiles come from the
// sketch. allocs/op therefore covers generator + engine + sinks together;
// all three are allocation-free in steady state.
func runStreamSingle(s Scenario, policy engine.Policy, cfg workload.ArrivalConfig, opts engine.Options, budget time.Duration) (Result, error) {
	runner := engine.NewRunner()
	agg := engine.NewAggregateSink()
	sk := engine.NewSketchSink(0)
	sink := engine.MultiSink(agg, sk)
	res := &engine.Result{}
	run := func() error {
		stream, err := workload.NewStream(cfg, s.Tasks, s.Seed)
		if err != nil {
			return err
		}
		agg.Reset()
		sk.Reset()
		return runner.RunStreamInto(res, s.P, policy, stream, sink, opts)
	}
	// Warm the scratch buffers and sink windows (and validate) off the clock.
	if err := run(); err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	events := res.Events
	m, err := timedLoop(budget, run)
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	return newResult(s, m, events, engine.FlowSummary(agg, sk)), nil
}

// runClusterScenario benchmarks the virtual-time cluster coordinator end to
// end: lazy global-stream generation, the per-arrival
// advance-route-feed cycle, and the deterministic merge. The timed region
// covers setup (runners, sinks, router) plus the run, which is how a
// capacity planner would invoke it; per-event work stays allocation-free,
// so allocs/op is a per-run setup constant the baseline pins.
func runClusterScenario(s Scenario, policy engine.Policy, cfg workload.ArrivalConfig, opts engine.Options, budget time.Duration) (Result, error) {
	var load *engine.LoadResult
	run := func() error {
		stream, err := workload.NewStream(cfg, s.Tasks, s.Seed)
		if err != nil {
			return err
		}
		router, err := cluster.RouterByName(s.Router, s.Seed)
		if err != nil {
			return err
		}
		load, err = cluster.Run(cluster.Config{
			Shards:       s.Shards,
			P:            s.P,
			Policy:       policy,
			Router:       router,
			Workers:      s.Workers,
			Speculate:    s.Speculate,
			StaleRouting: s.Stale,
			Prefetch:     s.Prefetch,
			Opts:         opts,
		}, stream)
		return err
	}
	// Warm/validate once outside the clock.
	if err := run(); err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	events := load.Events
	m, err := timedLoop(budget, run)
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	return newResult(s, m, events, load.Flow), nil
}

// runSharded benchmarks the concurrent multi-shard driver end to end,
// including stream generation and the deterministic merge — the figure a
// capacity planner cares about.
func runSharded(s Scenario, policy engine.Policy, cfg workload.ArrivalConfig, opts engine.Options, budget time.Duration) (Result, error) {
	perShard := func(shard int) int {
		n := s.Tasks / s.Shards
		if shard < s.Tasks%s.Shards {
			n++
		}
		return n
	}
	source := func(shard int, seed int64) ([]engine.Arrival, error) {
		return s.generate(cfg, perShard(shard), seed)
	}
	var load *engine.LoadResult
	run := func() error {
		var err error
		load, err = engine.RunShardsWithOptions(s.P, policy, source, s.Shards, s.Seed, opts)
		return err
	}
	// Warm/validate once outside the clock.
	if err := run(); err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	events := load.Events
	m, err := timedLoop(budget, run)
	if err != nil {
		return Result{}, fmt.Errorf("perf: scenario %q: %w", s.Name, err)
	}
	return newResult(s, m, events, load.Flow), nil
}

func newResult(s Scenario, m measurement, events int, flows stats.Summary) Result {
	wall := m.elapsed.Nanoseconds()
	r := Result{
		Scenario:    s.Name,
		Policy:      s.Policy,
		Runs:        m.runs,
		Tasks:       s.Tasks,
		Events:      events,
		WallNs:      wall,
		NsPerOp:     float64(wall) / float64(m.runs),
		AllocsPerOp: m.allocsPerOp,
		BytesPerOp:  m.bytesPerOp,
		FlowP50:     flows.P50,
		FlowP99:     flows.P99,
	}
	if wall > 0 {
		r.TasksPerSec = float64(s.Tasks*m.runs) / (float64(wall) / 1e9)
	}
	return r
}

// RunAll executes the named scenarios (nil or empty means the whole pinned
// set) with the given per-scenario wall budget and assembles the report.
func RunAll(names []string, budget time.Duration) (*Report, error) {
	return RunAllWithOverrides(names, budget, Overrides{Workers: -1})
}

// RunAllWithSpeedup is RunAll with an optional speedup-model override: a
// non-empty spec replaces every selected scenario's model. It exists for
// ad-hoc exploration (`mwct bench -speedup ...`); overridden runs keep the
// scenario names, so do not gate them against a default baseline.
func RunAllWithSpeedup(names []string, budget time.Duration, speedupOverride string) (*Report, error) {
	return RunAllWithOverrides(names, budget, Overrides{Speedup: speedupOverride, Workers: -1})
}

// Overrides adjusts every selected scenario before it runs — the ad-hoc
// exploration knobs behind `mwct bench -speedup` and `mwct bench -workers`.
// Overridden runs keep the pinned scenario names, so do not gate them
// against a default baseline.
type Overrides struct {
	// Speedup, when non-empty, replaces every scenario's speedup model.
	Speedup string
	// Workers, when >= 0, replaces the worker count of every cluster
	// scenario (those with a Router). Non-cluster scenarios have no
	// coordinator and are left alone. Negative means no override.
	Workers int
}

// RunAllWithOverrides is RunAll with the scenario overrides applied to every
// selected scenario before running.
func RunAllWithOverrides(names []string, budget time.Duration, o Overrides) (*Report, error) {
	var scenarios []Scenario
	if len(names) == 0 {
		scenarios = Scenarios()
	} else {
		for _, name := range names {
			s, err := ScenarioByName(name)
			if err != nil {
				return nil, err
			}
			scenarios = append(scenarios, s)
		}
	}
	if o.Speedup != "" {
		if _, err := speedup.ParseModel(o.Speedup); err != nil {
			return nil, err
		}
		for i := range scenarios {
			scenarios[i].Speedup = o.Speedup
		}
	}
	if o.Workers >= 0 {
		for i := range scenarios {
			if scenarios[i].Router != "" {
				scenarios[i].Workers = o.Workers
			}
		}
	}
	report := &Report{
		Schema:    SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		BudgetNs:  budget.Nanoseconds(),
	}
	for _, s := range scenarios {
		res, err := RunScenario(s, budget)
		if err != nil {
			return nil, err
		}
		report.Results = append(report.Results, res)
	}
	sort.Slice(report.Results, func(a, b int) bool {
		return report.Results[a].Scenario < report.Results[b].Scenario
	})
	return report, nil
}
