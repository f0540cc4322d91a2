package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	malleable "github.com/malleable-sched/malleable"
	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/obs"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/workload"
)

// loadtestSpec is the full parameterization of a sharded online load test.
// It is shared by `mwct loadtest` and the POST /v1/loadtest endpoint of
// `mwct serve`.
type loadtestSpec struct {
	// Policy is one of engine.PolicyNames.
	Policy string `json:"policy"`
	// Class is a workload instance-class name (see `mwct gen -class`).
	Class string `json:"class"`
	// Process is the arrival process: poisson or bursty.
	Process string `json:"process"`
	// Rate is the per-shard arrival rate (tasks per unit time).
	Rate float64 `json:"rate"`
	// Burst is the mean burst size of the bursty process.
	Burst float64 `json:"burst,omitempty"`
	// Tasks is the total number of tasks across all shards.
	Tasks int `json:"tasks"`
	// Shards is the number of concurrent engine instances.
	Shards int `json:"shards"`
	// P is the per-shard platform capacity.
	P float64 `json:"p"`
	// Seed is the base seed; per-shard seeds are derived from it (and it
	// seeds the router's RNG in cluster mode).
	Seed int64 `json:"seed"`
	// Tenants is a name:weight:share list, e.g. "gold:4:0.2,bronze:1:0.8".
	Tenants string `json:"tenants,omitempty"`
	// TenantSkew is a Zipf exponent reshaping the tenant shares: tenant i's
	// effective share is divided by (i+1)^skew, turning equal shares into a
	// skewed multi-tenant mix. 0 leaves the shares as configured.
	TenantSkew float64 `json:"tenantSkew,omitempty"`
	// Router switches the test into cluster mode: instead of every shard
	// drawing its own independent arrival stream, ONE global stream (Rate is
	// then the fleet-wide arrival rate) is dispatched across the shards by
	// the named router (round-robin, hash-tenant, least-backlog, po2) in a
	// single deterministic virtual timeline. Empty keeps the independent
	// per-shard streams. Cluster mode always runs the streaming path.
	Router string `json:"router,omitempty"`
	// Workers >= 2 advances the cluster's shards concurrently on that many
	// pool workers through each dispatch window. Workers only parallelise
	// batched dispatch — a state-free router (round-robin, hash-tenant) or
	// a Stale run; every other cluster run stays on the sequential
	// coordinator. The report is byte-identical at any worker count — the
	// knob trades goroutines for wall-clock time only. Requires Router.
	Workers int `json:"workers,omitempty"`
	// Stale runs the cluster coordinator in stale-batched mode: the router
	// reads fleet views published once per dispatch window instead of exact
	// per-dispatch snapshots, removing the per-dispatch barrier entirely.
	// The report is deterministic and byte-identical at any Workers count,
	// but it is a different (window-stale) schedule than exact routing.
	// Requires Router with the window-stale capability (least-backlog, po2);
	// the view cadence lands in the stderr perf footer.
	Stale bool `json:"stale,omitempty"`
	// Prefetch overlaps arrival generation (or trace decode) with cluster
	// execution on a producer goroutine. Pure pipelining — the report is
	// byte-identical with and without it. Requires Router.
	Prefetch bool `json:"prefetch,omitempty"`
	// Speedup is the speedup-model spec (linear, powerlaw[:alpha],
	// amdahl[:sigma], platform:cap@t,...); empty means the paper's linear
	// model.
	Speedup string `json:"speedup,omitempty"`
	// CurveMin and CurveMax draw per-task speedup-curve parameters; both zero
	// disables them.
	CurveMin float64 `json:"curveMin,omitempty"`
	CurveMax float64 `json:"curveMax,omitempty"`
	// Stream runs the test through the streaming path: arrivals are pulled
	// lazily from the generator and per-task metrics are summarized in
	// constant-memory sinks, so memory stays O(alive tasks) regardless of
	// Tasks — this is what makes `-n 10000000` feasible. Flow quantiles come
	// from the mergeable sketch instead of retained samples.
	Stream bool `json:"stream,omitempty"`
}

// parse resolves and validates every named component of the spec.
func (spec loadtestSpec) parse() (engine.Policy, workload.ArrivalConfig, []workload.TenantSpec, speedup.Model, error) {
	fail := func(err error) (engine.Policy, workload.ArrivalConfig, []workload.TenantSpec, speedup.Model, error) {
		return nil, workload.ArrivalConfig{}, nil, nil, err
	}
	policy, err := engine.PolicyByName(spec.Policy)
	if err != nil {
		return fail(err)
	}
	class, err := workload.ParseClass(spec.Class)
	if err != nil {
		return fail(err)
	}
	process, err := workload.ParseProcess(spec.Process)
	if err != nil {
		return fail(err)
	}
	tenants, err := workload.ParseTenants(spec.Tenants)
	if err != nil {
		return fail(err)
	}
	model, err := speedup.ParseModel(spec.Speedup)
	if err != nil {
		return fail(err)
	}
	if err := speedup.ValidateCurves(model, spec.CurveMin, spec.CurveMax); err != nil {
		return fail(err)
	}
	cfg := workload.ArrivalConfig{
		Class:      class,
		P:          spec.P,
		Process:    process,
		Rate:       spec.Rate,
		MeanBurst:  spec.Burst,
		Tenants:    tenants,
		CurveMin:   spec.CurveMin,
		CurveMax:   spec.CurveMax,
		TenantSkew: spec.TenantSkew,
	}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	return policy, cfg, tenants, model, nil
}

// loadtestObservers carries the optional observability attachments of a
// load test — the hooks `-timeline` uses to watch the run without touching
// the deterministic report. All fields are optional; the zero value
// observes nothing.
type loadtestObservers struct {
	// probe observes the single-shard streaming run at its rest state,
	// thinned to probeInterval on the virtual-time grid (0 = every event).
	probe         engine.Probe
	probeInterval float64
	// sink additionally observes every completed task (flow statistics).
	sink engine.MetricSink
	// fleetProbe observes cluster-mode dispatches.
	fleetProbe cluster.Probe
}

// observed reports whether any attachment is set.
func (o loadtestObservers) observed() bool {
	return o.probe != nil || o.sink != nil || o.fleetProbe != nil
}

// runLoadtestSpec generates the per-shard arrival streams, runs the sharded
// engine and returns the merged result plus the parsed tenant mix (so the
// report prints the same tenants the workload actually ran with).
func runLoadtestSpec(spec loadtestSpec) (*engine.LoadResult, []workload.TenantSpec, error) {
	return runLoadtestSpecWrapped(spec, nil, loadtestObservers{})
}

// runLoadtestSpecWrapped is runLoadtestSpec with an optional per-shard
// stream wrapper (streaming mode only) — the hook `-trace-out` uses to tee
// the generated arrivals into a trace file — plus optional observers.
// Observers require a single observable timeline: cluster mode (any shard
// count; the coordinator is sequential) or a one-shard streaming run.
func runLoadtestSpecWrapped(spec loadtestSpec, wrap func(shard int, s engine.ArrivalStream) engine.ArrivalStream, obsv loadtestObservers) (*engine.LoadResult, []workload.TenantSpec, error) {
	if spec.Tasks <= 0 {
		return nil, nil, fmt.Errorf("loadtest: need a positive task count, got %d", spec.Tasks)
	}
	if spec.Shards <= 0 {
		return nil, nil, fmt.Errorf("loadtest: need a positive shard count, got %d", spec.Shards)
	}
	if spec.Router == "" && spec.Tasks < spec.Shards {
		// Only the independent-streams path splits the task budget per
		// shard; a routed cluster dispatches one global stream and is fine
		// with fewer tasks than shards (unused shards simply drain empty).
		return nil, nil, fmt.Errorf("loadtest: need at least one task per shard, got %d tasks over %d shards", spec.Tasks, spec.Shards)
	}
	if err := spec.checkClusterFlags(); err != nil {
		return nil, nil, err
	}
	policy, cfg, tenants, model, err := spec.parse()
	if err != nil {
		return nil, nil, err
	}
	// Spread the task budget over the shards; the first Tasks%Shards shards
	// absorb the remainder.
	perShard := func(shard int) int {
		n := spec.Tasks / spec.Shards
		if shard < spec.Tasks%spec.Shards {
			n++
		}
		return n
	}
	// stream draws n generated arrivals from seed, through the wrap hook.
	stream := func(shard, n int, seed int64) (engine.ArrivalStream, error) {
		s, err := workload.NewStream(cfg, n, seed)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			return wrap(shard, s), nil
		}
		return s, nil
	}
	if spec.Router == "" && !spec.Stream && !obsv.observed() {
		// Exact per-shard retention, the one topology RunSpec has no form
		// for: every shard materializes its workload and keeps its rows.
		source := func(shard int, seed int64) ([]engine.Arrival, error) {
			return workload.GenerateArrivals(cfg, perShard(shard), seed)
		}
		res, err := engine.RunShardsWithOptions(spec.P, policy, source, spec.Shards, spec.Seed, engine.Options{Model: model})
		return res, tenants, err
	}
	var global engine.ArrivalStream
	var source func(shard int, seed int64) (engine.ArrivalStream, error)
	switch {
	case spec.Router != "":
		// Cluster mode: one global stream, dispatched across the fleet by
		// the router. The wrap hook (trace recording) applies to that stream.
		global, err = stream(0, spec.Tasks, spec.Seed)
	case obsv.observed():
		// Observed single engine: the seed a one-shard independent-streams
		// run would draw with, plus the probe and the extra sink. Multi-shard
		// independent streams have no single observable timeline, so the
		// flag layer rejects them before here.
		if !spec.Stream || spec.Shards != 1 {
			return nil, nil, fmt.Errorf("loadtest: observers need -stream with one shard, or a -router cluster")
		}
		spec.Seed = engine.ShardSeed(spec.Seed, 0)
		global, err = stream(0, spec.Tasks, spec.Seed)
	default:
		source = func(shard int, seed int64) (engine.ArrivalStream, error) {
			return stream(shard, perShard(shard), seed)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	res, err := spec.runOnline(policy, model, global, source, obsv)
	return res, tenants, err
}

// checkClusterFlags rejects the cluster coordinator's knobs on a run
// without a router, which has no coordinator to apply them to. A generated
// run and a trace replay check the same flags with the same messages.
func (spec loadtestSpec) checkClusterFlags() error {
	if spec.Router != "" {
		return nil
	}
	switch {
	case spec.Workers != 0:
		return fmt.Errorf("loadtest: -workers parallelizes the cluster coordinator and needs -router")
	case spec.Stale:
		return fmt.Errorf("loadtest: -stale stales the cluster router's fleet view and needs -router (least-backlog or po2)")
	case spec.Prefetch:
		return fmt.Errorf("loadtest: -prefetch pipelines the cluster coordinator's arrival stream and needs -router")
	}
	return nil
}

// runOnline makes the topology decision of every streamed load test and
// runs it through malleable.Run: with a router the global stream is
// dispatched across the fleet, a source runs independent shards, and
// otherwise the global stream drives one engine, the only topology the
// engine probe observes.
func (spec loadtestSpec) runOnline(policy engine.Policy, model speedup.Model, global engine.ArrivalStream,
	source func(shard int, seed int64) (engine.ArrivalStream, error), obsv loadtestObservers) (*engine.LoadResult, error) {
	run := malleable.RunSpec{P: spec.P, Policy: policy, Stream: global, Source: source, Seed: spec.Seed, Model: model,
		Workers: spec.Workers, StaleRouting: spec.Stale, Prefetch: spec.Prefetch, Sink: obsv.sink}
	switch {
	case spec.Router != "":
		router, err := cluster.RouterByName(spec.Router, spec.Seed)
		if err != nil {
			return nil, err
		}
		run.Router, run.Shards, run.FleetProbe = router, spec.Shards, obsv.fleetProbe
	case source != nil:
		run.Shards = spec.Shards
	default:
		run.Probe, run.ProbeInterval = obsv.probe, obsv.probeInterval
	}
	return malleable.Run(run)
}

// loadtestReport runs the spec and renders the deterministic text report:
// the same spec always produces byte-identical output.
func loadtestReport(w io.Writer, spec loadtestSpec) error {
	res, tenants, err := runLoadtestSpec(spec)
	if err != nil {
		return err
	}
	renderLoadResult(w, spec, res, tenants)
	return nil
}

// renderLoadResult prints the merged result. Everything it reads is computed
// in shard order, so the report is byte-deterministic for a given spec.
func renderLoadResult(w io.Writer, spec loadtestSpec, res *engine.LoadResult, tenants []workload.TenantSpec) {
	model := spec.Speedup
	if model == "" {
		model = "linear"
	}
	stream := spec.Stream
	routed := ""
	if spec.Router != "" {
		// Cluster mode streams by construction and names its router. The
		// worker count is part of the header on request only: the body below
		// it is byte-identical at every worker count, which is the contract.
		stream = true
		routed = fmt.Sprintf(" router=%s", spec.Router)
		if spec.Workers > 0 {
			routed += fmt.Sprintf(" workers=%d", spec.Workers)
		}
		if spec.Stale {
			// Stale routing IS part of the deterministic schedule (unlike
			// -workers), so it belongs in the header unconditionally.
			routed += " stale=true"
		}
	}
	if spec.TenantSkew > 0 {
		routed += fmt.Sprintf(" tenant-skew=%g", spec.TenantSkew)
	}
	fmt.Fprintf(w, "loadtest: policy=%s class=%s process=%s rate=%g tasks=%d shards=%d p=%g seed=%d speedup=%s stream=%v%s\n",
		res.Policy, spec.Class, spec.Process, spec.Rate, spec.Tasks, spec.Shards, spec.P, spec.Seed, model, stream, routed)
	renderLoadBody(w, res, tenants)
}

// renderLoadBody prints the report body shared by the generated-workload and
// fleet-replay reports: per-shard lines, aggregate, imbalance, flow summary
// and per-tenant rows. A nil tenants list falls back to tenant-N names.
func renderLoadBody(w io.Writer, res *engine.LoadResult, tenants []workload.TenantSpec) {
	for _, run := range res.Shards {
		r := run.Result
		fmt.Fprintf(w, "shard %d: tasks=%d events=%d max-alive=%d makespan=%.6g weighted-flow=%.6g mean-flow=%.6g throughput=%.6g\n",
			run.Shard, r.Completed, r.Events, r.MaxAlive, r.Makespan, r.WeightedFlow, r.MeanFlow(), r.Throughput())
	}
	fmt.Fprintf(w, "aggregate: tasks=%d events=%d makespan=%.6g weighted-flow=%.6g throughput=%.6g\n",
		res.TotalTasks, res.Events, res.Makespan, res.WeightedFlow, res.Throughput)
	fmt.Fprintf(w, "imbalance: completed-min=%d completed-max=%d peak-backlog=%d\n",
		res.MinShardCompleted, res.MaxShardCompleted, res.PeakBacklog)
	if res.FlowApprox {
		fmt.Fprintf(w, "flow: %s (quantiles from sketch)\n", res.Flow)
	} else {
		fmt.Fprintf(w, "flow: %s\n", res.Flow)
	}
	renderTenants(w, res.PerTenant, tenants)
}

// renderTenants prints one row per tenant. A nil tenants list falls back to
// tenant-N names.
func renderTenants(w io.Writer, perTenant []engine.TenantMetrics, tenants []workload.TenantSpec) {
	for _, tm := range perTenant {
		name := fmt.Sprintf("tenant-%d", tm.Tenant)
		if tm.Tenant < len(tenants) {
			name = tenants[tm.Tenant].Name
		}
		fmt.Fprintf(w, "tenant %s: tasks=%d mean-flow=%.6g std-flow=%.3g max-flow=%.6g weighted-flow=%.6g\n",
			name, tm.Tasks, tm.MeanFlow, tm.StdFlow, tm.MaxFlow, tm.WeightedFlow)
	}
}

// traceReplayReport replays a recorded JSONL trace, returning the number of
// replayed tasks. Policy, capacity and speedup model come from the spec; the
// workload fields are ignored (the trace is the workload). With one shard
// and no router the trace drives a single streaming engine; with more
// shards (or an explicit -router) the one recorded stream is dispatched
// across the fleet by the cluster coordinator — the same trace replays at
// any shard count, with the router deciding placement. The coordinator's
// knobs (-workers, -stale, -prefetch) apply as in a generated run, and need
// a router as they do there.
func traceReplayReport(w io.Writer, spec loadtestSpec, trace io.Reader) (int, error) {
	policy, err := engine.PolicyByName(spec.Policy)
	if err != nil {
		return 0, err
	}
	model, err := speedup.ParseModel(spec.Speedup)
	if err != nil {
		return 0, err
	}
	modelName := spec.Speedup
	if modelName == "" {
		modelName = "linear"
	}
	if spec.Shards > 1 || spec.Router != "" {
		if spec.Shards <= 0 {
			return 0, fmt.Errorf("loadtest: need a positive shard count, got %d", spec.Shards)
		}
		if spec.Router == "" {
			spec.Router = "round-robin"
		}
	}
	if err := spec.checkClusterFlags(); err != nil {
		return 0, err
	}
	res, err := spec.runOnline(policy, model, workload.NewTraceReader(trace), nil, loadtestObservers{})
	if err != nil {
		return 0, err
	}
	if spec.Router != "" {
		// As in a generated run's header, stale routing is named because it
		// changes the schedule; -workers and -prefetch change no byte below.
		stale := ""
		if spec.Stale {
			stale = " stale=true"
		}
		fmt.Fprintf(w, "loadtest: policy=%s trace-replay tasks=%d shards=%d p=%g seed=%d speedup=%s stream=true router=%s%s\n",
			res.Policy, res.TotalTasks, spec.Shards, spec.P, spec.Seed, modelName, spec.Router, stale)
		renderLoadBody(w, res, nil)
		return res.TotalTasks, nil
	}
	r := res.Shards[0].Result
	fmt.Fprintf(w, "loadtest: policy=%s trace-replay tasks=%d p=%g speedup=%s stream=true\n",
		res.Policy, r.Completed, spec.P, modelName)
	fmt.Fprintf(w, "aggregate: tasks=%d events=%d max-alive=%d makespan=%.6g weighted-flow=%.6g mean-flow=%.6g throughput=%.6g\n",
		r.Completed, r.Events, r.MaxAlive, r.Makespan, r.WeightedFlow, r.MeanFlow(), r.Throughput())
	fmt.Fprintf(w, "flow: %s (quantiles from sketch)\n", res.Flow)
	renderTenants(w, res.PerTenant, nil)
	return r.Completed, nil
}

// teeStream forwards a stream while recording every arrival to a trace
// writer.
type teeStream struct {
	inner engine.ArrivalStream
	tw    *workload.TraceWriter
}

func (t *teeStream) Next() (engine.Arrival, bool, error) {
	a, ok, err := t.inner.Next()
	if err != nil || !ok {
		return a, ok, err
	}
	if err := t.tw.Write(a); err != nil {
		return engine.Arrival{}, false, fmt.Errorf("recording trace: %w", err)
	}
	return a, true, nil
}

// memReport instruments one load-test run: wall time, tasks/sec of wall
// clock, allocation counters per task, the live-heap delta, the peak heap
// sampled during the run (at the given sampling interval; <= 0 disables
// mid-run sampling), and the GC cycles the run itself triggered. run
// returns the number of tasks it pushed through. memReport prints to its
// own writer (stderr in production) so the deterministic report on stdout
// stays byte-stable.
func memReport(perfW io.Writer, heapSample time.Duration, run func() (int, error)) error {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler(heapSample)
	start := time.Now()
	tasks, err := run()
	elapsed := time.Since(start)
	peak := sampler.stop()
	if err != nil {
		return err
	}
	if tasks <= 0 {
		tasks = 1
	}
	// GC cycles are read before the explicit collection below, so the count
	// reflects what the run's own allocation pressure triggered.
	var atEnd runtime.MemStats
	runtime.ReadMemStats(&atEnd)
	gcCycles := atEnd.NumGC - before.NumGC
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if peak < after.HeapAlloc {
		peak = after.HeapAlloc
	}
	perTask := func(v uint64) float64 { return float64(v) / float64(tasks) }
	fmt.Fprintf(perfW, "perf: wall=%.3gs tasks/sec=%.4g allocs/task=%.4g bytes/task=%.4g peak-heap=%.1fMiB live-heap-delta=%+.2fMiB gc-cycles=%d\n",
		elapsed.Seconds(),
		float64(tasks)/elapsed.Seconds(),
		perTask(after.Mallocs-before.Mallocs),
		perTask(after.TotalAlloc-before.TotalAlloc),
		float64(peak)/(1<<20),
		(float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20),
		gcCycles)
	return nil
}

// heapSampler polls runtime.MemStats.HeapAlloc while a run is in flight so
// the report can show the peak heap, the number the O(alive tasks) claim is
// about. A non-positive interval disables mid-run sampling (the reported
// peak then falls back to the end-of-run live heap).
type heapSampler struct {
	stopCh chan struct{}
	doneCh chan struct{}
	peak   uint64
}

func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	if interval <= 0 {
		close(h.doneCh)
		return h
	}
	go func() {
		defer close(h.doneCh)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-h.stopCh:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > h.peak {
					h.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	<-h.doneCh
	return h.peak
}

// runLoadtest implements `mwct loadtest`. The workload/topology flags are
// the shared specFlags set (the same defaults back POST /v1/loadtest); only
// the observation and I/O flags below are loadtest-specific.
func runLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	buildSpec := specFlags(fs, defaultLoadtestSpec())
	traceOut := fs.String("trace-out", "", "record the generated arrival stream to this JSONL file (requires -stream and -shards 1, or -router, whose global stream is the one recorded)")
	traceIn := fs.String("trace-in", "", "replay a recorded JSONL arrival trace instead of generating a workload (implies -stream; with -shards > 1 or -router the one trace is dispatched across the fleet by the cluster coordinator)")
	timelineOut := fs.String("timeline", "", "record a JSONL run timeline (backlog, throughput, p99 flow over virtual time) to this file (requires -stream and -shards 1, or -router)")
	timelineInterval := fs.Float64("timeline-interval", 1, "virtual-time spacing of timeline samples; 0 samples every observation")
	heapSample := fs.Duration("heap-sample", 10*time.Millisecond, "sampling interval of the peak-heap figure in the perf footer; 0 disables mid-run sampling")
	mem := fs.Bool("mem", true, "print wall-clock throughput and memory statistics to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := buildSpec()
	perfW := io.Discard
	if *mem {
		perfW = os.Stderr
	}

	if *traceIn != "" {
		if *traceOut != "" {
			return fmt.Errorf("loadtest: -trace-in and -trace-out are mutually exclusive")
		}
		if *timelineOut != "" {
			return fmt.Errorf("loadtest: -timeline is not supported with -trace-in")
		}
		// A bare -trace-in keeps its historical meaning — one trace, one
		// streaming engine — even though the -shards flag defaults to 4.
		// Only an explicit -shards or -router opts the replay into the
		// cluster coordinator.
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["shards"] && !explicit["router"] {
			spec.Shards = 1
		}
		f, err := os.Open(*traceIn)
		if err != nil {
			return err
		}
		defer f.Close()
		return memReport(perfW, *heapSample, func() (int, error) {
			return traceReplayReport(os.Stdout, spec, f)
		})
	}

	var wrap func(shard int, s engine.ArrivalStream) engine.ArrivalStream
	var traceFile *os.File
	var tee *teeStream
	if *traceOut != "" {
		if spec.Router == "" {
			if !spec.Stream {
				return fmt.Errorf("loadtest: -trace-out records the streamed arrivals; add -stream (or -router)")
			}
			if spec.Shards != 1 {
				return fmt.Errorf("loadtest: -trace-out records one stream; use -shards 1 or a -router cluster (whose global stream is recorded)")
			}
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		wrap = func(shard int, s engine.ArrivalStream) engine.ArrivalStream {
			tee = &teeStream{inner: s, tw: workload.NewTraceWriter(f)}
			return tee
		}
	}

	var obsv loadtestObservers
	var timeline *obs.Timeline
	var timelineFile *os.File
	var timelineBuf *bufio.Writer
	if *timelineOut != "" {
		if spec.Router == "" {
			if !spec.Stream {
				return fmt.Errorf("loadtest: -timeline records the streamed run; add -stream (or -router)")
			}
			if spec.Shards != 1 {
				return fmt.Errorf("loadtest: -timeline records one timeline; use -shards 1 or a -router cluster")
			}
		}
		if *timelineInterval < 0 {
			return fmt.Errorf("loadtest: -timeline-interval must be >= 0, got %g", *timelineInterval)
		}
		f, err := os.Create(*timelineOut)
		if err != nil {
			return err
		}
		timelineFile = f
		timelineBuf = bufio.NewWriter(f)
		timeline = obs.NewTimeline(timelineBuf, *timelineInterval)
		obsv = loadtestObservers{
			probe:         timeline,
			probeInterval: *timelineInterval,
			sink:          timeline,
			fleetProbe:    timeline,
		}
	}

	staleViews, staleWindow, staleTasks := 0, 0, 0
	err := memReport(perfW, *heapSample, func() (int, error) {
		res, tenantSpecs, err := runLoadtestSpecWrapped(spec, wrap, obsv)
		if err != nil {
			return 0, err
		}
		renderLoadResult(os.Stdout, spec, res, tenantSpecs)
		staleViews, staleWindow, staleTasks = res.StaleViews, res.StaleWindow, res.TotalTasks
		return res.TotalTasks, nil
	})
	if err == nil && spec.Stale {
		// The stale footer goes to stderr with the perf line: the view
		// cadence is a perf figure (how much dispatch the fleet amortized
		// per published view), not part of the deterministic report.
		perView := 0.0
		if staleViews > 0 {
			perView = float64(staleTasks) / float64(staleViews)
		}
		fmt.Fprintf(perfW, "stale: views=%d window=%d dispatches-per-view=%.1f\n",
			staleViews, staleWindow, perView)
	}
	if traceFile != nil {
		if err == nil && tee != nil {
			err = tee.tw.Flush()
		}
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
	}
	if timelineFile != nil {
		if err == nil {
			err = timeline.Close()
		}
		if err == nil {
			err = timelineBuf.Flush()
		}
		if cerr := timelineFile.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(perfW, "timeline: %d samples -> %s\n", timeline.Records(), *timelineOut)
		}
	}
	return err
}
