package malleable

import (
	"io"
	"math/rand"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/core"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/exact"
	"github.com/malleable-sched/malleable/internal/obs"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/workload"
)

// Task is a work-preserving malleable task: volume V (sequential work),
// weight w, degree bound δ (maximum simultaneous processors) and an optional
// due date.
type Task = schedule.Task

// Instance is a scheduling problem: P identical processors and a task set.
type Instance = schedule.Instance

// Schedule is a column-based fractional schedule (the MWCT-CB-F formulation
// of the paper): between two consecutive completion times every task holds a
// constant, possibly fractional, number of processors.
type Schedule = schedule.ColumnSchedule

// ProcessorSchedule is an integral schedule: each processor executes a
// sequence of task segments. It is obtained from a Schedule via
// ToProcessorSchedule (Theorem 3 of the paper).
type ProcessorSchedule = schedule.ProcessorAssignment

// GreedyResult pairs a greedy schedule with the task order that produced it.
type GreedyResult = core.GreedyResult

// OptimalResult describes an optimal schedule found by the exact solver.
type OptimalResult = exact.OrderSolution

// NewInstance builds and validates an instance.
func NewInstance(p float64, tasks []Task) (*Instance, error) {
	return schedule.NewInstance(p, tasks)
}

// WDEQ runs the non-clairvoyant weighted dynamic equipartition algorithm
// (Algorithm 1 of the paper) and returns the resulting schedule. WDEQ never
// looks at task volumes when taking decisions and is a 2-approximation of the
// optimal weighted completion time (Theorem 4).
func WDEQ(inst *Instance) (*Schedule, error) { return core.RunWDEQ(inst) }

// DEQ runs the unweighted dynamic equipartition baseline.
func DEQ(inst *Instance) (*Schedule, error) { return core.RunDEQ(inst) }

// WaterFill rebuilds a valid schedule in which task i completes exactly at
// completions[i], or reports that no such schedule exists (Algorithm WF,
// Theorem 8 of the paper). The result is the paper's normal form.
func WaterFill(inst *Instance, completions []float64) (*Schedule, error) {
	return core.WaterFill(inst, completions)
}

// Feasible reports whether some valid schedule meets the given per-task
// completion times.
func Feasible(inst *Instance, completions []float64) bool {
	return core.WaterFillFeasible(inst, completions)
}

// Normalize rebuilds the normal form of an arbitrary valid schedule from its
// completion times, preserving the objective value.
func Normalize(s *Schedule) (*Schedule, error) { return core.Normalize(s) }

// Greedy builds the greedy schedule for the given task order (Algorithm 3 of
// the paper): each task, in order, receives as much of the remaining capacity
// as its degree bound allows, as early as possible.
func Greedy(inst *Instance, order []int) (*Schedule, error) { return core.Greedy(inst, order) }

// GreedySmith runs Greedy with Smith's ordering (non-decreasing V_i/w_i).
func GreedySmith(inst *Instance) (*GreedyResult, error) { return core.GreedySmith(inst) }

// BestGreedy searches for the best greedy schedule: exhaustively over all
// orders for small instances, over a heuristic portfolio plus extraRandom
// random orders otherwise. rng may be nil for a deterministic default.
func BestGreedy(inst *Instance, rng *rand.Rand, extraRandom int) (*GreedyResult, error) {
	return core.BestGreedy(inst, rng, extraRandom)
}

// Optimal computes an optimal schedule for small instances by enumerating
// completion orders and solving the linear program of Corollary 1 for each.
func Optimal(inst *Instance) (*OptimalResult, error) {
	return exact.Optimal(inst, exact.Options{BuildSchedule: true})
}

// OptimalObjective returns only the optimal objective value.
func OptimalObjective(inst *Instance) (float64, error) { return exact.OptimalObjective(inst) }

// CmaxOptimal builds a schedule with the optimal makespan
// max(ΣV_i/P, max_i V_i/δ_i), stretching every task to that common deadline.
func CmaxOptimal(inst *Instance) (*Schedule, error) { return core.CmaxOptimal(inst) }

// MinimizeMaxLateness computes a schedule minimizing max_i (C_i − Due_i)
// using the water-filling feasibility test, and returns the optimal lateness.
func MinimizeMaxLateness(inst *Instance) (*Schedule, float64, error) {
	return core.MinimizeMaxLateness(inst)
}

// SquashedAreaBound returns A(I), the optimal objective when degree bounds
// are ignored (Smith's rule on the squashed platform); it is a lower bound of
// the optimum.
func SquashedAreaBound(inst *Instance) float64 { return core.SquashedAreaBound(inst) }

// HeightBound returns H(I) = Σ w_i·V_i/δ_i, the optimal objective on an
// unbounded platform; it is a lower bound of the optimum.
func HeightBound(inst *Instance) float64 { return core.HeightBound(inst) }

// LowerBound returns max(A(I), H(I)).
func LowerBound(inst *Instance) float64 { return core.LowerBound(inst) }

// Arrival is one task of an online workload: the task itself, its release
// date and the tenant that submitted it. Streams of arrivals drive the online
// engine (RunSpec.Arrivals); unlike a task of a static Instance, a zero
// volume is legal and completes the instant it is admitted.
type Arrival = engine.Arrival

// OnlinePolicy is an online allocation policy for the arrival-driven engine.
// Use OnlinePolicyByName for the bundled policies (WDEQ, DEQ, weight-greedy,
// smith-ratio) or implement the interface for a custom one. Allocate follows
// the append-into-dst convention: the engine hands the policy a reusable
// buffer and the policy appends one entry per alive task, which is what keeps
// the steady-state event loop allocation-free.
type OnlinePolicy = engine.Policy

// SpeedupModel maps an allocation of processors to an instantaneous
// processing rate — the kernel's pluggable rate model. The paper's
// work-preserving linear model (speedup.LinearCap) is the default wherever a
// model is not given; ParseSpeedupModel resolves the bundled alternatives
// (concave power law, Amdahl's law, time-varying platform capacity).
type SpeedupModel = speedup.Model

// ParseSpeedupModel resolves a speedup-model spec: "linear",
// "powerlaw[:alpha]", "amdahl[:sigma]", or "platform:cap@t0,cap@t1,...". The
// empty string is the linear default.
func ParseSpeedupModel(spec string) (SpeedupModel, error) { return speedup.ParseModel(spec) }

// SpeedupModelNames lists the accepted speedup-model spec forms.
func SpeedupModelNames() []string { return speedup.ModelNames() }

// OnlineRunner owns the reusable scratch of the online engine's event loop.
// After a warm-up run, repeated runs of similar size perform zero heap
// allocations per event — hold one per goroutine for benchmark loops, load
// generators and servers. The zero value is ready to use.
type OnlineRunner = engine.Runner

// NewOnlineRunner returns a fresh OnlineRunner.
func NewOnlineRunner() *OnlineRunner { return engine.NewRunner() }

// OnlineOptions tunes an online run: the speedup model (Model, nil = the
// paper's linear model), decision tracing and event bounds. The zero value is
// the production configuration: linear model, tracing off, default safety
// bound.
type OnlineOptions = engine.Options

// StaticRunResult is the outcome of replaying a static instance on the
// online kernel: engine metrics plus, under linear models, the reconstructed
// column-based schedule.
type StaticRunResult = engine.StaticResult

// OnlineResult is the outcome of an online run: per-task flow times plus
// aggregate weighted-flow, makespan and throughput metrics.
type OnlineResult = engine.Result

// OnlineLoadResult merges the outcomes of a sharded online run.
type OnlineLoadResult = engine.LoadResult

// OnlinePolicyByName resolves one of the bundled online policies: "wdeq" and
// "deq" (the paper's non-clairvoyant equipartition algorithms), the
// non-clairvoyant "weight-greedy" priority policy, or the clairvoyant
// "smith-ratio" baseline.
func OnlinePolicyByName(name string) (OnlinePolicy, error) { return engine.PolicyByName(name) }

// RunStatic replays a static instance (all tasks released at time zero — the
// offline setting of the paper) on the online kernel. Under a linear model
// the result carries a validated column-based Schedule reconstructed from the
// decision trace; non-linear models report engine metrics only.
func RunStatic(inst *Instance, policy OnlinePolicy, opts OnlineOptions) (*StaticRunResult, error) {
	return engine.RunStatic(inst, policy, opts)
}

// ArrivalStream is the pull iterator consumed by the streaming engine: Next
// returns the next arrival in non-decreasing release order, ok=false at the
// end of the stream. StreamArrivals (the workload generator) and
// NewArrivalTraceReader (JSONL replay) produce implementations; any custom
// source — a queue drain, a network feed — can implement it directly. The
// engine validates every pulled arrival and the ordering at its boundary.
type ArrivalStream = engine.ArrivalStream

// TaskMetrics is the per-task outcome a MetricSink observes: identity (ID,
// tenant), shape (weight, processed volume) and timing (release, completion,
// flow).
type TaskMetrics = engine.TaskMetrics

// MetricSink consumes per-task outcomes as tasks retire from a streaming
// run — the output half of the O(alive tasks) memory contract. Bundled
// sinks: NewAggregateSink (constant-memory per-tenant summary),
// NewQuantileSink (fixed-size mergeable flow quantiles), NewFullSink (the
// retain-everything behavior of the slice API, as an explicit choice), and
// CombineSinks to fan out to several.
type MetricSink = engine.MetricSink

// AggregateSink is the constant-memory summary sink: per-tenant task
// counts, flow moments and weighted flow. Sinks from independent shards
// merge deterministically.
type AggregateSink = engine.AggregateSink

// NewAggregateSink returns an empty aggregate sink.
func NewAggregateSink() *AggregateSink { return engine.NewAggregateSink() }

// QuantileSink summarizes flow times in a fixed-size mergeable quantile
// sketch with a relative-accuracy guarantee; p50/p99 of a ten-million-task
// run survive without retaining any per-task rows.
type QuantileSink = engine.SketchSink

// NewQuantileSink returns a quantile sink with relative accuracy alpha;
// alpha <= 0 selects the default (0.5%).
func NewQuantileSink(alpha float64) *QuantileSink { return engine.NewSketchSink(alpha) }

// FullSink retains every per-task row, indexed by task ID — O(total tasks)
// memory, the explicit opt-in replacement for the old unconditional
// retention.
type FullSink = engine.FullSink

// NewFullSink returns an empty full-retention sink; capacity pre-sizes the
// table when the task count is known (0 is fine).
func NewFullSink(capacity int) *FullSink { return engine.NewFullSink(capacity) }

// CombineSinks fans every observation out to each sink in order; nil
// entries are skipped.
func CombineSinks(sinks ...MetricSink) MetricSink { return engine.MultiSink(sinks...) }

// OnlineStepper is the resumable form of the engine event loop: it advances
// a run one event at a time (Step), exposes the virtual clock (Now), the
// live backlog (Backlog) and the next scheduled event (NextEventTime), and
// can be suspended between events — the building block the cluster
// coordinator interleaves into one fleet-wide timeline. Obtain one from an
// OnlineRunner via StartStream (pull a stream to completion on your own
// schedule) or StartFeed (hand arrivals in one at a time with Feed /
// CloseFeed).
type OnlineStepper = engine.Stepper

// ClusterRouter decides which shard each arriving task is dispatched to,
// observing live per-shard backlog/allocation snapshots at dispatch time.
// Bundled routers: "round-robin", "hash-tenant", "least-backlog" and "po2"
// (power-of-two-choices with a deterministic splitmix-seeded RNG); custom
// placements implement the interface directly.
type ClusterRouter = cluster.Router

// ClusterShardState is the live snapshot a router observes about one shard
// at dispatch time.
type ClusterShardState = cluster.ShardState

// RouterByName constructs one of the bundled cluster routers; the seed
// parameterizes the randomized ones ("po2", "hash-tenant") so a fixed seed
// replays a byte-identical dispatch sequence.
func RouterByName(name string, seed int64) (ClusterRouter, error) {
	return cluster.RouterByName(name, seed)
}

// RouterNames lists the bundled cluster router names.
func RouterNames() []string { return cluster.RouterNames() }

// ArrivalTraceWriter records an arrival stream as JSONL (one arrival per
// line) so a workload can be replayed later; ArrivalTraceReader streams it
// back and plugs directly into RunSpec.Stream.
type ArrivalTraceWriter = workload.TraceWriter

// ArrivalTraceReader streams a JSONL arrival trace; it satisfies
// ArrivalStream.
type ArrivalTraceReader = workload.TraceReader

// NewArrivalTraceWriter wraps w in a buffered JSONL arrival encoder; call
// Flush when done.
func NewArrivalTraceWriter(w io.Writer) *ArrivalTraceWriter { return workload.NewTraceWriter(w) }

// NewArrivalTraceReader wraps r in a streaming JSONL arrival decoder.
func NewArrivalTraceReader(r io.Reader) *ArrivalTraceReader { return workload.NewTraceReader(r) }

// TenantSpec describes one tenant of a multi-tenant online workload: its
// share of the arriving traffic and the weight multiplier applied to its
// tasks.
type TenantSpec = workload.TenantSpec

// OnlineWorkload parameterizes GenerateArrivals.
type OnlineWorkload struct {
	// Class names the task-shape distribution (the classes of `mwct gen`:
	// uniform, constant-weight, constant-weight-volume, large-delta,
	// unit-class, heterogeneous). Empty means uniform.
	Class string
	// P is the platform capacity the degree bounds are drawn against.
	P float64
	// Process names the arrival process, poisson or bursty. Empty means
	// poisson.
	Process string
	// Rate is the long-run arrival rate (tasks per unit time).
	Rate float64
	// MeanBurst is the mean burst size of the bursty process (>= 1).
	MeanBurst float64
	// Tenants is the tenant mix; nil means a single unit-weight tenant.
	Tenants []TenantSpec
	// CurveMin and CurveMax draw per-task speedup-curve parameters
	// (Task.Curve) uniformly from [CurveMin, CurveMax]; both zero disables
	// per-task curves. The parameters are interpreted by the run's
	// SpeedupModel (power-law exponent, Amdahl serial fraction).
	CurveMin, CurveMax float64
	// TenantSkew is a Zipf exponent reshaping the tenant shares: tenant i's
	// effective share is divided by (i+1)^TenantSkew, so equal base shares
	// become a Zipf-skewed mix. 0 leaves the shares as configured.
	TenantSkew float64
}

// arrivalConfig resolves the workload's class and process names into the
// internal configuration shared by GenerateArrivals and StreamArrivals.
func (w OnlineWorkload) arrivalConfig() (workload.ArrivalConfig, error) {
	className := w.Class
	if className == "" {
		className = "uniform"
	}
	class, err := workload.ParseClass(className)
	if err != nil {
		return workload.ArrivalConfig{}, err
	}
	processName := w.Process
	if processName == "" {
		processName = "poisson"
	}
	process, err := workload.ParseProcess(processName)
	if err != nil {
		return workload.ArrivalConfig{}, err
	}
	return workload.ArrivalConfig{
		Class:      class,
		P:          w.P,
		Process:    process,
		Rate:       w.Rate,
		MeanBurst:  w.MeanBurst,
		Tenants:    w.Tenants,
		CurveMin:   w.CurveMin,
		CurveMax:   w.CurveMax,
		TenantSkew: w.TenantSkew,
	}, nil
}

// GenerateArrivals draws n arrivals deterministically from the seed: task
// shapes from the named instance class, release dates from the arrival
// process, tenants by share (each task's weight is multiplied by its
// tenant's weight). The stream is sorted by release date and ready for
// RunSpec.Arrivals.
func GenerateArrivals(w OnlineWorkload, n int, seed int64) ([]Arrival, error) {
	cfg, err := w.arrivalConfig()
	if err != nil {
		return nil, err
	}
	return workload.GenerateArrivals(cfg, n, seed)
}

// StreamArrivals is the constant-memory form of GenerateArrivals: it returns
// a pull stream that draws the identical arrival sequence lazily, one task
// at a time, ready for RunSpec.Stream. Generating ten million arrivals this
// way costs the same memory as generating ten.
func StreamArrivals(w OnlineWorkload, n int, seed int64) (ArrivalStream, error) {
	cfg, err := w.arrivalConfig()
	if err != nil {
		return nil, err
	}
	return workload.NewStream(cfg, n, seed)
}

// ToProcessorSchedule converts a fractional column-based schedule into an
// integral per-processor schedule with the same completion times, following
// the constructive proof of Theorem 3. The instance must have an integer
// number of processors.
func ToProcessorSchedule(s *Schedule) (*ProcessorSchedule, error) {
	return schedule.FromColumns(s)
}

// RunSnapshot is the alloc-free rest-state view of a running engine handed
// to probes: virtual time, backlog, allocated capacity, cumulative
// admitted/completed/event counters and flow totals. Valid only for the
// duration of the ObserveSnapshot call.
type RunSnapshot = engine.Snapshot

// RunProbe observes an online run from inside the event loop: the engine
// calls ObserveSnapshot at its rest state after each event that crosses the
// configured interval (OnlineOptions.Probe, ProbeEveryEvents,
// ProbeInterval), and a final time with Snapshot.Done set. Probes run on the
// engine goroutine and must not block; well-behaved probes (the bundled
// collectors and timelines) also never allocate, preserving the engine's
// zero-allocation steady state.
type RunProbe = engine.Probe

// RunProbeFunc adapts a plain function to the RunProbe interface.
type RunProbeFunc = engine.ProbeFunc

// CombineProbes fans every snapshot out to each probe in order; nil entries
// are skipped. A run takes a single OnlineOptions.Probe, so attaching a
// collector and a timeline together goes through here.
func CombineProbes(probes ...RunProbe) RunProbe { return engine.MultiProbe(probes...) }

// ClusterProbe observes a routed fleet: the coordinator calls ObserveFleet
// after each dispatch (thinnable via RunSpec.ProbeEveryDispatches) and
// once after the drain, handing it the same per-shard snapshots routers see.
type ClusterProbe = cluster.Probe

// MetricsRegistry is a process-wide metric namespace: atomic counters and
// gauges (plain and label-vectored) plus sketch-backed summaries, rendered
// deterministically in Prometheus text exposition format by
// WritePrometheus. Updates are lock-free and allocation-free, so hot paths
// (probes, sinks) can mirror into a registry without disturbing the run.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// PrometheusContentType is the Content-Type of the text exposition written
// by MetricsRegistry.WritePrometheus.
const PrometheusContentType = obs.PrometheusContentType

// PrometheusFamily is one parsed metric family of a text exposition.
type PrometheusFamily = obs.Family

// PrometheusSample is one parsed sample line of a metric family.
type PrometheusSample = obs.Sample

// ParsePrometheusExposition strictly parses a Prometheus text exposition
// (format 0.0.4) into its metric families, validating TYPE declarations,
// label syntax and counter monotonicity — usable both to consume a scrape
// and to assert that generated output is well-formed.
func ParsePrometheusExposition(r io.Reader) (map[string]*PrometheusFamily, error) {
	return obs.ParseExposition(r)
}

// EngineCollector is a RunProbe that mirrors every observed engine snapshot
// into mwct_engine_* registry metrics — the bridge from a running engine to
// a Prometheus scrape. Wire it via OnlineOptions.Probe.
type EngineCollector = obs.EngineCollector

// NewEngineCollector registers the engine metric families on r and returns
// the collector.
func NewEngineCollector(r *MetricsRegistry) *EngineCollector { return obs.NewEngineCollector(r) }

// ClusterCollector is a ClusterProbe that mirrors fleet observations into
// mwct_cluster_* and per-shard labeled mwct_shard_* registry metrics. Wire
// it via RunSpec.FleetProbe.
type ClusterCollector = obs.ClusterCollector

// NewClusterCollector registers the cluster metric families on r and
// returns the collector.
func NewClusterCollector(r *MetricsRegistry) *ClusterCollector { return obs.NewClusterCollector(r) }

// FlowCollector is a MetricSink that feeds every completed task's flow time
// into an mwct_flow summary (quantiles, sum, count) on the registry. Combine
// it with other sinks via CombineSinks.
type FlowCollector = obs.FlowSink

// NewFlowCollector registers the flow summary on r and returns the sink.
func NewFlowCollector(r *MetricsRegistry) *FlowCollector { return obs.NewFlowSink(r) }

// RunTimeline records a run's trajectory — backlog, throughput, flow
// quantiles over virtual time — as sampled JSONL records. It implements
// RunProbe, MetricSink and ClusterProbe, so one timeline can observe a
// single engine (RunSpec.Probe + Sink) or a routed fleet
// (RunSpec.FleetProbe + Sink). Close flushes the terminal record;
// ReadRunTimeline streams a recorded file back. `mwct loadtest -timeline`
// is the command-line front end.
type RunTimeline = obs.Timeline

// TimelineRecord is one sampled point of a RunTimeline.
type TimelineRecord = obs.TimelineRecord

// NewRunTimeline returns a timeline writing JSONL to w, sampling at the
// given virtual-time interval (0 records every observation).
func NewRunTimeline(w io.Writer, interval float64) *RunTimeline { return obs.NewTimeline(w, interval) }

// ReadRunTimeline decodes a JSONL timeline written by RunTimeline.
func ReadRunTimeline(r io.Reader) ([]TimelineRecord, error) { return obs.ReadTimeline(r) }
