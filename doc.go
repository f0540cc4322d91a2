// Package malleable schedules work-preserving malleable tasks on identical
// processors to minimize the weighted sum of completion times, implementing
// the algorithms and analyses of:
//
//	Olivier Beaumont, Nicolas Bonichon, Lionel Eyraud-Dubois, Loris Marchal.
//	"Minimizing Weighted Mean Completion Time for Malleable Tasks Scheduling."
//	IPDPS 2012.
//
// A malleable task i is described by its total work V_i (its sequential
// processing time), a weight w_i, and a degree bound δ_i — the maximum number
// of processors it can use at any instant. The task may be preempted and the
// number of processors allocated to it may change freely over time; because
// the tasks are work-preserving, running on q processors for a duration d
// always processes q·d units of work.
//
// The package exposes:
//
//   - WDEQ, the non-clairvoyant weighted dynamic equipartition algorithm
//     (a 2-approximation for Σ w_i·C_i, Theorem 4 of the paper), and DEQ,
//     its unweighted ancestor;
//   - WaterFill, the normal-form construction: given only per-task completion
//     times it rebuilds a valid schedule whenever one exists (Theorem 8) and
//     bounds the number of allocation changes and preemptions (Theorems 9
//     and 10);
//   - Greedy, BestGreedy and GreedySmith, the greedy schedules of Section V,
//     which the paper conjectures always contain an optimal schedule;
//   - Optimal, the exact solver for small instances (order enumeration plus
//     the linear program of Corollary 1, solved by a built-in simplex);
//   - the lower bounds A(I) (squashed area), H(I) (height) and their mixed
//     combination, plus makespan- and lateness-oriented helpers;
//   - Run, the single entry point to the arrival-driven scheduling kernel:
//     a RunSpec names the platform, an OnlinePolicy (OnlinePolicyByName:
//     wdeq, deq, weight-greedy, smith-ratio), exactly one arrival source and
//     an optional topology, and every combination reports through one
//     RunResult schema. Materialized Arrivals retain per-task rows with
//     exact flow quantiles; a pulled ArrivalStream runs in O(alive tasks)
//     memory with per-task outcomes flowing into pluggable MetricSinks (a
//     per-tenant AggregateSink, a mergeable QuantileSink, a FullSink, or any
//     custom TaskMetrics consumer); a Source fans out to independent
//     concurrent shards; a ClusterRouter (RouterByName: round-robin,
//     hash-tenant, least-backlog, po2) dispatches ONE global stream across a
//     routed fleet on a single deterministic virtual timeline, where
//     RunSpec.Workers >= 2 advances shards concurrently through batched
//     dispatch windows (state-free routers, or StaleRouting) without
//     changing a single output byte — same dispatch sequence, same sink
//     order, same merged result at any worker count.
//     RunSpec.StaleRouting trades exactness for pipelining: a
//     window-stale router (least-backlog, po2) reads fleet views published
//     once per 512-dispatch window, which removes the per-dispatch barrier
//     entirely — a different but fully deterministic schedule, byte-identical
//     at every worker count, with the view cadence reported on the result
//     (StaleViews, StaleWindow) — and RunSpec.Prefetch overlaps arrival
//     generation or trace decode with shard execution on a producer
//     goroutine without changing any output byte;
//   - SpeedupModel, the kernel's pluggable processing-rate model: the
//     paper's linear-cap speedup is the default, and ParseSpeedupModel
//     resolves concave power-law and Amdahl models (with optional per-task
//     Task.Curve parameters) and step-function time-varying platform
//     capacities — the same policies and workloads run unchanged under any
//     of them (RunSpec.Model). RunStatic replays a static instance on
//     the kernel and, under linear models, reconstructs the column-based
//     schedule from the decision trace. The kernel itself is exposed in
//     resumable form as OnlineStepper (StartStream/StartFeed on an
//     OnlineRunner), advancing one event at a time and suspendable between
//     events;
//   - the observability plane: a RunProbe observes any run at its rest state
//     at configurable intervals (RunSpec.Probe) without perturbing it,
//     MetricsRegistry + NewEngineCollector/NewClusterCollector/NewFlowCollector
//     mirror live runs into Prometheus-rendered metrics (`mwct serve` answers
//     GET /metrics; `-pprof` adds net/http/pprof), and NewRunTimeline records
//     sampled backlog/throughput/flow-quantile trajectories as JSONL
//     (`mwct loadtest -timeline out.jsonl`) that ReadRunTimeline loads back —
//     all of it allocation-free in steady state.
//
// # One run entry point
//
// Run is the only run entry point of the package: a single engine, a routed
// cluster and independent shards are all RunSpec values, and every one
// reports through RunResult (a single engine reads back as a one-shard fleet,
// its OnlineResult in Shards[0].Result). Beneath it, an OnlineRunner is the
// engine primitive itself — RunInto and RunStreamInto reuse its scratch
// across runs, StartStream and StartFeed hand out the resumable stepper — and
// RunStatic replays an offline instance on the same kernel.
//
// The heavy lifting lives in internal packages (internal/core,
// internal/schedule, internal/engine, internal/lp, ...); this package is the
// stable facade a downstream user imports. The cmd/mwct command exposes the
// same functionality on the command line (including `mwct loadtest`, the
// multi-tenant load generator over the engine, and `mwct serve`, its HTTP
// front end), the examples/ directory contains runnable scenarios, and
// bench_test.go regenerates every quantitative result of the paper (see
// DESIGN.md and EXPERIMENTS.md).
package malleable
