package obs

import (
	"strconv"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
)

// EngineCollector is an engine.Probe that mirrors each rest-state snapshot
// into registry metrics: gauges for the instantaneous view (virtual time,
// backlog, allocation, derived throughput and mean flow), counters for the
// monotone run totals (admitted, completed, events, cumulative flow sums).
// Every update is a handful of atomic stores — no map lookups, no
// formatting, no allocation — so a collector may observe every event of a
// zero-alloc run without costing it the property.
//
// One collector may be shared across concurrent shards (updates are atomic);
// the instantaneous gauges then carry last-writer-wins shard views while the
// counters remain per-shard monotone mirrors only if each shard has its own
// collector. Prefer one collector per run and the ClusterCollector for
// fleets.
type EngineCollector struct {
	virtualTime *Gauge
	backlog     *Gauge
	allocated   *Gauge
	maxAlive    *Gauge
	throughput  *Gauge
	meanFlow    *Gauge
	runsDone    *Counter

	admitted     *Counter
	completed    *Counter
	events       *Counter
	totalFlow    *Counter
	weightedFlow *Counter
}

// NewEngineCollector registers the engine metric family (prefix
// "mwct_engine_") in r and returns the collector.
func NewEngineCollector(r *Registry) *EngineCollector {
	return &EngineCollector{
		virtualTime: r.Gauge("mwct_engine_virtual_time", "Virtual time of the most recent rest-state snapshot."),
		backlog:     r.Gauge("mwct_engine_backlog", "Alive (admitted, unfinished) tasks at the snapshot."),
		allocated:   r.Gauge("mwct_engine_allocated", "Capacity allocated by the current policy decision."),
		maxAlive:    r.Gauge("mwct_engine_max_alive", "Peak backlog observed so far in the run."),
		throughput:  r.Gauge("mwct_engine_throughput", "Completed tasks per unit virtual time so far."),
		meanFlow:    r.Gauge("mwct_engine_mean_flow", "Mean flow time of the tasks completed so far."),
		runsDone:    r.Counter("mwct_engine_runs_completed_total", "Probed runs that reached their final Done snapshot."),
		admitted:    r.Counter("mwct_engine_admitted_total", "Arrivals admitted to the scheduler."),
		completed:   r.Counter("mwct_engine_completed_total", "Tasks retired by the scheduler."),
		events:      r.Counter("mwct_engine_events_total", "Policy invocations (kernel events) processed."),
		totalFlow:   r.Counter("mwct_engine_flow_total", "Sum of flow times over completed tasks."),
		weightedFlow: r.Counter("mwct_engine_weighted_flow_total",
			"Sum of weight-scaled flow times over completed tasks."),
	}
}

// ObserveSnapshot implements engine.Probe.
func (c *EngineCollector) ObserveSnapshot(s engine.Snapshot) {
	c.virtualTime.Set(s.Now)
	c.backlog.Set(float64(s.Backlog))
	c.allocated.Set(s.Allocated)
	c.maxAlive.Set(float64(s.MaxAlive))
	c.throughput.Set(s.Throughput())
	c.meanFlow.Set(s.MeanFlow())
	c.admitted.Set(float64(s.Admitted))
	c.completed.Set(float64(s.Completed))
	c.events.Set(float64(s.Events))
	c.totalFlow.Set(s.TotalFlow)
	c.weightedFlow.Set(s.WeightedFlow)
	if s.Done {
		c.runsDone.Inc()
	}
}

// FlowSink is an engine.MetricSink publishing per-task flow times as a
// Prometheus summary (quantiles from a mergeable sketch, exact sum and
// count). Observations lock a mutex but never allocate, so the sink
// composes with zero-alloc runs via engine.MultiSink.
type FlowSink struct {
	flow *Summary
}

// NewFlowSink registers mwct_flow (a summary of per-task flow times) in r.
func NewFlowSink(r *Registry) *FlowSink {
	return &FlowSink{flow: r.Summary("mwct_flow", "Per-task flow time (completion minus release).", 0)}
}

// Observe implements engine.MetricSink.
func (f *FlowSink) Observe(m engine.TaskMetrics) { f.flow.Observe(m.Flow) }

// Summary exposes the underlying summary for direct quantile queries.
func (f *FlowSink) Summary() *Summary { return f.flow }

// ClusterCollector is a cluster.Probe that mirrors dispatch-time fleet
// snapshots into per-shard labeled gauge families (prefix "mwct_shard_",
// label "shard") plus fleet-level rollups: total backlog, dispatch count,
// and the backlog imbalance (max-min spread) that makes router quality
// visible on a dashboard without a profiler.
//
// Child gauges are interned on the first observation and cached in a slice
// indexed by shard, so steady-state observations perform no map lookups and
// no allocation.
type ClusterCollector struct {
	shardBacklog    *GaugeVec
	shardAllocated  *GaugeVec
	shardCompleted  *GaugeVec
	shardDispatched *GaugeVec

	virtualTime    *Gauge
	fleetBacklog   *Gauge
	imbalance      *Gauge
	dispatchedTot  *Counter
	observationTot *Counter
	staleViewsTot  *Counter
	staleWindow    *Gauge

	// per-shard child cache, indexed by shard; built on first observation.
	backlog    []*Gauge
	allocated  []*Gauge
	completed  []*Gauge
	dispatched []*Gauge
}

// NewClusterCollector registers the cluster metric families in r and
// returns the collector.
func NewClusterCollector(r *Registry) *ClusterCollector {
	return &ClusterCollector{
		shardBacklog:    r.GaugeVec("mwct_shard_backlog", "Alive tasks on the shard at the last observation.", "shard"),
		shardAllocated:  r.GaugeVec("mwct_shard_allocated", "Capacity allocated on the shard at the last observation.", "shard"),
		shardCompleted:  r.GaugeVec("mwct_shard_completed", "Tasks retired by the shard so far.", "shard"),
		shardDispatched: r.GaugeVec("mwct_shard_dispatched", "Arrivals the router sent to the shard so far.", "shard"),
		virtualTime:     r.Gauge("mwct_cluster_virtual_time", "Virtual time of the last fleet observation."),
		fleetBacklog:    r.Gauge("mwct_cluster_backlog", "Total alive tasks across the fleet."),
		imbalance:       r.Gauge("mwct_cluster_backlog_imbalance", "Max minus min per-shard backlog at the last observation."),
		dispatchedTot:   r.Counter("mwct_cluster_dispatched_total", "Arrivals dispatched across the fleet."),
		observationTot:  r.Counter("mwct_cluster_observations_total", "Fleet observations delivered to the collector."),
		staleViewsTot:   r.Counter("mwct_cluster_stale_views_total", "Window-boundary fleet views published by stale-batched coordinators."),
		staleWindow:     r.Gauge("mwct_cluster_stale_window", "Dispatch window size of the last stale-batched run."),
	}
}

// ObserveResult folds a completed cluster run's view counters into the
// registry. The view cadence is only known when the run's merged
// LoadResult exists, so unlike the dispatch-time gauges these counters
// advance once per run. Exact-view runs report zeros, leaving them
// untouched.
func (c *ClusterCollector) ObserveResult(res *engine.LoadResult) {
	c.staleViewsTot.Add(float64(res.StaleViews))
	if res.StaleWindow > 0 {
		c.staleWindow.Set(float64(res.StaleWindow))
	}
}

// ObserveFleet implements cluster.Probe.
func (c *ClusterCollector) ObserveFleet(now float64, shards []cluster.ShardState) {
	for len(c.backlog) < len(shards) {
		// First observation (or a wider fleet): intern the children once.
		lv := strconv.Itoa(len(c.backlog))
		c.backlog = append(c.backlog, c.shardBacklog.With(lv))
		c.allocated = append(c.allocated, c.shardAllocated.With(lv))
		c.completed = append(c.completed, c.shardCompleted.With(lv))
		c.dispatched = append(c.dispatched, c.shardDispatched.With(lv))
	}
	total, dispatched := 0, 0
	minB, maxB := -1, 0
	for i := range shards {
		s := &shards[i]
		c.backlog[i].Set(float64(s.Backlog))
		c.allocated[i].Set(s.Allocated)
		c.completed[i].Set(float64(s.Completed))
		c.dispatched[i].Set(float64(s.Dispatched))
		total += s.Backlog
		dispatched += s.Dispatched
		if minB < 0 || s.Backlog < minB {
			minB = s.Backlog
		}
		if s.Backlog > maxB {
			maxB = s.Backlog
		}
	}
	c.virtualTime.Set(now)
	c.fleetBacklog.Set(float64(total))
	if minB < 0 {
		minB = 0
	}
	c.imbalance.Set(float64(maxB - minB))
	c.dispatchedTot.Set(float64(dispatched))
	c.observationTot.Inc()
}
