package engine

import (
	"fmt"
	"sync"

	"github.com/malleable-sched/malleable/internal/stats"
)

// ArrivalSource produces the arrival stream of one shard as a materialized
// slice. The seed passed in is already derived from the base seed and the
// shard index (see ShardSeed), so a source only has to be deterministic in
// (shard, seed) for the whole sharded run to be reproducible.
type ArrivalSource func(shard int, seed int64) ([]Arrival, error)

// StreamSource is the pull form of ArrivalSource: it produces one shard's
// ArrivalStream, so the shard never materializes its workload. It is the
// input side of RunShardsStreamWithOptions.
type StreamSource func(shard int, seed int64) (ArrivalStream, error)

// ShardRun is the outcome of one shard of a sharded run.
type ShardRun struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Seed is the derived seed the shard's arrival stream was drawn with.
	Seed int64 `json:"seed"`
	// Result is the shard's engine result. Under RunShardsWithOptions it
	// retains the per-task rows; under RunShardsStreamWithOptions it carries
	// aggregates only.
	Result *Result `json:"result"`
}

// LoadResult merges the outcomes of a sharded run. All aggregates are
// computed in shard order, so two runs with the same inputs produce
// byte-identical reports.
type LoadResult struct {
	// Policy is the policy name, P the per-shard platform capacity.
	Policy string  `json:"policy"`
	P      float64 `json:"p"`
	// Shards holds the per-shard outcomes, indexed by shard.
	Shards []ShardRun `json:"shards"`
	// TotalTasks is the number of tasks completed across all shards.
	TotalTasks int `json:"totalTasks"`
	// Events is the total number of policy invocations.
	Events int `json:"events"`
	// Makespan is the largest shard makespan.
	Makespan float64 `json:"makespan"`
	// WeightedFlow is Σ w_i·F_i across all shards.
	WeightedFlow float64 `json:"weightedFlow"`
	// TotalFlow is Σ F_i across all shards.
	TotalFlow float64 `json:"totalFlow"`
	// Throughput is TotalTasks divided by Makespan: the aggregate completion
	// rate of the fleet while the slowest shard was still draining.
	Throughput float64 `json:"throughput"`
	// Flow summarizes the flow times of every task of every shard. Retained
	// rows give exact quantiles; streamed runs report them from the merged
	// quantile sketch (within stats.DefaultSketchAlpha relative accuracy),
	// flagged by FlowApprox.
	Flow stats.Summary `json:"flow"`
	// FlowApprox reports that the Flow quantiles come from a sketch.
	FlowApprox bool `json:"flowApprox,omitempty"`
	// MinShardCompleted and MaxShardCompleted bound the per-shard completed
	// counts — how evenly the fleet's work was spread. Under independent
	// per-shard streams the split is fixed up front; under a routed cluster
	// the gap is the router's doing, so it is the first number to read when
	// comparing routers.
	MinShardCompleted int `json:"minShardCompleted"`
	MaxShardCompleted int `json:"maxShardCompleted"`
	// PeakBacklog is the largest alive-set size any single shard reached —
	// the worst queue a task could have landed behind.
	PeakBacklog int `json:"peakBacklog"`
	// PerTenant aggregates tenants across shards, sorted by tenant index.
	PerTenant []TenantMetrics `json:"perTenant"`
	// Aggregate is the merged streaming aggregate of every shard — the same
	// numbers as the fields above plus the per-tenant accumulators, in
	// mergeable form. Long-running callers (mwct serve) fold it into
	// cumulative counters across many load tests.
	Aggregate *AggregateSink `json:"-"`
	// StaleViews and StaleWindow report a StaleRouting cluster run's view
	// cadence: how many window-boundary fleet views were published and the
	// dispatch window size they were published at. Dispatches per view is
	// TotalTasks / StaleViews. Both are zero on every other run and are
	// excluded from JSON, since they describe coordinator mechanics, not
	// the scheduling outcome.
	StaleViews  int `json:"-"`
	StaleWindow int `json:"-"`
}

// ShardSeed derives a per-shard seed from the base seed with a splitmix64
// step, so neighbouring shards get decorrelated streams while the mapping
// stays a pure function of (base, shard).
func ShardSeed(base int64, shard int) int64 {
	z := uint64(base) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunShardsWithOptions runs `shards` independent engine instances
// concurrently, one goroutine per shard, each over its own materialized
// arrival slice drawn with a seed derived from baseSeed, and merges the
// statistics deterministically; every shard retains its per-task rows, so
// the merged flow quantiles are exact. Every shard runs under the same
// options, so a speedup model (Options.Model) applies to the whole fleet. The
// policy and the model are shared across shard goroutines and must be safe
// for concurrent use (all bundled policies and models are stateless).
func RunShardsWithOptions(p float64, policy Policy, source ArrivalSource, shards int, baseSeed int64, opts Options) (*LoadResult, error) {
	if source == nil {
		return nil, fmt.Errorf("engine: nil arrival source")
	}
	return runShards(p, policy, shards, baseSeed, func(s int, seed int64) (*Result, *AggregateSink, *SketchSink, error) {
		arrivals, err := source(s, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		// One Runner per shard goroutine: the scratch buffers are not
		// safe to share, and per-goroutine reuse keeps the hot loop
		// allocation-free.
		res := &Result{}
		if err := NewRunner().RunInto(res, p, policy, arrivals, opts); err != nil {
			return nil, nil, nil, err
		}
		agg := NewAggregateSink()
		agg.ObserveResult(res)
		return res, agg, nil, nil
	})
}

// RunShardsStreamWithOptions is the streaming form of RunShardsWithOptions:
// each shard pulls its arrivals from a StreamSource and summarizes them
// through an AggregateSink plus a flow-quantile SketchSink, so the whole
// fleet runs in memory O(shards · (alive tasks + sink size)) no matter how
// long the streams are. Per-task rows are not retained anywhere; the merged
// LoadResult reports sketch-based flow quantiles (FlowApprox).
func RunShardsStreamWithOptions(p float64, policy Policy, source StreamSource, shards int, baseSeed int64, opts Options) (*LoadResult, error) {
	if source == nil {
		return nil, fmt.Errorf("engine: nil stream source")
	}
	return runShards(p, policy, shards, baseSeed, func(s int, seed int64) (*Result, *AggregateSink, *SketchSink, error) {
		stream, err := source(s, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		agg := NewAggregateSink()
		sk := NewSketchSink(0)
		res := &Result{}
		if err := NewRunner().RunStreamInto(res, p, policy, stream, MultiSink(agg, sk), opts); err != nil {
			return nil, nil, nil, err
		}
		return res, agg, sk, nil
	})
}

// runShards is the concurrent scaffolding shared by the slice and streaming
// drivers: one goroutine per shard executing runOne, panics contained as
// shard errors, and a deterministic shard-order merge of the partials.
func runShards(p float64, policy Policy, shards int, baseSeed int64,
	runOne func(shard int, seed int64) (*Result, *AggregateSink, *SketchSink, error)) (*LoadResult, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("engine: need at least one shard, got %d", shards)
	}
	runs := make([]ShardRun, shards)
	// Per-shard partials, folded inside the shard goroutines so the merge
	// only combines accumulators (and sketches, on the streaming path).
	aggs := make([]*AggregateSink, shards)
	sketches := make([]*SketchSink, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// A panicking source or policy must surface as this shard's
			// error, not abort the whole process (mwct serve runs shards on
			// behalf of network clients).
			defer func() {
				if r := recover(); r != nil {
					errs[s] = fmt.Errorf("shard %d: panic: %v", s, r)
				}
			}()
			seed := ShardSeed(baseSeed, s)
			res, agg, sk, err := runOne(s, seed)
			if err != nil {
				errs[s] = fmt.Errorf("shard %d: %w", s, err)
				return
			}
			runs[s] = ShardRun{Shard: s, Seed: seed, Result: res}
			aggs[s], sketches[s] = agg, sk
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	return MergeShards(p, policy.Name(), runs, aggs, sketches)
}

// MergeShards folds per-shard results into a LoadResult. Everything is
// iterated in shard order, so the merge is deterministic. On the slice path
// (no sketches) the flow samples concatenate for exact quantiles; on the
// streaming path the sketches merge instead and the quantiles carry the
// sketch accuracy. It is shared by the concurrent independent-streams
// drivers above and the virtual-time cluster coordinator
// (internal/cluster), so both report through one schema.
func MergeShards(p float64, policy string, runs []ShardRun, aggs []*AggregateSink, sketches []*SketchSink) (*LoadResult, error) {
	out := &LoadResult{Policy: policy, P: p, Shards: runs}
	agg := NewAggregateSink()
	streaming := sketches[0] != nil
	var flows []float64
	var sketch *SketchSink
	if streaming {
		sketch = NewSketchSink(0)
	}
	for s, run := range runs {
		r := run.Result
		out.TotalTasks += r.Completed
		out.Events += r.Events
		out.WeightedFlow += r.WeightedFlow
		out.TotalFlow += r.TotalFlow
		if r.Makespan > out.Makespan {
			out.Makespan = r.Makespan
		}
		if s == 0 || r.Completed < out.MinShardCompleted {
			out.MinShardCompleted = r.Completed
		}
		if r.Completed > out.MaxShardCompleted {
			out.MaxShardCompleted = r.Completed
		}
		if r.MaxAlive > out.PeakBacklog {
			out.PeakBacklog = r.MaxAlive
		}
		agg.Merge(aggs[s])
		if streaming {
			if err := sketch.Merge(sketches[s]); err != nil {
				return nil, fmt.Errorf("engine: merging shard %d flow sketch: %w", s, err)
			}
		} else {
			flows = append(flows, r.FlowTimes()...)
		}
	}
	if out.Makespan > 0 {
		out.Throughput = float64(out.TotalTasks) / out.Makespan
	}
	if streaming {
		out.Flow = FlowSummary(agg, sketch)
		out.FlowApprox = true
	} else {
		out.Flow = stats.Summarize(flows)
	}
	out.PerTenant = agg.PerTenant()
	out.Aggregate = agg
	return out, nil
}
