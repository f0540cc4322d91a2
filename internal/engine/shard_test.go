package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/schedule"
)

// poissonSource draws a small Poisson-ish stream deterministically from the
// shard seed (the real generator lives in internal/workload, which the engine
// must not depend on).
func poissonSource(n int) ArrivalSource {
	return func(shard int, seed int64) ([]Arrival, error) {
		rng := rand.New(rand.NewSource(seed))
		arrivals := make([]Arrival, n)
		now := 0.0
		for i := range arrivals {
			now += rng.ExpFloat64() / 4
			arrivals[i] = Arrival{
				Task: schedule.Task{
					Weight: 0.1 + rng.Float64(),
					Volume: 0.1 + rng.Float64(),
					Delta:  0.5 + rng.Float64(),
				},
				Release: now,
				Tenant:  i % 2,
			}
		}
		return arrivals, nil
	}
}

// Two sharded runs with the same seed must be exactly identical — the
// determinism contract `mwct loadtest` relies on.
func TestRunShardsDeterministic(t *testing.T) {
	src := poissonSource(80)
	a, err := RunShardsWithOptions(2, WDEQPolicy{}, src, 4, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShardsWithOptions(2, WDEQPolicy{}, src, 4, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded runs with the same seed differ:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Shards) != 4 || a.TotalTasks != 320 {
		t.Errorf("shards=%d tasks=%d, want 4 shards x 80 tasks", len(a.Shards), a.TotalTasks)
	}
}

// A different base seed must produce different streams (the derivation is not
// degenerate), and distinct shards of one run must not share a seed.
func TestShardSeedsDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for s := 0; s < 16; s++ {
		seed := ShardSeed(1, s)
		if seen[seed] {
			t.Fatalf("shard %d repeats seed %d", s, seed)
		}
		seen[seed] = true
	}
	if ShardSeed(1, 0) == ShardSeed(2, 0) {
		t.Errorf("base seeds 1 and 2 collide on shard 0")
	}
	src := poissonSource(40)
	a, err := RunShardsWithOptions(2, WDEQPolicy{}, src, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShardsWithOptions(2, WDEQPolicy{}, src, 2, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.WeightedFlow == b.WeightedFlow {
		t.Errorf("different base seeds produced identical weighted flow %g", a.WeightedFlow)
	}
}

// The merged aggregates must equal what a direct fold over the shard results
// produces, and the merged tenant accumulators must match an exact
// recomputation over every task.
func TestMergeShardsConsistency(t *testing.T) {
	res, err := RunShardsWithOptions(2, WDEQPolicy{}, poissonSource(60), 3, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tasks, events int
	var wf, mk float64
	tenantFlow := map[int][]float64{}
	for _, run := range res.Shards {
		tasks += len(run.Result.Tasks)
		events += run.Result.Events
		wf += run.Result.WeightedFlow
		if run.Result.Makespan > mk {
			mk = run.Result.Makespan
		}
		for _, tm := range run.Result.Tasks {
			tenantFlow[tm.Tenant] = append(tenantFlow[tm.Tenant], tm.Flow)
		}
	}
	if res.TotalTasks != tasks || res.Events != events || res.Makespan != mk {
		t.Errorf("merged tasks/events/makespan = %d/%d/%g, want %d/%d/%g",
			res.TotalTasks, res.Events, res.Makespan, tasks, events, mk)
	}
	if !numeric.ApproxEqualTol(res.WeightedFlow, wf, 1e-9) {
		t.Errorf("merged weighted flow %g, want %g", res.WeightedFlow, wf)
	}
	if res.Flow.Count != tasks {
		t.Errorf("flow summary over %d samples, want %d", res.Flow.Count, tasks)
	}
	if len(res.PerTenant) != len(tenantFlow) {
		t.Fatalf("merged %d tenants, want %d", len(res.PerTenant), len(tenantFlow))
	}
	for _, tm := range res.PerTenant {
		flows := tenantFlow[tm.Tenant]
		var sum, max float64
		for _, f := range flows {
			sum += f
			if f > max {
				max = f
			}
		}
		if tm.Tasks != len(flows) {
			t.Errorf("tenant %d: %d tasks, want %d", tm.Tenant, tm.Tasks, len(flows))
		}
		mean := sum / float64(len(flows))
		if !numeric.ApproxEqualTol(tm.MeanFlow, mean, 1e-9) {
			t.Errorf("tenant %d: mean flow %g, want %g", tm.Tenant, tm.MeanFlow, mean)
		}
		if tm.MaxFlow != max {
			t.Errorf("tenant %d: max flow %g, want %g", tm.Tenant, tm.MaxFlow, max)
		}
		// The merged Welford variance must match a direct two-pass
		// recomputation over all shards' samples.
		var sq float64
		for _, f := range flows {
			sq += (f - mean) * (f - mean)
		}
		std := math.Sqrt(sq / float64(len(flows)-1))
		if !numeric.ApproxEqualTol(tm.StdFlow, std, 1e-9) {
			t.Errorf("tenant %d: std flow %g, want %g", tm.Tenant, tm.StdFlow, std)
		}
	}
}

// Shard errors must surface, naming the failing shard.
func TestRunShardsPropagatesErrors(t *testing.T) {
	src := func(shard int, seed int64) ([]Arrival, error) {
		if shard == 2 {
			return nil, fmt.Errorf("boom")
		}
		return poissonSource(10)(shard, seed)
	}
	_, err := RunShardsWithOptions(2, WDEQPolicy{}, src, 4, 1, Options{})
	if err == nil {
		t.Fatal("shard error swallowed")
	}
	if _, err := RunShardsWithOptions(2, WDEQPolicy{}, poissonSource(10), 0, 1, Options{}); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// A panicking source must surface as a shard error, not crash the process
// (mwct serve runs shards on behalf of network clients).
func TestRunShardsRecoversPanics(t *testing.T) {
	src := func(shard int, seed int64) ([]Arrival, error) {
		if shard == 1 {
			panic("boom")
		}
		return poissonSource(10)(shard, seed)
	}
	_, err := RunShardsWithOptions(2, WDEQPolicy{}, src, 4, 1, Options{})
	if err == nil || !strings.Contains(err.Error(), "panic: boom") {
		t.Fatalf("err = %v, want shard panic error", err)
	}
}
