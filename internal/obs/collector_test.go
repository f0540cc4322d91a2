package obs

import (
	"bytes"
	"strconv"
	"testing"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

func testConfig(rate float64) workload.ArrivalConfig {
	return workload.ArrivalConfig{
		Class:   workload.Uniform,
		P:       8,
		Process: workload.Poisson,
		Rate:    rate,
		Tenants: []workload.TenantSpec{
			{Name: "gold", Weight: 4, Share: 0.2},
			{Name: "bronze", Weight: 1, Share: 0.8},
		},
	}
}

func testPolicy(t *testing.T) engine.Policy {
	t.Helper()
	policy, err := engine.PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	return policy
}

// An EngineCollector attached to a real run ends with registry values that
// equal the run's own result, and the whole registry renders as valid
// Prometheus text.
func TestEngineCollectorMirrorsRun(t *testing.T) {
	stream, err := workload.NewStream(testConfig(20), 1500, 31)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	col := NewEngineCollector(r)
	flow := NewFlowSink(r)
	res := &engine.Result{}
	if err := engine.NewRunner().RunStreamInto(res, 8, testPolicy(t), stream, flow, engine.Options{Probe: col}); err != nil {
		t.Fatal(err)
	}
	check := func(name string, c *Counter, want float64) {
		t.Helper()
		if got := c.Value(); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	check("completed", col.completed, float64(res.Completed))
	check("events", col.events, float64(res.Events))
	check("flow total", col.totalFlow, res.TotalFlow)
	check("weighted flow", col.weightedFlow, res.WeightedFlow)
	check("runs done", col.runsDone, 1)
	if got := col.virtualTime.Value(); got != res.Makespan {
		t.Errorf("virtual time = %g, want makespan %g", got, res.Makespan)
	}
	if got := col.backlog.Value(); got != 0 {
		t.Errorf("final backlog gauge = %g, want 0", got)
	}
	if got := flow.Summary().Count(); got != res.Completed {
		t.Errorf("flow summary saw %d tasks, want %d", got, res.Completed)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, name := range []string{"mwct_engine_completed_total", "mwct_engine_backlog", "mwct_flow"} {
		if fams[name] == nil {
			t.Errorf("family %s missing from exposition", name)
		}
	}
}

// The collector preserves the engine's zero-allocation steady state even
// when probing every event with a flow summary attached.
func TestEngineCollectorZeroAlloc(t *testing.T) {
	stream, err := workload.NewStream(testConfig(20), 512, 32)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]engine.Arrival, 0, 512)
	for {
		a, ok, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		arrivals = append(arrivals, a)
	}
	r := NewRegistry()
	col := NewEngineCollector(r)
	flow := NewFlowSink(r)
	runner := engine.NewRunner()
	res := &engine.Result{}
	replay := engine.NewSliceStream(arrivals)
	opts := engine.Options{Probe: col}
	var runErr error
	run := func() {
		replay.Reset()
		if err := runner.RunStreamInto(res, 8, engine.WDEQPolicy{}, replay, flow, opts); err != nil {
			runErr = err
		}
	}
	run() // warm runner scratch and the summary's sketch window
	if runErr != nil {
		t.Fatal(runErr)
	}
	allocs := testing.AllocsPerRun(10, run)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Fatalf("collected run allocates %.1f allocs/run, want 0", allocs)
	}
}

// A ClusterCollector mirrors the fleet's terminal state into labeled
// per-shard gauges plus rollups, and the exposition carries one child per
// shard.
func TestClusterCollectorShardFamilies(t *testing.T) {
	const n, shards = 2000, 3
	stream, err := workload.NewStream(testConfig(40), n, 33)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	col := NewClusterCollector(r)
	res, err := cluster.Run(cluster.Config{
		Shards: shards, P: 8, Policy: testPolicy(t),
		Router: cluster.NewLeastBacklog(), Probe: col,
	}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.dispatchedTot.Value(); got != n {
		t.Fatalf("dispatched total = %g, want %d", got, n)
	}
	sum := 0.0
	for i := 0; i < shards; i++ {
		sum += col.shardCompleted.With(strconv.Itoa(i)).Value()
	}
	if sum != float64(res.TotalTasks) {
		t.Fatalf("per-shard completed sums to %g, want %d", sum, res.TotalTasks)
	}
	if got := col.fleetBacklog.Value(); got != 0 {
		t.Fatalf("final fleet backlog = %g, want 0", got)
	}
	if got := col.imbalance.Value(); got != 0 {
		t.Fatalf("final backlog imbalance = %g, want 0", got)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := fams["mwct_shard_backlog"]
	if f == nil || len(f.Samples) != shards {
		t.Fatalf("mwct_shard_backlog families: %+v", f)
	}
	seen := map[string]bool{}
	for _, s := range f.Samples {
		seen[s.Labels["shard"]] = true
	}
	for i := 0; i < shards; i++ {
		if !seen[strconv.Itoa(i)] {
			t.Fatalf("shard %d missing from exposition: %v", i, seen)
		}
	}
}

// ObserveResult folds per-run view counts into the stale-view counters:
// synthetic results accumulate exactly, an exact-view (all-zero) result
// leaves them untouched, and a real stale-routing run's counters land in the
// exposition under mwct_cluster_stale_views_total.
func TestClusterCollectorObserveResult(t *testing.T) {
	r := NewRegistry()
	col := NewClusterCollector(r)
	col.ObserveResult(&engine.LoadResult{StaleViews: 3, StaleWindow: 512})
	col.ObserveResult(&engine.LoadResult{}) // exact-view runs report zeros
	col.ObserveResult(&engine.LoadResult{StaleViews: 2, StaleWindow: 512})
	if got := col.staleViewsTot.Value(); got != 5 {
		t.Fatalf("stale views total = %g, want 5", got)
	}
	if got := col.staleWindow.Value(); got != 512 {
		t.Fatalf("stale window = %g, want 512", got)
	}

	stream, err := workload.NewStream(testConfig(40), 2000, 33)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{
		Shards: 3, P: 8, Policy: testPolicy(t),
		Router: cluster.NewLeastBacklog(), Workers: 3, StaleRouting: true,
	}, stream)
	if err != nil {
		t.Fatal(err)
	}
	col.ObserveResult(res)
	if res.StaleViews == 0 {
		t.Fatal("stale-routing run published no views")
	}
	if got, want := col.staleViewsTot.Value(), 5+float64(res.StaleViews); got != want {
		t.Fatalf("stale views total after stale run = %g, want %g", got, want)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fams["mwct_cluster_stale_views_total"] == nil || fams["mwct_cluster_stale_window"] == nil {
		t.Fatalf("stale-view families missing from exposition: %v", fams)
	}
}

// After the first observation interned the children, fleet observations
// allocate nothing.
func TestClusterCollectorZeroAllocSteadyState(t *testing.T) {
	r := NewRegistry()
	col := NewClusterCollector(r)
	states := []cluster.ShardState{
		{Shard: 0, Backlog: 3, Allocated: 8, Completed: 10, Dispatched: 13},
		{Shard: 1, Backlog: 1, Allocated: 8, Completed: 12, Dispatched: 13},
	}
	col.ObserveFleet(1.0, states) // interning pass
	allocs := testing.AllocsPerRun(100, func() {
		col.ObserveFleet(2.0, states)
	})
	if allocs != 0 {
		t.Fatalf("fleet observation allocates %.1f allocs/run, want 0", allocs)
	}
}
