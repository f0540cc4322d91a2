package cluster

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/workload"
)

// skewedConfig is the Zipf-skewed multi-tenant workload of the router
// comparison: eight tenants, skew 1.5 (the head tenant absorbs ~58% of the
// traffic), offered load ~0.95 of the fleet capacity so backlog actually
// builds and routing quality shows in the tail.
func skewedConfig(rate float64) workload.ArrivalConfig {
	return workload.ArrivalConfig{
		Class:   workload.Uniform,
		P:       8,
		Process: workload.Poisson,
		Rate:    rate,
		Tenants: []workload.TenantSpec{
			{Name: "t0", Weight: 4, Share: 1}, {Name: "t1", Weight: 2, Share: 1},
			{Name: "t2", Weight: 1, Share: 1}, {Name: "t3", Weight: 1, Share: 1},
			{Name: "t4", Weight: 1, Share: 1}, {Name: "t5", Weight: 1, Share: 1},
			{Name: "t6", Weight: 1, Share: 1}, {Name: "t7", Weight: 1, Share: 1},
		},
		TenantSkew: 1.5,
	}
}

func wdeq(t *testing.T) engine.Policy {
	t.Helper()
	policy, err := engine.PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	return policy
}

func runCluster(t *testing.T, router string, shards, n int, seed int64) *engine.LoadResult {
	t.Helper()
	return runClusterMode(t, router, shards, n, seed, false)
}

func runClusterMode(t *testing.T, router string, shards, n int, seed int64, staleRouting bool) *engine.LoadResult {
	t.Helper()
	stream, err := workload.NewStream(skewedConfig(60.8), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RouterByName(router, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Shards: shards, P: 8, Policy: wdeq(t), Router: r, StaleRouting: staleRouting}, stream)
	if err != nil {
		t.Fatalf("%s: %v", router, err)
	}
	return res
}

// recordingRouter wraps a router and captures its dispatch sequence.
type recordingRouter struct {
	inner    Router
	dispatch []int
}

func (r *recordingRouter) Name() string { return r.inner.Name() }
func (r *recordingRouter) Route(a engine.Arrival, shards []ShardState) int {
	i := r.inner.Route(a, shards)
	r.dispatch = append(r.dispatch, i)
	return i
}

// The cluster determinism contract: with a fixed seed, every bundled router
// produces a byte-identical dispatch sequence and a byte-identical merged
// report across repeated runs AND across GOMAXPROCS settings — the
// coordinator is sequential by design, so parallelism must not be able to
// leak into results.
func TestClusterDeterministicAcrossRunsAndGOMAXPROCS(t *testing.T) {
	const n = 4000
	run := func(router string) ([]int, []byte) {
		stream, err := workload.NewStream(skewedConfig(60.8), n, 7)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := RouterByName(router, 42)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingRouter{inner: inner}
		res, err := Run(Config{Shards: 4, P: 8, Policy: wdeq(t), Router: rec}, stream)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return rec.dispatch, blob
	}
	for _, router := range RouterNames() {
		t.Run(router, func(t *testing.T) {
			dispatch, blob := run(router)
			if len(dispatch) != n {
				t.Fatalf("routed %d arrivals, want %d", len(dispatch), n)
			}
			prev := runtime.GOMAXPROCS(1)
			dispatch1, blob1 := run(router)
			runtime.GOMAXPROCS(prev)
			dispatch2, blob2 := run(router)
			for i := range dispatch {
				if dispatch[i] != dispatch1[i] || dispatch[i] != dispatch2[i] {
					t.Fatalf("dispatch %d differs across runs: %d vs %d vs %d", i, dispatch[i], dispatch1[i], dispatch2[i])
				}
			}
			if string(blob) != string(blob1) || string(blob) != string(blob2) {
				t.Fatalf("merged reports differ across runs/GOMAXPROCS")
			}
		})
	}
}

// The router-quality acceptance criterion: on the Zipf-skewed near-saturated
// workload, both backlog-aware routers beat blind round-robin on p99 flow by
// a clear margin (the measured gap at this seed is ~1.2x; the assert leaves
// slack). The numbers behind this test are recorded in EXPERIMENTS.md.
func TestBacklogAwareRoutersBeatRoundRobinP99(t *testing.T) {
	const n, seed = 30000, 12345
	rr := runCluster(t, "round-robin", 4, n, seed)
	lb := runCluster(t, "least-backlog", 4, n, seed)
	po2 := runCluster(t, "po2", 4, n, seed)
	if rr.TotalTasks != n || lb.TotalTasks != n || po2.TotalTasks != n {
		t.Fatalf("task counts: rr=%d lb=%d po2=%d, want %d", rr.TotalTasks, lb.TotalTasks, po2.TotalTasks, n)
	}
	const margin = 1.05
	if rr.Flow.P99 < margin*lb.Flow.P99 {
		t.Errorf("least-backlog p99 %.4g does not beat round-robin %.4g by %.2fx", lb.Flow.P99, rr.Flow.P99, margin)
	}
	if rr.Flow.P99 < margin*po2.Flow.P99 {
		t.Errorf("po2 p99 %.4g does not beat round-robin %.4g by %.2fx", po2.Flow.P99, rr.Flow.P99, margin)
	}
	// The mechanism, not just the outcome: the backlog-aware routers keep
	// the worst per-shard queue strictly shorter.
	if lb.PeakBacklog >= rr.PeakBacklog || po2.PeakBacklog >= rr.PeakBacklog {
		t.Errorf("peak backlogs rr=%d lb=%d po2=%d: backlog-aware routers should cap the worst queue",
			rr.PeakBacklog, lb.PeakBacklog, po2.PeakBacklog)
	}
	// The stale-routing quality guard: window-stale least-backlog trades
	// view freshness for barrier-free dispatch, and the trade must stay
	// cheap — p99 flow within 1.10x of the exact-view router on this
	// same near-saturated workload (measured ~1.0x at this seed; the
	// stale-vs-exact-vs-round-robin table is in EXPERIMENTS.md).
	staleLB := runClusterMode(t, "least-backlog", 4, n, seed, true)
	if staleLB.TotalTasks != n {
		t.Fatalf("stale least-backlog completed %d tasks, want %d", staleLB.TotalTasks, n)
	}
	const staleMargin = 1.10
	if staleLB.Flow.P99 > staleMargin*lb.Flow.P99 {
		t.Errorf("stale least-backlog p99 %.4g exceeds %.2fx the exact-view %.4g",
			staleLB.Flow.P99, staleMargin, lb.Flow.P99)
	}
	// And it must still be a backlog-aware router, not a round-robin in
	// disguise: the round-robin margin holds for the stale view too.
	if rr.Flow.P99 < margin*staleLB.Flow.P99 {
		t.Errorf("stale least-backlog p99 %.4g does not beat round-robin %.4g by %.2fx",
			staleLB.Flow.P99, rr.Flow.P99, margin)
	}
}

// A one-shard cluster is a single engine with extra bookkeeping: whatever
// the router, the merged result must match RunStreamInto on the same stream
// bit-for-bit — the anchor tying coordinator semantics to the kernel.
func TestSingleShardClusterMatchesEngine(t *testing.T) {
	const n, seed = 2000, 3
	cfg := skewedConfig(12)
	stream, err := workload.NewStream(cfg, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	var want engine.Result
	agg := engine.NewAggregateSink()
	if err := engine.NewRunner().RunStreamInto(&want, 8, wdeq(t), stream, agg, engine.Options{}); err != nil {
		t.Fatal(err)
	}

	stream2, err := workload.NewStream(cfg, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Shards: 1, P: 8, Policy: wdeq(t), Router: NewPowerOfTwo(5)}, stream2)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Shards[0].Result
	if got.Completed != want.Completed || got.Events != want.Events || got.MaxAlive != want.MaxAlive ||
		got.Makespan != want.Makespan || got.WeightedFlow != want.WeightedFlow || got.TotalFlow != want.TotalFlow {
		t.Fatalf("one-shard cluster diverges from the engine:\n%+v\nvs\n%+v", got, want)
	}
	if res.MinShardCompleted != n || res.MaxShardCompleted != n || res.PeakBacklog != want.MaxAlive {
		t.Fatalf("imbalance fields: min=%d max=%d peak=%d, want %d/%d/%d",
			res.MinShardCompleted, res.MaxShardCompleted, res.PeakBacklog, n, n, want.MaxAlive)
	}
}

// hash-tenant affinity: every task of a tenant lands on the same shard, and
// the per-shard completion spread mirrors the Zipf skew.
func TestHashTenantAffinity(t *testing.T) {
	const n = 3000
	stream, err := workload.NewStream(skewedConfig(30), n, 11)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewHashTenant(1)
	rec := &recordingRouter{inner: inner}
	// Capture tenants alongside the dispatch through a teeing stream.
	var tenants []int
	tee := streamFunc(func() (engine.Arrival, bool, error) {
		a, ok, err := stream.Next()
		if ok {
			tenants = append(tenants, a.Tenant)
		}
		return a, ok, err
	})
	res, err := Run(Config{Shards: 4, P: 8, Policy: wdeq(t), Router: rec}, tee)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTasks != n {
		t.Fatalf("completed %d, want %d", res.TotalTasks, n)
	}
	shardOf := map[int]int{}
	for i, tenant := range tenants {
		if prev, seen := shardOf[tenant]; seen && prev != rec.dispatch[i] {
			t.Fatalf("tenant %d split across shards %d and %d", tenant, prev, rec.dispatch[i])
		}
		shardOf[tenant] = rec.dispatch[i]
	}
	if res.MaxShardCompleted <= res.MinShardCompleted {
		t.Errorf("skewed affinity should imbalance shards: min=%d max=%d", res.MinShardCompleted, res.MaxShardCompleted)
	}
}

// streamFunc adapts a closure to an ArrivalStream.
type streamFunc func() (engine.Arrival, bool, error)

func (f streamFunc) Next() (engine.Arrival, bool, error) { return f() }

// Coordinator boundary validation and error paths.
func TestClusterErrors(t *testing.T) {
	policy := wdeq(t)
	valid := func() engine.ArrivalStream {
		s, err := workload.NewStream(skewedConfig(12), 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		cfg  Config
		in   engine.ArrivalStream
		want string
	}{
		{"nil stream", Config{Shards: 2, P: 8, Policy: policy}, nil, "nil arrival stream"},
		{"zero shards", Config{Shards: 0, P: 8, Policy: policy}, valid(), "at least one shard"},
		{"nil policy", Config{Shards: 2, P: 8}, valid(), "nil policy"},
		{"bad capacity", Config{Shards: 2, P: -1, Policy: policy}, valid(), "positive"},
		{"empty stream", Config{Shards: 2, P: 8, Policy: policy},
			streamFunc(func() (engine.Arrival, bool, error) { return engine.Arrival{}, false, nil }), "empty arrival stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg, tc.in)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}

	t.Run("misordered stream", func(t *testing.T) {
		task := schedule.Task{Weight: 1, Volume: 1, Delta: 2}
		arr := []engine.Arrival{{Task: task, Release: 2}, {Task: task, Release: 1}}
		pos := 0
		s := streamFunc(func() (engine.Arrival, bool, error) {
			if pos >= len(arr) {
				return engine.Arrival{}, false, nil
			}
			a := arr[pos]
			pos++
			return a, true, nil
		})
		_, err := Run(Config{Shards: 2, P: 8, Policy: policy}, s)
		if err == nil || !strings.Contains(err.Error(), "non-decreasing") {
			t.Fatalf("error = %v, want release-order violation", err)
		}
	})

	t.Run("out-of-range router", func(t *testing.T) {
		bad := routerFunc(func(a engine.Arrival, shards []ShardState) int { return len(shards) })
		_, err := Run(Config{Shards: 2, P: 8, Policy: policy, Router: bad}, valid())
		if err == nil || !strings.Contains(err.Error(), "routed arrival") {
			t.Fatalf("error = %v, want out-of-range routing", err)
		}
	})

	t.Run("nil router defaults to round-robin", func(t *testing.T) {
		res, err := Run(Config{Shards: 2, P: 8, Policy: policy}, valid())
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxShardCompleted-res.MinShardCompleted > 1 {
			t.Errorf("default round-robin split %d/%d is not even", res.MinShardCompleted, res.MaxShardCompleted)
		}
	})
}

// routerFunc adapts a closure to a Router.
type routerFunc func(a engine.Arrival, shards []ShardState) int

func (f routerFunc) Name() string                                    { return "func" }
func (f routerFunc) Route(a engine.Arrival, shards []ShardState) int { return f(a, shards) }

// A shared Config.Sink must observe every completion of the fleet exactly
// once, in a deterministic order, with non-decreasing completion times (the
// global virtual timeline).
func TestClusterSharedSinkGlobalOrder(t *testing.T) {
	const n = 1500
	var completions []float64
	sink := sinkFunc(func(m engine.TaskMetrics) { completions = append(completions, m.Completion) })
	stream, err := workload.NewStream(skewedConfig(40), n, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Shards: 3, P: 8, Policy: wdeq(t), Router: NewLeastBacklog(), Sink: sink}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(completions) != n || res.TotalTasks != n {
		t.Fatalf("sink saw %d completions, result %d, want %d", len(completions), res.TotalTasks, n)
	}
	for i := 1; i < len(completions); i++ {
		if completions[i] < completions[i-1] {
			t.Fatalf("completion %d at %g precedes %g — sink order is not the global timeline", i, completions[i], completions[i-1])
		}
	}
	if math.IsNaN(res.Flow.P99) || res.Flow.P99 <= 0 {
		t.Fatalf("merged p99 = %g", res.Flow.P99)
	}
}

// sinkFunc adapts a closure to a MetricSink.
type sinkFunc func(m engine.TaskMetrics)

func (f sinkFunc) Observe(m engine.TaskMetrics) { f(m) }

// fleetProbe retains per-observation fleet summaries (test-only).
type fleetProbe struct {
	times      []float64
	dispatched []int
	backlogs   []int
	completed  []int
	shardCount int
}

func (p *fleetProbe) ObserveFleet(now float64, shards []ShardState) {
	p.shardCount = len(shards)
	d, b, c := 0, 0, 0
	for _, s := range shards {
		d += s.Dispatched
		b += s.Backlog
		c += s.Completed
	}
	p.times = append(p.times, now)
	p.dispatched = append(p.dispatched, d)
	p.backlogs = append(p.backlogs, b)
	p.completed = append(p.completed, c)
}

// Config.Probe observes every dispatch with exact fleet state: the total
// dispatch count advances by one per observation, times are non-decreasing,
// and the closing observation shows the fleet fully drained.
func TestClusterProbeObservesEveryDispatch(t *testing.T) {
	const n = 2000
	stream, err := workload.NewStream(skewedConfig(40), n, 21)
	if err != nil {
		t.Fatal(err)
	}
	probe := &fleetProbe{}
	res, err := Run(Config{Shards: 3, P: 8, Policy: wdeq(t), Router: NewLeastBacklog(), Probe: probe}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(probe.times); got != n+1 {
		t.Fatalf("probe fired %d times, want %d dispatches + 1 final", got, n)
	}
	if probe.shardCount != 3 {
		t.Fatalf("probe saw %d shards, want 3", probe.shardCount)
	}
	for i := 0; i < n; i++ {
		if probe.dispatched[i] != i+1 {
			t.Fatalf("observation %d: fleet dispatched %d, want %d", i, probe.dispatched[i], i+1)
		}
		// The rest-state invariant, fleet-wide: every dispatched task is
		// alive, completed, or still pending admission on its shard (the
		// just-fed arrival), so backlog+completed never exceeds dispatches.
		if probe.backlogs[i]+probe.completed[i] > probe.dispatched[i] {
			t.Fatalf("observation %d: backlog %d + completed %d exceeds dispatched %d",
				i, probe.backlogs[i], probe.completed[i], probe.dispatched[i])
		}
		if i > 0 && probe.times[i] < probe.times[i-1] {
			t.Fatalf("observation %d time %g precedes %g", i, probe.times[i], probe.times[i-1])
		}
	}
	final := len(probe.times) - 1
	if probe.completed[final] != n || probe.backlogs[final] != 0 {
		t.Fatalf("final observation: completed %d backlog %d, want %d and 0", probe.completed[final], probe.backlogs[final], n)
	}
	if probe.times[final] != res.Makespan {
		t.Fatalf("final observation at %g, want makespan %g", probe.times[final], res.Makespan)
	}
}

// ProbeEveryDispatches thins observations to every k-th dispatch; the final
// drained observation still always arrives.
func TestClusterProbeThinning(t *testing.T) {
	const n, k = 2000, 64
	stream, err := workload.NewStream(skewedConfig(40), n, 22)
	if err != nil {
		t.Fatal(err)
	}
	probe := &fleetProbe{}
	_, err = Run(Config{Shards: 3, P: 8, Policy: wdeq(t), Router: NewLeastBacklog(), Probe: probe, ProbeEveryDispatches: k}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(probe.times), n/k+1; got != want {
		t.Fatalf("probe fired %d times, want %d", got, want)
	}
	for i := 0; i < len(probe.dispatched)-1; i++ {
		if probe.dispatched[i] != (i+1)*k {
			t.Fatalf("observation %d at dispatch %d, want %d", i, probe.dispatched[i], (i+1)*k)
		}
	}
	if probe.completed[len(probe.completed)-1] != n {
		t.Fatalf("final observation completed %d, want %d", probe.completed[len(probe.completed)-1], n)
	}
}

// The coordinator's merged aggregate folds per-shard sinks in shard order —
// the satellite check that the deterministic merge and a global-order fold
// of the very same completions agree: task counts exactly, floating-point
// sums within round-off.
func TestClusterAggregateMergeOrdering(t *testing.T) {
	const n = 2500
	stream, err := workload.NewStream(skewedConfig(40), n, 23)
	if err != nil {
		t.Fatal(err)
	}
	globalAgg := engine.NewAggregateSink()
	res, err := Run(Config{Shards: 4, P: 8, Policy: wdeq(t), Router: NewPowerOfTwo(7), Sink: globalAgg}, stream)
	if err != nil {
		t.Fatal(err)
	}
	merged := res.Aggregate.PerTenant()
	global := globalAgg.PerTenant()
	if len(merged) != len(global) || len(merged) == 0 {
		t.Fatalf("tenant rows: merged %d vs global %d", len(merged), len(global))
	}
	relClose := func(a, b float64) bool {
		diff := math.Abs(a - b)
		return diff <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for i := range merged {
		m, g := merged[i], global[i]
		if m.Tenant != g.Tenant || m.Tasks != g.Tasks {
			t.Fatalf("tenant row %d: shard-order merge %+v vs global-order fold %+v", i, m, g)
		}
		if !relClose(m.WeightedFlow, g.WeightedFlow) || !relClose(m.MeanFlow, g.MeanFlow) || !relClose(m.MaxFlow, g.MaxFlow) {
			t.Fatalf("tenant row %d flow mismatch beyond round-off: %+v vs %+v", i, m, g)
		}
	}
	if res.Aggregate.Tasks() != n || globalAgg.Tasks() != n {
		t.Fatalf("aggregate totals %d/%d, want %d", res.Aggregate.Tasks(), globalAgg.Tasks(), n)
	}
	// Repeating the run reproduces the shard-order merge byte-for-byte.
	stream2, err := workload.NewStream(skewedConfig(40), n, 23)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(Config{Shards: 4, P: 8, Policy: wdeq(t), Router: NewPowerOfTwo(7)}, stream2)
	if err != nil {
		t.Fatal(err)
	}
	again := res2.Aggregate.PerTenant()
	for i := range merged {
		if merged[i] != again[i] {
			t.Fatalf("tenant row %d not reproducible: %+v vs %+v", i, merged[i], again[i])
		}
	}
}
