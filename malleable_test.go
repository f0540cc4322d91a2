package malleable_test

import (
	"bytes"
	"math/rand"
	"testing"

	malleable "github.com/malleable-sched/malleable"
	"github.com/malleable-sched/malleable/internal/numeric"
)

// exampleInstance is the small running example used by the facade tests:
// three tasks on two processors.
func exampleInstance(t *testing.T) *malleable.Instance {
	t.Helper()
	inst, err := malleable.NewInstance(2, []malleable.Task{
		{Name: "render", Weight: 3, Volume: 2, Delta: 2, Due: 2},
		{Name: "encode", Weight: 1, Volume: 2, Delta: 1, Due: 3},
		{Name: "upload", Weight: 2, Volume: 1, Delta: 2, Due: 1},
	})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestFacadeAlgorithmsProduceValidSchedules(t *testing.T) {
	inst := exampleInstance(t)

	wdeq, err := malleable.WDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	deq, err := malleable.DEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	smith, err := malleable.GreedySmith(inst)
	if err != nil {
		t.Fatal(err)
	}
	best, err := malleable.BestGreedy(inst, rand.New(rand.NewSource(1)), 4)
	if err != nil {
		t.Fatal(err)
	}
	cmax, err := malleable.CmaxOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*malleable.Schedule{
		"WDEQ": wdeq, "DEQ": deq, "GreedySmith": smith.Schedule, "BestGreedy": best.Schedule, "CmaxOptimal": cmax,
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s schedule invalid: %v", name, err)
		}
	}
}

func TestFacadeOptimalAndBounds(t *testing.T) {
	inst := exampleInstance(t)
	opt, err := malleable.Optimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Schedule.Validate(); err != nil {
		t.Fatalf("optimal schedule invalid: %v", err)
	}
	obj, err := malleable.OptimalObjective(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(obj, opt.Objective, 1e-9) {
		t.Errorf("OptimalObjective = %g, Optimal().Objective = %g", obj, opt.Objective)
	}
	lb := malleable.LowerBound(inst)
	if lb > opt.Objective+1e-6 {
		t.Errorf("lower bound %g exceeds the optimum %g", lb, opt.Objective)
	}
	if malleable.SquashedAreaBound(inst) > lb+1e-9 || malleable.HeightBound(inst) > lb+1e-9 {
		t.Errorf("LowerBound is not the max of A and H")
	}

	wdeq, err := malleable.WDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	if wdeq.WeightedCompletionTime() > 2*opt.Objective+1e-6 {
		t.Errorf("WDEQ breaks its 2-approximation guarantee")
	}

	best, err := malleable.BestGreedy(inst, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(best.Objective, opt.Objective, 1e-5) {
		t.Errorf("best greedy %g differs from the optimum %g (Conjecture 12)", best.Objective, opt.Objective)
	}
}

func TestFacadeNormalFormAndConversion(t *testing.T) {
	inst := exampleInstance(t)
	wdeq, err := malleable.WDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !malleable.Feasible(inst, wdeq.CompletionTimes()) {
		t.Errorf("completion times of a valid schedule reported infeasible")
	}
	norm, err := malleable.Normalize(wdeq)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(norm.WeightedCompletionTime(), wdeq.WeightedCompletionTime(), 1e-6) {
		t.Errorf("normalization changed the objective")
	}
	wf, err := malleable.WaterFill(inst, wdeq.CompletionTimes())
	if err != nil {
		t.Fatal(err)
	}
	pa, err := malleable.ToProcessorSchedule(wf)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Validate(); err != nil {
		t.Errorf("processor schedule invalid: %v", err)
	}
	// Infeasible targets are rejected.
	tight := make([]float64, inst.N())
	for i := range tight {
		tight[i] = 0.01
	}
	if malleable.Feasible(inst, tight) {
		t.Errorf("absurdly tight completion times reported feasible")
	}
}

func TestFacadeGreedyAndLateness(t *testing.T) {
	inst := exampleInstance(t)
	g, err := malleable.Greedy(inst, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("greedy schedule invalid: %v", err)
	}
	s, lmax, err := malleable.MinimizeMaxLateness(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("lateness schedule invalid: %v", err)
	}
	if s.MaxLateness() > lmax+1e-6 {
		t.Errorf("schedule lateness %g exceeds reported optimum %g", s.MaxLateness(), lmax)
	}
	// No schedule can beat the reported optimal lateness.
	if g.MaxLateness() < lmax-1e-6 {
		t.Errorf("a greedy schedule beats the reported optimal lateness (%g < %g)", g.MaxLateness(), lmax)
	}
}

func TestRunSingleEngineFacade(t *testing.T) {
	policy, err := malleable.OnlinePolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []malleable.Arrival{
		{Task: malleable.Task{Name: "boot", Weight: 2, Volume: 1, Delta: 1}, Release: 0},
		{Task: malleable.Task{Name: "serve", Weight: 1, Volume: 1, Delta: 1}, Release: 0.5},
	}
	out, err := malleable.Run(malleable.RunSpec{P: 1, Policy: policy, Arrivals: arrivals})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := out.Shards[0].Result
	if res.Policy != "WDEQ" || len(res.Tasks) != 2 {
		t.Fatalf("result = %+v", res)
	}
	for i, tm := range res.Tasks {
		if tm.Completion < arrivals[i].Release || tm.Flow <= 0 {
			t.Errorf("task %d: completion %g flow %g", i, tm.Completion, tm.Flow)
		}
	}
	if res.WeightedFlow <= 0 || res.Throughput() <= 0 {
		t.Errorf("weighted flow %g, throughput %g", res.WeightedFlow, res.Throughput())
	}
	if _, err := malleable.OnlinePolicyByName("bogus"); err == nil {
		t.Error("unknown online policy accepted")
	}
}

func TestRunSourceShardsFacade(t *testing.T) {
	policy, err := malleable.OnlinePolicyByName("deq")
	if err != nil {
		t.Fatal(err)
	}
	source := func(shard int, seed int64) (malleable.ArrivalStream, error) {
		return malleable.StreamArrivals(malleable.OnlineWorkload{P: 2, Rate: 4}, 30, seed)
	}
	res, err := malleable.Run(malleable.RunSpec{P: 2, Policy: policy, Source: source, Shards: 3, Seed: 7})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TotalTasks != 90 || len(res.Shards) != 3 || res.Throughput <= 0 {
		t.Errorf("load result = tasks %d, shards %d, throughput %g", res.TotalTasks, len(res.Shards), res.Throughput)
	}
}

func TestGenerateArrivalsFacade(t *testing.T) {
	arrivals, err := malleable.GenerateArrivals(malleable.OnlineWorkload{
		P:    2,
		Rate: 4,
		Tenants: []malleable.TenantSpec{
			{Name: "gold", Weight: 4, Share: 0.5},
			{Name: "bronze", Weight: 1, Share: 0.5},
		},
	}, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 50 {
		t.Fatalf("got %d arrivals, want 50", len(arrivals))
	}
	policy, err := malleable.OnlinePolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := malleable.Run(malleable.RunSpec{P: 2, Policy: policy, Arrivals: arrivals}); err != nil {
		t.Fatalf("generated stream not runnable: %v", err)
	}
	if _, err := malleable.GenerateArrivals(malleable.OnlineWorkload{Class: "nope", P: 2, Rate: 1}, 5, 1); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := malleable.GenerateArrivals(malleable.OnlineWorkload{Process: "nope", P: 2, Rate: 1}, 5, 1); err == nil {
		t.Error("unknown process accepted")
	}
}

// The speedup-model surface of the facade: model parsing, model-threaded
// online runs, per-task curve generation, and the static replay on the
// online kernel.
func TestSpeedupModelFacade(t *testing.T) {
	inst := exampleInstance(t)

	// Static replay under the default linear model reproduces WDEQ exactly.
	static, err := malleable.RunStatic(inst, mustPolicy(t, "wdeq"), malleable.OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if static.Schedule == nil {
		t.Fatal("linear static run built no schedule")
	}
	direct, err := malleable.WDEQ(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(static.Schedule.WeightedCompletionTime(), direct.WeightedCompletionTime(), 1e-6) {
		t.Errorf("static replay %g vs WDEQ %g", static.Schedule.WeightedCompletionTime(), direct.WeightedCompletionTime())
	}

	// Non-linear models slow the same workload down and skip the schedule.
	model, err := malleable.ParseSpeedupModel("powerlaw:0.5")
	if err != nil {
		t.Fatal(err)
	}
	concave, err := malleable.RunStatic(inst, mustPolicy(t, "wdeq"), malleable.OnlineOptions{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if concave.Schedule != nil {
		t.Errorf("concave static run built a schedule")
	}
	if concave.Makespan <= static.Makespan {
		t.Errorf("concave makespan %g not slower than linear %g", concave.Makespan, static.Makespan)
	}

	// Online runs accept the model through RunSpec.Model, and per-task curves
	// flow from the generator into the kernel.
	arrivals, err := malleable.GenerateArrivals(malleable.OnlineWorkload{
		Class: "uniform", P: 4, Process: "poisson", Rate: 4,
		CurveMin: 0.5, CurveMax: 0.9,
	}, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arrivals {
		if a.Task.Curve < 0.5 || a.Task.Curve > 0.9 {
			t.Fatalf("arrival %d curve %g outside [0.5, 0.9]", i, a.Task.Curve)
		}
	}
	linear, err := malleable.Run(malleable.RunSpec{P: 4, Policy: mustPolicy(t, "wdeq"), Arrivals: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	curved, err := malleable.Run(malleable.RunSpec{P: 4, Policy: mustPolicy(t, "wdeq"), Arrivals: arrivals, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if !(curved.WeightedFlow > linear.WeightedFlow) {
		t.Errorf("concave weighted flow %g not worse than linear %g", curved.WeightedFlow, linear.WeightedFlow)
	}

	// The sharded form threads the same options through every shard.
	source := func(shard int, seed int64) (malleable.ArrivalStream, error) {
		return malleable.StreamArrivals(malleable.OnlineWorkload{
			Class: "uniform", P: 4, Process: "poisson", Rate: 4,
			CurveMin: 0.5, CurveMax: 0.9,
		}, 200, 7)
	}
	load, err := malleable.Run(malleable.RunSpec{P: 4, Policy: mustPolicy(t, "wdeq"), Source: source, Shards: 2, Seed: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if load.TotalTasks != 2*len(arrivals) {
		t.Errorf("sharded run completed %d tasks, want %d", load.TotalTasks, 2*len(arrivals))
	}

	if len(malleable.SpeedupModelNames()) == 0 {
		t.Errorf("no speedup model names exported")
	}
	if _, err := malleable.ParseSpeedupModel("bogus"); err == nil {
		t.Errorf("bogus model spec accepted")
	}
}

func mustPolicy(t *testing.T, name string) malleable.OnlinePolicy {
	t.Helper()
	p, err := malleable.OnlinePolicyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The streaming facade: StreamArrivals must match GenerateArrivals, a Stream
// run must match an Arrivals run on aggregates, sinks must see every task,
// and a JSONL trace must round-trip into an identical replay.
func TestRunStreamFacade(t *testing.T) {
	w := malleable.OnlineWorkload{
		Class: "uniform", P: 4, Process: "bursty", Rate: 6, MeanBurst: 3,
		Tenants: []malleable.TenantSpec{
			{Name: "gold", Weight: 4, Share: 0.25},
			{Name: "bronze", Weight: 1, Share: 0.75},
		},
	}
	const n = 400
	arrivals, err := malleable.GenerateArrivals(w, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	batchRun, err := malleable.Run(malleable.RunSpec{P: 4, Policy: mustPolicy(t, "wdeq"), Arrivals: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	batch := batchRun.Shards[0].Result

	stream, err := malleable.StreamArrivals(w, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	agg := malleable.NewAggregateSink()
	quant := malleable.NewQuantileSink(0)
	full := malleable.NewFullSink(n)
	streamRun, err := malleable.Run(malleable.RunSpec{P: 4, Policy: mustPolicy(t, "wdeq"), Stream: stream,
		Sink: malleable.CombineSinks(agg, quant, full)})
	if err != nil {
		t.Fatal(err)
	}
	res := streamRun.Shards[0].Result
	if res.Completed != n || res.WeightedFlow != batch.WeightedFlow || res.Makespan != batch.Makespan {
		t.Fatalf("streaming aggregates differ: %+v vs %+v", res, batch)
	}
	if len(res.Tasks) != 0 {
		t.Errorf("streaming facade retained %d rows", len(res.Tasks))
	}
	if agg.Tasks() != n || quant.Sketch.Count() != n || len(full.Tasks) != n {
		t.Fatalf("sinks saw %d/%d/%d tasks, want %d", agg.Tasks(), quant.Sketch.Count(), len(full.Tasks), n)
	}
	for i := range full.Tasks {
		if full.Tasks[i] != batch.Tasks[i] {
			t.Fatalf("task %d differs via full sink: %+v vs %+v", i, full.Tasks[i], batch.Tasks[i])
		}
	}

	// Record the workload as JSONL, replay it, and get the same run.
	var trace bytes.Buffer
	tw := malleable.NewArrivalTraceWriter(&trace)
	for _, a := range arrivals {
		if err := tw.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	replayRun, err := malleable.Run(malleable.RunSpec{P: 4, Policy: mustPolicy(t, "wdeq"), Stream: malleable.NewArrivalTraceReader(&trace)})
	if err != nil {
		t.Fatal(err)
	}
	replayed := replayRun.Shards[0].Result
	if replayed.WeightedFlow != batch.WeightedFlow || replayed.Completed != n || replayed.Events != batch.Events {
		t.Errorf("trace replay diverged: %+v vs %+v", replayed, batch)
	}

	// The sharded streaming driver merges without retaining rows.
	source := func(shard int, seed int64) (malleable.ArrivalStream, error) {
		return malleable.StreamArrivals(w, n, seed)
	}
	load, err := malleable.Run(malleable.RunSpec{P: 4, Policy: mustPolicy(t, "wdeq"), Source: source, Shards: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if load.TotalTasks != 3*n || !load.FlowApprox || load.Flow.Count != 3*n {
		t.Errorf("sharded stream load = %+v", load)
	}
	for _, run := range load.Shards {
		if len(run.Result.Tasks) != 0 {
			t.Errorf("shard %d retained rows", run.Shard)
		}
	}
}

// The cluster facade: one global Zipf-skewed stream routed across a fleet,
// deterministic under a fixed seed, with the imbalance fields populated and
// the resumable stepper surfaced.
func TestRunRouterFacade(t *testing.T) {
	w := malleable.OnlineWorkload{
		P: 4, Rate: 24,
		Tenants: []malleable.TenantSpec{
			{Name: "a", Weight: 2, Share: 1}, {Name: "b", Weight: 1, Share: 1},
			{Name: "c", Weight: 1, Share: 1}, {Name: "d", Weight: 1, Share: 1},
		},
		TenantSkew: 1.5,
	}
	const n = 1200
	run := func(routerName string) *malleable.OnlineLoadResult {
		t.Helper()
		stream, err := malleable.StreamArrivals(w, n, 77)
		if err != nil {
			t.Fatal(err)
		}
		router, err := malleable.RouterByName(routerName, 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := malleable.Run(malleable.RunSpec{
			P: 4, Policy: mustPolicy(t, "wdeq"), Stream: stream, Shards: 3, Router: router,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, name := range malleable.RouterNames() {
		res := run(name)
		if res.TotalTasks != n {
			t.Errorf("%s: completed %d tasks, want %d", name, res.TotalTasks, n)
		}
		if res.MaxShardCompleted < res.MinShardCompleted || res.PeakBacklog <= 0 {
			t.Errorf("%s: imbalance fields min=%d max=%d peak=%d", name, res.MinShardCompleted, res.MaxShardCompleted, res.PeakBacklog)
		}
	}
	a, b := run("po2"), run("po2")
	if a.WeightedFlow != b.WeightedFlow || a.Makespan != b.Makespan || a.PeakBacklog != b.PeakBacklog {
		t.Errorf("po2 cluster not deterministic: %+v vs %+v", a, b)
	}

	// The resumable stepper through the facade: drive a few events by hand.
	stream, err := malleable.StreamArrivals(w, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	var res malleable.OnlineResult
	runner := malleable.NewOnlineRunner()
	st, err := runner.StartStream(&res, 4, mustPolicy(t, "wdeq"), stream, nil, malleable.OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != 64 {
		t.Errorf("stepper completed %d of 64", res.Completed)
	}
}

// The observability plane through the facade: a registry-backed engine
// collector and a timeline observe a streaming run without changing its
// result, and the registry renders a parseable Prometheus exposition.
func TestObservabilityFacade(t *testing.T) {
	w := malleable.OnlineWorkload{Class: "uniform", P: 4, Process: "poisson", Rate: 6}
	const n = 500

	stream, err := malleable.StreamArrivals(w, n, 21)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := malleable.Run(malleable.RunSpec{P: 4, Policy: mustPolicy(t, "wdeq"), Stream: stream})
	if err != nil {
		t.Fatal(err)
	}

	reg := malleable.NewMetricsRegistry()
	collector := malleable.NewEngineCollector(reg)
	flows := malleable.NewFlowCollector(reg)
	var timelineBuf bytes.Buffer
	timeline := malleable.NewRunTimeline(&timelineBuf, 1)

	stream, err = malleable.StreamArrivals(w, n, 21)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := malleable.Run(malleable.RunSpec{P: 4, Policy: mustPolicy(t, "wdeq"), Stream: stream,
		Sink:  malleable.CombineSinks(flows, timeline),
		Probe: malleable.CombineProbes(collector, timeline)})
	if err != nil {
		t.Fatal(err)
	}
	if err := timeline.Close(); err != nil {
		t.Fatal(err)
	}
	if observed.WeightedFlow != plain.WeightedFlow || observed.Makespan != plain.Makespan {
		t.Fatalf("observation perturbed the run: %+v vs %+v", observed, plain)
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	fams, err := malleable.ParsePrometheusExposition(&prom)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	done := fams["mwct_engine_completed_total"]
	if done == nil || done.Samples[0].Value != n {
		t.Fatalf("mwct_engine_completed_total = %+v, want %d", done, n)
	}
	if flow := fams["mwct_flow"]; flow == nil || flow.Type != "summary" {
		t.Fatalf("mwct_flow family = %+v", flow)
	}

	recs, err := malleable.ReadRunTimeline(&timelineBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || !recs[len(recs)-1].Done || recs[len(recs)-1].Completed != n {
		t.Fatalf("timeline records = %d, terminal %+v", len(recs), recs[len(recs)-1])
	}
}
