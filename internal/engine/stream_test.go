package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/numeric"
	"github.com/malleable-sched/malleable/internal/stats"
	"github.com/malleable-sched/malleable/internal/workload"
)

func streamConfig() workload.ArrivalConfig {
	return workload.ArrivalConfig{
		Class: workload.Uniform, P: 8, Process: workload.Bursty, Rate: 8, MeanBurst: 4,
		Tenants: []workload.TenantSpec{
			{Name: "gold", Weight: 4, Share: 0.2},
			{Name: "bronze", Weight: 1, Share: 0.8},
		},
	}
}

// The streaming path must reproduce the slice path exactly: same aggregates,
// and (through a FullSink) the same per-task rows, for every bundled policy.
func TestStreamMatchesSlicePath(t *testing.T) {
	const n = 2000
	cfg := streamConfig()
	arrivals, err := workload.GenerateArrivals(cfg, n, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			policy, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			slice := &Result{}
			if err := NewRunner().RunInto(slice, 8, policy, arrivals, Options{}); err != nil {
				t.Fatal(err)
			}
			stream, err := workload.NewStream(cfg, n, 17)
			if err != nil {
				t.Fatal(err)
			}
			full := NewFullSink(n)
			res := &Result{}
			if err := NewRunner().RunStreamInto(res, 8, policy, stream, full, Options{}); err != nil {
				t.Fatal(err)
			}
			if res.Completed != slice.Completed || res.Events != slice.Events ||
				res.MaxAlive != slice.MaxAlive || res.Makespan != slice.Makespan ||
				res.WeightedFlow != slice.WeightedFlow || res.TotalFlow != slice.TotalFlow ||
				res.WeightedCompletion != slice.WeightedCompletion {
				t.Fatalf("stream aggregates differ:\n%+v\nvs slice\n%+v", res, slice)
			}
			if len(res.Tasks) != 0 {
				t.Errorf("streaming run retained %d task rows", len(res.Tasks))
			}
			if len(full.Tasks) != n {
				t.Fatalf("full sink holds %d rows, want %d", len(full.Tasks), n)
			}
			for i := range full.Tasks {
				if full.Tasks[i] != slice.Tasks[i] {
					t.Fatalf("task %d differs: stream %+v vs slice %+v", i, full.Tasks[i], slice.Tasks[i])
				}
			}
		})
	}
}

// The aggregate sink must agree exactly with folding the retained table, and
// reset cleanly.
func TestAggregateSinkMatchesRetention(t *testing.T) {
	arrivals := allocArrivals(t, 600, 23)
	res := &Result{}
	if err := NewRunner().RunInto(res, 8, WDEQPolicy{}, arrivals, Options{}); err != nil {
		t.Fatal(err)
	}
	agg := NewAggregateSink()
	stream := NewSliceStream(arrivals)
	if err := NewRunner().RunStreamInto(&Result{}, 8, WDEQPolicy{}, stream, agg, Options{}); err != nil {
		t.Fatal(err)
	}
	if agg.Tasks() != len(arrivals) {
		t.Fatalf("aggregate counted %d tasks, want %d", agg.Tasks(), len(arrivals))
	}
	// The sink observes tasks in completion order while PerTenant on a
	// retained table folds in ID order, so the accumulator sums agree only
	// up to floating-point rounding.
	if !numeric.ApproxEqualTol(agg.MeanFlow(), res.MeanFlow(), 1e-12) {
		t.Errorf("mean flow %g vs %g", agg.MeanFlow(), res.MeanFlow())
	}
	if !numeric.ApproxEqualTol(agg.WeightedFlow(), res.WeightedFlow, 1e-12) {
		t.Errorf("weighted flow %g vs %g", agg.WeightedFlow(), res.WeightedFlow)
	}
	wantTenants := res.PerTenant()
	gotTenants := agg.PerTenant()
	if len(gotTenants) != len(wantTenants) {
		t.Fatalf("tenants %d vs %d", len(gotTenants), len(wantTenants))
	}
	for i := range gotTenants {
		g, w := gotTenants[i], wantTenants[i]
		if g.Tenant != w.Tenant || g.Tasks != w.Tasks || g.MaxFlow != w.MaxFlow ||
			!numeric.ApproxEqualTol(g.MeanFlow, w.MeanFlow, 1e-12) ||
			!numeric.ApproxEqualTol(g.StdFlow, w.StdFlow, 1e-9) ||
			!numeric.ApproxEqualTol(g.WeightedFlow, w.WeightedFlow, 1e-12) {
			t.Errorf("tenant %d: %+v vs %+v", i, g, w)
		}
	}
	agg.Reset()
	if agg.Tasks() != 0 || agg.WeightedFlow() != 0 || len(agg.PerTenant()) != len(wantTenants) {
		t.Errorf("reset sink: tasks=%d wf=%g tenants=%d", agg.Tasks(), agg.WeightedFlow(), len(agg.PerTenant()))
	}
	for _, tm := range agg.PerTenant() {
		if tm.Tasks != 0 {
			t.Errorf("reset tenant %d still counts %d tasks", tm.Tenant, tm.Tasks)
		}
	}
}

// Acceptance criterion of the refactor: on a 100k-task control run the
// sketch-sink p50/p99 must land within 1% of the exact quantiles computed
// from the retained slice path — including after a shard-style merge of
// partial sketches.
func TestSketchSinkQuantilesWithinOnePercent(t *testing.T) {
	const n = 100000
	cfg := streamConfig()
	arrivals, err := workload.GenerateArrivals(cfg, n, 31)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	if err := NewRunner().RunInto(res, 8, WDEQPolicy{}, arrivals, Options{}); err != nil {
		t.Fatal(err)
	}
	exact := stats.Summarize(res.FlowTimes())

	// Whole-run sketch.
	sk := NewSketchSink(0)
	if err := NewRunner().RunStreamInto(&Result{}, 8, WDEQPolicy{}, NewSliceStream(arrivals), sk, Options{}); err != nil {
		t.Fatal(err)
	}
	// Shard-style merge: four quarter-streams sketched independently.
	merged := NewSketchSink(0)
	for s := 0; s < 4; s++ {
		part := NewSketchSink(0)
		lo, hi := s*n/4, (s+1)*n/4
		// Feed the same flows the full run produced for this slice of tasks:
		// sketch merging is about the values, not about re-running shards.
		for _, tm := range res.Tasks[lo:hi] {
			part.Observe(tm)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
		tolerance float64
	}{
		{"p50", sk.Quantile(0.50), exact.P50, 0.01},
		{"p99", sk.Quantile(0.99), exact.P99, 0.01},
		{"merged-p50", merged.Quantile(0.50), exact.P50, 0.01},
		{"merged-p99", merged.Quantile(0.99), exact.P99, 0.01},
	} {
		if rel := math.Abs(c.got-c.want) / c.want; rel > c.tolerance {
			t.Errorf("%s: sketch %g vs exact %g (relative error %.4g > %g)", c.name, c.got, c.want, rel, c.tolerance)
		}
	}
}

// An out-of-order stream must abort the run at the engine boundary with the
// offending position, and so must an invalid arrival or a stream error.
func TestStreamBoundaryValidation(t *testing.T) {
	mk := func(arrivals ...Arrival) ArrivalStream { return NewSliceStream(arrivals) }
	t.Run("out of order", func(t *testing.T) {
		err := NewRunner().RunStreamInto(&Result{}, 2, WDEQPolicy{}, mk(
			Arrival{Task: task(1, 1, 1), Release: 5},
			Arrival{Task: task(1, 1, 1), Release: 1},
		), nil, Options{})
		if err == nil || !strings.Contains(err.Error(), "non-decreasing") {
			t.Fatalf("err = %v, want ordering violation", err)
		}
		if !strings.Contains(err.Error(), "arrival 1") {
			t.Errorf("err %v does not name the offending arrival", err)
		}
	})
	t.Run("invalid arrival", func(t *testing.T) {
		err := NewRunner().RunStreamInto(&Result{}, 2, WDEQPolicy{}, mk(
			Arrival{Task: task(1, 1, 1)},
			Arrival{Task: task(0, 1, 1), Release: 1},
		), nil, Options{})
		if err == nil || !strings.Contains(err.Error(), "arrival 1") {
			t.Fatalf("err = %v, want validation error naming arrival 1", err)
		}
	})
	t.Run("empty stream", func(t *testing.T) {
		if err := NewRunner().RunStreamInto(&Result{}, 2, WDEQPolicy{}, mk(), nil, Options{}); err == nil || !strings.Contains(err.Error(), "empty") {
			t.Fatalf("err = %v, want empty-stream error", err)
		}
	})
	t.Run("nil stream", func(t *testing.T) {
		if err := NewRunner().RunStreamInto(&Result{}, 2, WDEQPolicy{}, nil, nil, Options{}); err == nil {
			t.Fatal("nil stream accepted")
		}
	})
	t.Run("stream error", func(t *testing.T) {
		boom := &erroringStream{after: 3}
		err := NewRunner().RunStreamInto(&Result{}, 2, WDEQPolicy{}, boom, nil, Options{})
		if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "arrival 3") {
			t.Fatalf("err = %v, want wrapped stream error at arrival 3", err)
		}
	})
}

type erroringStream struct {
	emitted, after int
}

func (e *erroringStream) Next() (Arrival, bool, error) {
	if e.emitted >= e.after {
		return Arrival{}, false, fmt.Errorf("boom")
	}
	e.emitted++
	return Arrival{Task: task(1, 1, 1), Release: float64(e.emitted)}, true, nil
}

// The zero-allocation contract extends to the streaming path: a warmed
// Runner pulling from a rewound slice stream into warmed aggregate and
// sketch sinks performs no heap allocation per run.
func TestStreamSteadyStateZeroAllocs(t *testing.T) {
	arrivals := allocArrivals(t, 512, 99)
	stream := NewSliceStream(arrivals)
	agg := NewAggregateSink()
	sk := NewSketchSink(0)
	sink := MultiSink(agg, sk)
	runner := NewRunner()
	res := &Result{}
	var runErr error
	run := func() {
		stream.Reset()
		agg.Reset()
		sk.Reset()
		if err := runner.RunStreamInto(res, 8, WDEQPolicy{}, stream, sink, Options{}); err != nil {
			runErr = err
		}
	}
	run() // warm scratch, sink slots and sketch window
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Completed != len(arrivals) {
		t.Fatalf("completed %d of %d", res.Completed, len(arrivals))
	}
	allocs := testing.AllocsPerRun(10, run)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Errorf("steady-state streaming run allocated %.3g times, want 0", allocs)
	}
}

// The streaming shard driver must be deterministic and agree with the slice
// shard driver on every exactly-computed aggregate; its sketch quantiles
// must sit within the sketch accuracy of the exact ones.
func TestRunShardsStreamMatchesSliceDriver(t *testing.T) {
	cfg := streamConfig()
	perShard := 800
	sliceSrc := func(shard int, seed int64) ([]Arrival, error) {
		return workload.GenerateArrivals(cfg, perShard, seed)
	}
	streamSrc := func(shard int, seed int64) (ArrivalStream, error) {
		return workload.NewStream(cfg, perShard, seed)
	}
	want, err := RunShardsWithOptions(8, WDEQPolicy{}, sliceSrc, 4, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunShardsStreamWithOptions(8, WDEQPolicy{}, streamSrc, 4, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunShardsStreamWithOptions(8, WDEQPolicy{}, streamSrc, 4, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != again.Flow || got.WeightedFlow != again.WeightedFlow || got.TotalTasks != again.TotalTasks {
		t.Fatal("streaming shard driver is not deterministic")
	}
	if got.TotalTasks != want.TotalTasks || got.Events != want.Events ||
		got.Makespan != want.Makespan || got.WeightedFlow != want.WeightedFlow ||
		got.Throughput != want.Throughput {
		t.Errorf("stream driver aggregates differ:\n%+v\nvs\n%+v", got, want)
	}
	if !got.FlowApprox || want.FlowApprox {
		t.Errorf("FlowApprox: stream %v, slice %v", got.FlowApprox, want.FlowApprox)
	}
	// Counts and extremes agree exactly; means only to rounding (the sink
	// accumulates in completion order, the exact summary in ID order), and
	// quantiles within the sketch accuracy.
	if got.Flow.Count != want.Flow.Count || got.Flow.Min != want.Flow.Min || got.Flow.Max != want.Flow.Max ||
		!numeric.ApproxEqualTol(got.Flow.Mean, want.Flow.Mean, 1e-12) {
		t.Errorf("flow moments differ: %+v vs %+v", got.Flow, want.Flow)
	}
	for _, q := range []struct{ got, want float64 }{
		{got.Flow.P50, want.Flow.P50}, {got.Flow.P99, want.Flow.P99},
	} {
		if rel := math.Abs(q.got-q.want) / q.want; rel > 0.01 {
			t.Errorf("sketch quantile %g vs exact %g (relative error %.4g)", q.got, q.want, rel)
		}
	}
	if len(got.PerTenant) != len(want.PerTenant) {
		t.Fatalf("tenants %d vs %d", len(got.PerTenant), len(want.PerTenant))
	}
	for i := range got.PerTenant {
		g, w := got.PerTenant[i], want.PerTenant[i]
		if g.Tenant != w.Tenant || g.Tasks != w.Tasks || g.MaxFlow != w.MaxFlow ||
			!numeric.ApproxEqualTol(g.MeanFlow, w.MeanFlow, 1e-12) ||
			!numeric.ApproxEqualTol(g.StdFlow, w.StdFlow, 1e-9) ||
			!numeric.ApproxEqualTol(g.WeightedFlow, w.WeightedFlow, 1e-12) {
			t.Errorf("tenant %d: %+v vs %+v", i, g, w)
		}
	}
	if got.Aggregate == nil || want.Aggregate == nil {
		t.Fatal("merged aggregate sink missing")
	}
	if got.Aggregate.Tasks() != want.Aggregate.Tasks() {
		t.Errorf("aggregate tasks %d vs %d", got.Aggregate.Tasks(), want.Aggregate.Tasks())
	}
	// Per-shard results must not retain task rows on the streaming path.
	for _, run := range got.Shards {
		if len(run.Result.Tasks) != 0 {
			t.Errorf("shard %d retained %d task rows", run.Shard, len(run.Result.Tasks))
		}
	}
}

// Stream-source errors must name the failing shard, like slice sources do.
func TestRunShardsStreamPropagatesErrors(t *testing.T) {
	src := func(shard int, seed int64) (ArrivalStream, error) {
		if shard == 1 {
			return nil, fmt.Errorf("no stream")
		}
		return workload.NewStream(workload.ArrivalConfig{Class: workload.Uniform, P: 8, Process: workload.Poisson, Rate: 8}, 10, seed)
	}
	_, err := RunShardsStreamWithOptions(8, WDEQPolicy{}, src, 4, 1, Options{})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("err = %v, want error naming shard 1", err)
	}
}
