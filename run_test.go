package malleable_test

import (
	"encoding/json"
	"fmt"
	"testing"

	malleable "github.com/malleable-sched/malleable"
	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
)

// runWorkload is the shared multi-tenant load of the Run equivalence tests.
func runWorkload() malleable.OnlineWorkload {
	return malleable.OnlineWorkload{
		P:    8,
		Rate: 12,
		Tenants: []malleable.TenantSpec{
			{Name: "gold", Weight: 3, Share: 0.3},
			{Name: "bronze", Weight: 1, Share: 0.7},
		},
		TenantSkew: 1.2,
	}
}

func runArrivals(t *testing.T, n int, seed int64) []malleable.Arrival {
	t.Helper()
	arrivals, err := malleable.GenerateArrivals(runWorkload(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

func runStream(t *testing.T, n int, seed int64) malleable.ArrivalStream {
	t.Helper()
	stream, err := malleable.StreamArrivals(runWorkload(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

func runPolicy(t *testing.T) malleable.OnlinePolicy {
	t.Helper()
	policy, err := malleable.OnlinePolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	return policy
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// metricRows retains every observed row for order-sensitive comparisons.
type metricRows struct {
	rows []malleable.TaskMetrics
}

func (c *metricRows) Observe(m malleable.TaskMetrics) { c.rows = append(c.rows, m) }

// Run with Arrivals must reproduce the engine primitive Runner.RunInto
// exactly: same retained task table, same metrics — the primitive's result is
// Run's first (only) shard.
func TestRunMatchesRunnerRunInto(t *testing.T) {
	const n, seed = 600, 11
	policy := runPolicy(t)
	model, err := malleable.ParseSpeedupModel("powerlaw:0.8")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model malleable.SpeedupModel
	}{
		{"linear", nil},
		{"powerlaw", model},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := &malleable.OnlineResult{}
			if err := malleable.NewOnlineRunner().RunInto(old, 8, policy, runArrivals(t, n, seed), malleable.OnlineOptions{Model: tc.model}); err != nil {
				t.Fatal(err)
			}
			got, err := malleable.Run(malleable.RunSpec{
				P: 8, Policy: policy, Arrivals: runArrivals(t, n, seed), Model: tc.model,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Shards) != 1 || got.Shards[0].Result == nil {
				t.Fatalf("single-engine Run reported %d shards", len(got.Shards))
			}
			if want, have := mustJSON(t, old), mustJSON(t, got.Shards[0].Result); want != have {
				t.Errorf("Run's shard result diverged from RunInto:\n%s\nvs\n%s", have, want)
			}
			if got.TotalTasks != old.Completed || got.Makespan != old.Makespan {
				t.Errorf("merged metrics diverged: %d/%g vs %d/%g", got.TotalTasks, got.Makespan, old.Completed, old.Makespan)
			}
			if got.FlowApprox {
				t.Error("Arrivals run reported sketch quantiles; retention promises exact ones")
			}
		})
	}
}

// Run with a Stream must reproduce Runner.RunStreamInto: same aggregate
// result, and the caller's sink sees the identical row sequence.
func TestRunMatchesRunnerRunStreamInto(t *testing.T) {
	const n, seed = 2000, 23
	policy := runPolicy(t)

	oldRows := &metricRows{}
	old := &malleable.OnlineResult{}
	if err := malleable.NewOnlineRunner().RunStreamInto(old, 8, policy, runStream(t, n, seed), oldRows, malleable.OnlineOptions{}); err != nil {
		t.Fatal(err)
	}
	newRows := &metricRows{}
	got, err := malleable.Run(malleable.RunSpec{
		P: 8, Policy: policy, Stream: runStream(t, n, seed), Sink: newRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want, have := mustJSON(t, old), mustJSON(t, got.Shards[0].Result); want != have {
		t.Errorf("Run's shard result diverged from RunStreamInto:\n%s\nvs\n%s", have, want)
	}
	if !got.FlowApprox {
		t.Error("stream run must flag sketch-backed quantiles")
	}
	if len(oldRows.rows) != len(newRows.rows) {
		t.Fatalf("sink rows: %d vs %d", len(newRows.rows), len(oldRows.rows))
	}
	for i := range oldRows.rows {
		if oldRows.rows[i] != newRows.rows[i] {
			t.Fatalf("sink row %d: %+v vs %+v", i, newRows.rows[i], oldRows.rows[i])
		}
	}
}

// Run with a Source must reproduce engine.RunShardsStreamWithOptions — the
// independent-shards topology, merged report and all.
func TestRunMatchesRunShardsStreamWithOptions(t *testing.T) {
	const shards, baseSeed = 4, 77
	policy := runPolicy(t)
	source := func(shard int, seed int64) (malleable.ArrivalStream, error) {
		return malleable.StreamArrivals(runWorkload(), 500, seed)
	}
	old, err := engine.RunShardsStreamWithOptions(8, policy, source, shards, baseSeed, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := malleable.Run(malleable.RunSpec{
		P: 8, Policy: policy, Source: source, Shards: shards, Seed: baseSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want, have := mustJSON(t, old), mustJSON(t, got); want != have {
		t.Errorf("Run diverged from RunShardsStreamWithOptions:\n%s\nvs\n%s", have, want)
	}
}

// Run with a Router must reproduce cluster.Run, and Workers must not change a
// byte of the output — the facade-level face of the parallel coordinator's
// determinism contract.
func TestRunMatchesClusterRunAndWorkersAreByteInvariant(t *testing.T) {
	const n, shards, seed = 2500, 4, 5
	policy := runPolicy(t)
	newRouter := func() malleable.ClusterRouter {
		router, err := malleable.RouterByName("least-backlog", seed)
		if err != nil {
			t.Fatal(err)
		}
		return router
	}
	oldRows := &metricRows{}
	old, err := cluster.Run(cluster.Config{
		Shards: shards, P: 8, Policy: policy, Router: newRouter(), Sink: oldRows,
	}, runStream(t, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, old)
	for _, workers := range []int{0, 1, 4, 8} {
		rows := &metricRows{}
		got, err := malleable.Run(malleable.RunSpec{
			P: 8, Policy: policy, Stream: runStream(t, n, seed),
			Shards: shards, Router: newRouter(), Workers: workers, Sink: rows,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("Workers=%d", workers)
		if have := mustJSON(t, got); have != want {
			t.Errorf("%s: Run diverged from cluster.Run:\n%s\nvs\n%s", label, have, want)
		}
		if len(rows.rows) != len(oldRows.rows) {
			t.Fatalf("%s: sink rows %d vs %d", label, len(rows.rows), len(oldRows.rows))
		}
		for i := range oldRows.rows {
			if rows.rows[i] != oldRows.rows[i] {
				t.Fatalf("%s: sink row %d: %+v vs %+v", label, i, rows.rows[i], oldRows.rows[i])
			}
		}
	}
}

// The sink/probe parity the cluster config owes the single-engine paths: a
// one-shard cluster run with an engine probe and a shared sink must observe
// exactly what the plain single-engine stream run observes — same rows, same
// probe trace. This is the audit for the historical gap where the cluster
// configuration's options and OnlineOptions diverged.
func TestRunClusterSinkProbeParityWithSingleEngine(t *testing.T) {
	const n, seed = 1200, 43
	policy := runPolicy(t)
	type snap struct {
		Now       float64
		Completed int
		Backlog   int
		Done      bool
	}
	run := func(router malleable.ClusterRouter) ([]snap, string, *metricRows) {
		var snaps []snap
		rows := &metricRows{}
		probe := malleable.RunProbeFunc(func(s malleable.RunSnapshot) {
			snaps = append(snaps, snap{s.Now, s.Completed, s.Backlog, s.Done})
		})
		res, err := malleable.Run(malleable.RunSpec{
			P: 8, Policy: policy, Stream: runStream(t, n, seed),
			Router: router, Sink: rows,
			Probe: probe, ProbeEveryEvents: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Shard bookkeeping legitimately differs between the two paths (the
		// cluster records dispatch counts); the engine-visible outcome — the
		// merged aggregate metrics — must not.
		type visible struct {
			TotalTasks   int
			Events       int
			Makespan     float64
			WeightedFlow float64
			Flow         any
			PerTenant    any
		}
		return snaps, mustJSON(t, visible{res.TotalTasks, res.Events, res.Makespan, res.WeightedFlow, res.Flow, res.PerTenant}), rows
	}
	router, err := malleable.RouterByName("round-robin", 0)
	if err != nil {
		t.Fatal(err)
	}
	engineSnaps, engineBlob, engineRows := run(nil)
	clusterSnaps, clusterBlob, clusterRows := run(router)
	if len(engineSnaps) == 0 {
		t.Fatal("engine probe never fired")
	}
	if engineBlob != clusterBlob {
		t.Errorf("one-shard cluster metrics diverge from the single-engine run:\n%s\nvs\n%s", clusterBlob, engineBlob)
	}
	if len(engineSnaps) != len(clusterSnaps) {
		t.Fatalf("probe fired %d times on the cluster path, %d on the engine path", len(clusterSnaps), len(engineSnaps))
	}
	for i := range engineSnaps {
		if engineSnaps[i] != clusterSnaps[i] {
			t.Fatalf("probe observation %d: %+v cluster vs %+v engine", i, clusterSnaps[i], engineSnaps[i])
		}
	}
	if len(engineRows.rows) != len(clusterRows.rows) {
		t.Fatalf("sink rows: %d cluster vs %d engine", len(clusterRows.rows), len(engineRows.rows))
	}
	for i := range engineRows.rows {
		if engineRows.rows[i] != clusterRows.rows[i] {
			t.Fatalf("sink row %d: %+v cluster vs %+v engine", i, clusterRows.rows[i], engineRows.rows[i])
		}
	}
}

// An Arrivals run with a Sink replays the retained rows in completion order;
// the row set must match the stream path's exactly (the order may differ only
// within completion-time ties).
func TestRunArrivalsSinkReplaysCompletions(t *testing.T) {
	const n, seed = 800, 3
	policy := runPolicy(t)
	rows := &metricRows{}
	res, err := malleable.Run(malleable.RunSpec{
		P: 8, Policy: policy, Arrivals: runArrivals(t, n, seed), Sink: rows,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.rows) != res.TotalTasks {
		t.Fatalf("sink saw %d rows for %d completed tasks", len(rows.rows), res.TotalTasks)
	}
	for i := 1; i < len(rows.rows); i++ {
		if rows.rows[i].Completion < rows.rows[i-1].Completion {
			t.Fatalf("row %d completes at %g after a row at %g", i, rows.rows[i].Completion, rows.rows[i-1].Completion)
		}
	}
}

// The spec validation: every ambiguous or unsupported combination is a
// descriptive error, not a silent pick.
func TestRunSpecValidation(t *testing.T) {
	policy := runPolicy(t)
	router, err := malleable.RouterByName("round-robin", 0)
	if err != nil {
		t.Fatal(err)
	}
	source := func(shard int, seed int64) (malleable.ArrivalStream, error) {
		return malleable.StreamArrivals(runWorkload(), 10, seed)
	}
	cases := []struct {
		name string
		spec malleable.RunSpec
	}{
		{"no source", malleable.RunSpec{P: 8, Policy: policy}},
		{"two sources", malleable.RunSpec{P: 8, Policy: policy, Arrivals: runArrivals(t, 4, 1), Stream: runStream(t, 4, 1)}},
		{"workers without router", malleable.RunSpec{P: 8, Policy: policy, Arrivals: runArrivals(t, 4, 1), Workers: 4}},
		{"fleet probe without router", malleable.RunSpec{P: 8, Policy: policy, Arrivals: runArrivals(t, 4, 1), FleetProbe: fleetProbeFunc(func(float64, []malleable.ClusterShardState) {})}},
		{"shards without topology", malleable.RunSpec{P: 8, Policy: policy, Arrivals: runArrivals(t, 4, 1), Shards: 4}},
		{"router with source", malleable.RunSpec{P: 8, Policy: policy, Source: source, Router: router}},
		{"source with sink", malleable.RunSpec{P: 8, Policy: policy, Source: source, Shards: 2, Sink: &metricRows{}}},
		{"negative shards", malleable.RunSpec{P: 8, Policy: policy, Arrivals: runArrivals(t, 4, 1), Shards: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := malleable.Run(tc.spec); err == nil {
				t.Errorf("spec accepted: %+v", tc.spec)
			}
		})
	}
}

// fleetProbeFunc adapts a function to the ClusterProbe interface.
type fleetProbeFunc func(now float64, shards []malleable.ClusterShardState)

func (f fleetProbeFunc) ObserveFleet(now float64, shards []malleable.ClusterShardState) {
	f(now, shards)
}
