package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goldenReport is a hand-built report with fixed values, so the golden file
// pins the JSON schema (field names, nesting, formatting) rather than any
// measurement.
func goldenReport() *Report {
	return &Report{
		Schema:    SchemaVersion,
		GoVersion: "go1.24.0",
		GOOS:      "linux",
		GOARCH:    "amd64",
		BudgetNs:  int64(100 * time.Millisecond),
		Results: []Result{
			{
				Scenario: "online-poisson", Policy: "wdeq",
				Runs: 12, Tasks: 4096, Events: 8191, WallNs: 120000000,
				NsPerOp: 10000000, AllocsPerOp: 0, BytesPerOp: 0,
				TasksPerSec: 409600, FlowP50: 1.5, FlowP99: 9.25,
			},
			{
				Scenario: "sharded", Policy: "wdeq",
				Runs: 5, Tasks: 4096, Events: 8200, WallNs: 110000000,
				NsPerOp: 22000000, AllocsPerOp: 8234.5, BytesPerOp: 1.25e6,
				TasksPerSec: 186181.81818181818, FlowP50: 1.25, FlowP99: 8.5,
			},
		},
	}
}

// The JSON schema is a contract with checked-in baselines and CI artifacts:
// any unintentional change to field names or formatting must fail this test.
// Refresh the golden file deliberately with UPDATE_GOLDEN=1.
func TestReportJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenReport()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from the golden schema.\ngot:\n%s\nwant:\n%s\n(run with UPDATE_GOLDEN=1 to accept)", buf.Bytes(), want)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	want := goldenReport()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != want.Schema || len(got.Results) != len(want.Results) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Errorf("result %d: %+v != %+v", i, got.Results[i], want.Results[i])
		}
	}
}

func TestReadJSONRejectsWrongSchema(t *testing.T) {
	r := goldenReport()
	r.Schema = SchemaVersion + 1
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&buf); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("err = %v, want schema mismatch", err)
	}
}

func report(results ...Result) *Report {
	return &Report{Schema: SchemaVersion, Results: results}
}

func TestCompareRunsFlagsThroughputRegression(t *testing.T) {
	base := report(Result{Scenario: "a", TasksPerSec: 1000, NsPerOp: 100})
	cur := report(Result{Scenario: "a", TasksPerSec: 700, NsPerOp: 100})
	regs, err := CompareRuns(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "tasksPerSec" {
		t.Fatalf("regressions = %+v, want one tasksPerSec entry", regs)
	}
	if regs[0].Change >= 0 || regs[0].String() == "" {
		t.Errorf("bad regression rendering: %+v -> %s", regs[0], regs[0])
	}
	// A drop within the threshold passes.
	ok := report(Result{Scenario: "a", TasksPerSec: 800, NsPerOp: 100})
	regs, err = CompareRuns(base, ok, 0.25)
	if err != nil || len(regs) != 0 {
		t.Errorf("regs = %+v, err = %v; want clean pass", regs, err)
	}
	// Improvements never flag.
	better := report(Result{Scenario: "a", TasksPerSec: 5000, NsPerOp: 10})
	regs, err = CompareRuns(base, better, 0.25)
	if err != nil || len(regs) != 0 {
		t.Errorf("regs = %+v, err = %v; improvement flagged", regs, err)
	}
}

func TestCompareRunsFlagsTimeAndAllocRegressions(t *testing.T) {
	base := report(Result{Scenario: "a", TasksPerSec: 1000, NsPerOp: 100, AllocsPerOp: 0})
	cur := report(Result{Scenario: "a", TasksPerSec: 1000, NsPerOp: 200, AllocsPerOp: 9000})
	regs, err := CompareRuns(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want nsPerOp and allocsPerOp", regs)
	}
	if regs[0].Metric != "allocsPerOp" || regs[1].Metric != "nsPerOp" {
		t.Errorf("metrics = %s, %s (sorted order expected)", regs[0].Metric, regs[1].Metric)
	}
	// The absolute alloc slack tolerates noise against a zero baseline.
	noisy := report(Result{Scenario: "a", TasksPerSec: 1000, NsPerOp: 100, AllocsPerOp: 3})
	regs, err = CompareRuns(base, noisy, 0.25)
	if err != nil || len(regs) != 0 {
		t.Errorf("regs = %+v, err = %v; alloc noise flagged", regs, err)
	}
}

// bytesPerOp is gated like allocsPerOp: absolute slack, so a zero-byte
// baseline stays meaningful, but a genuinely regressed run (one big retained
// buffer per run, invisible to the alloc count) is flagged.
func TestCompareRunsFlagsByteRegression(t *testing.T) {
	base := report(Result{Scenario: "a", TasksPerSec: 1000, NsPerOp: 100, BytesPerOp: 0})
	cur := report(Result{Scenario: "a", TasksPerSec: 1000, NsPerOp: 100, BytesPerOp: 1 << 20})
	regs, err := CompareRuns(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "bytesPerOp" {
		t.Fatalf("regressions = %+v, want one bytesPerOp entry", regs)
	}
	if !strings.Contains(regs[0].String(), "bytes/run") {
		t.Errorf("rendering %q does not name the unit", regs[0].String())
	}
	// Noise within the slack passes.
	noisy := report(Result{Scenario: "a", TasksPerSec: 1000, NsPerOp: 100, BytesPerOp: 4096})
	if regs, err := CompareRuns(base, noisy, 0.25); err != nil || len(regs) != 0 {
		t.Errorf("regs = %+v, err = %v; byte noise flagged", regs, err)
	}
}

// The streaming scenario must run, report sketch-based quantiles, and the
// guarded set must resolve by name without being part of the default run.
func TestStreamScenario(t *testing.T) {
	s, err := ScenarioByName("online-stream")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Stream {
		t.Fatal("online-stream is not marked Stream")
	}
	res, err := RunScenario(s, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs < 1 || res.TasksPerSec <= 0 || res.FlowP50 <= 0 || res.FlowP99 < res.FlowP50 {
		t.Errorf("implausible stream measurement %+v", res)
	}
	// Warmed stream runs reuse generator scratch, engine scratch and sinks;
	// the per-run allocation cost is a handful of setup objects, far below
	// one per event.
	if res.AllocsPerOp > float64(res.Events)/10 {
		t.Errorf("streaming run allocates %.1f/run over %d events", res.AllocsPerOp, res.Events)
	}

	if _, err := ScenarioByName("streaming-10m"); err != nil {
		t.Fatalf("guarded scenario not resolvable: %v", err)
	}
	for _, pinned := range ScenarioNames() {
		if pinned == "streaming-10m" {
			t.Error("guarded scenario leaked into the default set")
		}
	}
	bad := s
	bad.Shards = 4
	if _, err := RunScenario(bad, time.Millisecond); err == nil {
		t.Error("sharded streaming scenario accepted")
	}
	bad = s
	bad.Process = ProcessStatic
	if _, err := RunScenario(bad, time.Millisecond); err == nil {
		t.Error("static streaming scenario accepted")
	}
}

func TestCompareRunsMissingScenarioIsError(t *testing.T) {
	base := report(Result{Scenario: "a", TasksPerSec: 1000}, Result{Scenario: "b", TasksPerSec: 1000})
	cur := report(Result{Scenario: "a", TasksPerSec: 1000})
	if _, err := CompareRuns(base, cur, 0.25); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("err = %v, want missing-scenario error", err)
	}
	// Extra scenarios in the current report are fine.
	if _, err := CompareRuns(cur, base, 0.25); err != nil {
		t.Errorf("extra scenario rejected: %v", err)
	}
}

func TestCompareRunsZeroBaselineSkipsRelativeMetrics(t *testing.T) {
	base := report(Result{Scenario: "a"}) // all-zero placeholder
	cur := report(Result{Scenario: "a", TasksPerSec: 1, NsPerOp: 1e12, AllocsPerOp: 10})
	regs, err := CompareRuns(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("regs = %+v; zero baseline must disable relative comparisons", regs)
	}
}

func TestCompareRunsRejectsBadInputs(t *testing.T) {
	if _, err := CompareRuns(nil, report(), 0.25); err == nil {
		t.Errorf("nil baseline accepted")
	}
	if _, err := CompareRuns(report(), report(), 0); err == nil {
		t.Errorf("zero threshold accepted")
	}
}

// End-to-end smoke: every pinned scenario must run under a tiny budget and
// produce sane, internally consistent numbers.
func TestRunAllPinnedScenarios(t *testing.T) {
	rep, err := RunAll(nil, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaVersion || len(rep.Results) != len(Scenarios()) {
		t.Fatalf("report = %+v", rep)
	}
	for _, res := range rep.Results {
		if res.Runs < 1 || res.NsPerOp <= 0 || res.TasksPerSec <= 0 {
			t.Errorf("%s: implausible measurement %+v", res.Scenario, res)
		}
		if res.Events < res.Tasks {
			t.Errorf("%s: %d events for %d tasks", res.Scenario, res.Events, res.Tasks)
		}
		if res.FlowP99 < res.FlowP50 || res.FlowP50 <= 0 {
			t.Errorf("%s: flow quantiles p50=%g p99=%g", res.Scenario, res.FlowP50, res.FlowP99)
		}
	}
	// The report is sorted by scenario, so re-serializing is deterministic.
	for i := 1; i < len(rep.Results); i++ {
		if rep.Results[i-1].Scenario >= rep.Results[i].Scenario {
			t.Errorf("results not sorted: %q before %q", rep.Results[i-1].Scenario, rep.Results[i].Scenario)
		}
	}
}

// The single-shard scenarios ride the zero-allocation hot path: their
// allocs/op must stay far below one alloc per event. (The exact zero is
// asserted at the engine level; here a loose bound keeps the test robust to
// harness bookkeeping.)
func TestSingleShardScenariosNearZeroAllocs(t *testing.T) {
	for _, name := range []string{"online-poisson", "static-wdeq", "concave-speedup", "time-varying-capacity", "online-probe"} {
		s, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunScenario(s, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.AllocsPerOp > float64(res.Events)/10 {
			t.Errorf("%s: %.1f allocs/run over %d events — hot path is allocating again",
				name, res.AllocsPerOp, res.Events)
		}
	}
}

// The probed scenario is online-poisson plus an every-event EngineCollector:
// same workload, same seed. It must stay on the zero-allocation path, and its
// throughput must remain in the same league as the unprobed twin. The bound
// here is deliberately loose (2x) so CI machine noise cannot flake it; the
// real overhead (a few percent) is recorded in EXPERIMENTS.md and gated by
// the 25% baseline comparison like every other scenario.
func TestProbeScenario(t *testing.T) {
	probed, err := ScenarioByName("online-probe")
	if err != nil {
		t.Fatal(err)
	}
	if !probed.Probe {
		t.Fatal("online-probe is not marked Probe")
	}
	plain, err := ScenarioByName("online-poisson")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Seed != probed.Seed || plain.Rate != probed.Rate || plain.Tasks != probed.Tasks {
		t.Fatalf("online-probe drifted from online-poisson: %+v vs %+v", probed, plain)
	}

	probedRes, err := RunScenario(probed, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := RunScenario(plain, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Identical workload, so the event count must match exactly.
	if probedRes.Events != plainRes.Events {
		t.Errorf("probed run saw %d events, unprobed %d — workloads diverged", probedRes.Events, plainRes.Events)
	}
	if probedRes.AllocsPerOp > float64(probedRes.Events)/10 {
		t.Errorf("probed run allocates %.1f/run over %d events — observation hit the allocator", probedRes.AllocsPerOp, probedRes.Events)
	}
	if probedRes.TasksPerSec < plainRes.TasksPerSec/2 {
		t.Errorf("probe overhead out of bounds: %.0f tasks/sec probed vs %.0f unprobed", probedRes.TasksPerSec, plainRes.TasksPerSec)
	}

	// Probing is a single-engine affair.
	bad := probed
	bad.Shards = 4
	if _, err := RunScenario(bad, time.Millisecond); err == nil {
		t.Error("sharded probe scenario accepted")
	}
	bad = probed
	bad.Shards = 1
	bad.Router = "po2"
	if _, err := RunScenario(bad, time.Millisecond); err == nil {
		t.Error("routed probe scenario accepted")
	}
}

func TestScenarioByNameUnknown(t *testing.T) {
	if _, err := ScenarioByName("nope"); err == nil {
		t.Errorf("unknown scenario accepted")
	}
	if _, err := RunAll([]string{"nope"}, time.Millisecond); err == nil {
		t.Errorf("RunAll accepted an unknown scenario")
	}
}

// The parallel coordinator's acceptance number: on a box with at least eight
// usable cores, the batched eight-worker round-robin fleet must clear at
// least 3x the tasks/sec of the sequential eight-shard baseline. The test
// self-skips on smaller machines (and under -short or the race detector,
// where throughput is meaningless); CI runs it on a pinned multi-core
// runner, which is where the bound is actually enforced.
func TestParallelScalingRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling ratio needs real wall time; skipped with -short")
	}
	if raceEnabled {
		t.Skip("race-instrumented throughput is not a scaling measurement")
	}
	if cores := runtime.GOMAXPROCS(0); cores < 8 {
		t.Skipf("need >= 8 usable cores for the 8-worker scaling bound, have %d", cores)
	}
	seq, err := ScenarioByName("cluster-least-backlog-8")
	if err != nil {
		t.Fatal(err)
	}
	par, err := ScenarioByName("cluster-parallel-rr")
	if err != nil {
		t.Fatal(err)
	}
	if par.Workers != 8 || par.Shards != 8 || seq.Workers != 0 || seq.Shards != 8 {
		t.Fatalf("pinned scenarios drifted: seq=%+v par=%+v", seq, par)
	}
	const budget = 2 * time.Second
	seqRes, err := RunScenario(seq, budget)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := RunScenario(par, budget)
	if err != nil {
		t.Fatal(err)
	}
	ratio := parRes.TasksPerSec / seqRes.TasksPerSec
	t.Logf("sequential %.0f tasks/sec, parallel %.0f tasks/sec, ratio %.2fx",
		seqRes.TasksPerSec, parRes.TasksPerSec, ratio)
	if ratio < 3 {
		t.Errorf("8-worker batched coordinator is only %.2fx the sequential baseline, want >= 3x", ratio)
	}
}

// The window contract's acceptance number for a state-reading router: on
// the same fleet and load as the sequential exact-view run, routing from
// window-boundary views on 8 workers must not be slower — cluster-stale-lb
// swaps cluster-least-backlog-8's per-dispatch exact snapshots for one
// published view per 512-arrival batch (plus stream prefetch and the worker
// pool), so the ratio isolates what dropping the per-dispatch
// synchronization buys. Skips mirror TestParallelScalingRatio; CI's pinned
// multi-core runner enforces the bound.
func TestStaleBatchedScalingRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling ratio needs real wall time; skipped with -short")
	}
	if raceEnabled {
		t.Skip("race-instrumented throughput is not a scaling measurement")
	}
	if cores := runtime.GOMAXPROCS(0); cores < 8 {
		t.Skipf("need >= 8 usable cores for the 8-worker scaling bound, have %d", cores)
	}
	seq, err := ScenarioByName("cluster-least-backlog-8")
	if err != nil {
		t.Fatal(err)
	}
	stale, err := ScenarioByName("cluster-stale-lb")
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Stale || !stale.Prefetch || seq.Stale || seq.Workers >= 2 ||
		stale.Shards != seq.Shards || stale.Tasks != seq.Tasks ||
		stale.Seed != seq.Seed || stale.Rate != seq.Rate || stale.Router != seq.Router {
		t.Fatalf("pinned scenarios drifted: sequential=%+v stale=%+v", seq, stale)
	}
	const budget = 2 * time.Second
	seqRes, err := RunScenario(seq, budget)
	if err != nil {
		t.Fatal(err)
	}
	staleRes, err := RunScenario(stale, budget)
	if err != nil {
		t.Fatal(err)
	}
	ratio := staleRes.TasksPerSec / seqRes.TasksPerSec
	t.Logf("sequential %.0f tasks/sec, stale-batched %.0f tasks/sec, ratio %.2fx",
		seqRes.TasksPerSec, staleRes.TasksPerSec, ratio)
	if ratio < 1 {
		t.Errorf("stale-batched coordinator is %.2fx the sequential baseline, want >= 1x", ratio)
	}
}
