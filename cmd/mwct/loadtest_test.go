package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

func testSpec() loadtestSpec {
	return loadtestSpec{
		Policy:  "wdeq",
		Class:   "uniform",
		Process: "poisson",
		Rate:    8,
		Burst:   4,
		Tasks:   400,
		Shards:  4,
		P:       8,
		Seed:    1,
	}
}

// The determinism contract of the acceptance criteria: the same spec must
// render a byte-identical report.
func TestLoadtestReportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := loadtestReport(&a, testSpec()); err != nil {
		t.Fatal(err)
	}
	if err := loadtestReport(&b, testSpec()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("reports differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"loadtest: policy=WDEQ", "shard 3:", "aggregate: tasks=400", "flow: n=400", "tenant default:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report misses %q:\n%s", want, out)
		}
	}
}

func TestLoadtestReportTenantsAndPolicies(t *testing.T) {
	spec := testSpec()
	spec.Tenants = "gold:4:0.2,bronze:1:0.8"
	spec.Process = "bursty"
	for _, policy := range []string{"deq", "weight-greedy", "smith-ratio"} {
		spec.Policy = policy
		var buf bytes.Buffer
		if err := loadtestReport(&buf, spec); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !strings.Contains(buf.String(), "tenant gold:") || !strings.Contains(buf.String(), "tenant bronze:") {
			t.Errorf("%s: missing tenant rows:\n%s", policy, buf.String())
		}
	}
}

func TestLoadtestSpecValidation(t *testing.T) {
	for name, mutate := range map[string]func(*loadtestSpec){
		"bad policy":  func(s *loadtestSpec) { s.Policy = "nope" },
		"bad class":   func(s *loadtestSpec) { s.Class = "nope" },
		"bad process": func(s *loadtestSpec) { s.Process = "nope" },
		"bad tenants": func(s *loadtestSpec) { s.Tenants = "gold" },
		"zero tasks":  func(s *loadtestSpec) { s.Tasks = 0 },
		"zero shards": func(s *loadtestSpec) { s.Shards = 0 },
		"zero rate":   func(s *loadtestSpec) { s.Rate = 0 },
	} {
		spec := testSpec()
		mutate(&spec)
		if _, _, err := runLoadtestSpec(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestServeHealthz(t *testing.T) {
	srv := httptest.NewServer(newServeMux(false))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestServeSolve(t *testing.T) {
	srv := httptest.NewServer(newServeMux(false))
	defer srv.Close()
	body := `{"processors": 2, "tasks": [{"weight": 1, "volume": 2, "delta": 1}, {"weight": 2, "volume": 1, "delta": 2}]}`
	resp, err := http.Post(srv.URL+"/v1/solve?algo=wdeq", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	var out struct {
		Algorithm   string    `json:"algorithm"`
		Objective   float64   `json:"objective"`
		Completions []float64 `json:"completions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "wdeq" || out.Objective <= 0 || len(out.Completions) != 2 {
		t.Errorf("solve response = %+v", out)
	}

	bad, err := http.Post(srv.URL+"/v1/solve?algo=nope", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown algo status = %d, want 400", bad.StatusCode)
	}
}

func TestServeLoadtest(t *testing.T) {
	srv := httptest.NewServer(newServeMux(false))
	defer srv.Close()
	spec, _ := json.Marshal(testSpec())
	resp, err := http.Post(srv.URL+"/v1/loadtest", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loadtest status = %d", resp.StatusCode)
	}
	var out struct {
		Policy     string           `json:"policy"`
		TotalTasks int              `json:"totalTasks"`
		Throughput float64          `json:"throughput"`
		Shards     []map[string]any `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Policy != "WDEQ" || out.TotalTasks != 400 || out.Throughput <= 0 || len(out.Shards) != 4 {
		t.Errorf("loadtest response = %+v", out)
	}

	bad, err := http.Post(srv.URL+"/v1/loadtest", "application/json", strings.NewReader(`{"policy": "nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad policy status = %d, want 422", bad.StatusCode)
	}
}

// The -speedup selection must flow through the whole loadtest stack: every
// bundled model spec runs, appears in the report header, and stays
// deterministic; bad specs are rejected before any shard starts.
func TestLoadtestReportSpeedupModels(t *testing.T) {
	for _, spec := range []string{"", "linear", "powerlaw:0.7", "amdahl:0.15", "platform:8@0,4@20,8@40"} {
		s := testSpec()
		s.Speedup = spec
		if spec == "powerlaw:0.7" {
			s.CurveMin, s.CurveMax = 0.5, 0.9
		}
		var a, b bytes.Buffer
		if err := loadtestReport(&a, s); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if err := loadtestReport(&b, s); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%q: reports differ:\n%s\nvs\n%s", spec, a.String(), b.String())
		}
		want := "speedup=" + spec
		if spec == "" {
			want = "speedup=linear"
		}
		if !strings.Contains(a.String(), want) {
			t.Errorf("%q: header misses %q:\n%s", spec, want, a.String())
		}
	}
	bad := testSpec()
	bad.Speedup = "bogus"
	if _, _, err := runLoadtestSpec(bad); err == nil {
		t.Errorf("bogus speedup accepted")
	}
	badCurve := testSpec()
	badCurve.CurveMin, badCurve.CurveMax = 2, 1
	if _, _, err := runLoadtestSpec(badCurve); err == nil {
		t.Errorf("inverted curve range accepted")
	}
	// Curves outside the model's domain would be silently clamped into a
	// degenerate run; the spec must be rejected up front instead.
	clamped := testSpec()
	clamped.Speedup = "amdahl"
	clamped.CurveMin, clamped.CurveMax = 0.5, 1.5
	if _, _, err := runLoadtestSpec(clamped); err == nil {
		t.Errorf("out-of-domain curve range accepted for amdahl")
	}
}

// The streaming path must keep the determinism contract and agree with the
// slice path on every exactly-computed aggregate of the report.
func TestLoadtestReportStreamDeterministic(t *testing.T) {
	spec := testSpec()
	spec.Stream = true
	spec.Tenants = "gold:4:0.2,bronze:1:0.8"
	var a, b bytes.Buffer
	if err := loadtestReport(&a, spec); err != nil {
		t.Fatal(err)
	}
	if err := loadtestReport(&b, spec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("streaming reports differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"stream=true", "aggregate: tasks=400", "quantiles from sketch", "tenant gold:", "tenant bronze:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stream report misses %q:\n%s", want, out)
		}
	}

	// The per-shard task/event counts must match the slice path exactly.
	slice := spec
	slice.Stream = false
	var c bytes.Buffer
	if err := loadtestReport(&c, slice); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "shard ") {
			if !strings.Contains(c.String(), line) {
				t.Errorf("stream shard line %q absent from slice report:\n%s", line, c.String())
			}
		}
	}
}

// Recording a stream to JSONL and replaying it must drive the same workload
// through the engine: identical shard aggregates.
func TestLoadtestTraceRecordReplay(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")

	spec := testSpec()
	spec.Stream = true
	spec.Shards = 1
	spec.Tasks = 300

	// Record: run with a teeing wrapper, like `mwct loadtest -trace-out`.
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tee *teeStream
	res, _, err := runLoadtestSpecWrapped(spec, func(shard int, s engine.ArrivalStream) engine.ArrivalStream {
		tee = &teeStream{inner: s, tw: workload.NewTraceWriter(f)}
		return tee
	}, loadtestObservers{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tee.tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if tee.tw.Count() != spec.Tasks {
		t.Fatalf("recorded %d arrivals, want %d", tee.tw.Count(), spec.Tasks)
	}

	// Replay through the trace reader and compare the engine aggregates.
	in, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var buf bytes.Buffer
	n, err := traceReplayReport(&buf, spec, in)
	if err != nil {
		t.Fatal(err)
	}
	if n != spec.Tasks {
		t.Fatalf("replayed %d tasks, want %d", n, spec.Tasks)
	}
	shard := res.Shards[0].Result
	want := fmt.Sprintf("aggregate: tasks=%d events=%d max-alive=%d makespan=%.6g weighted-flow=%.6g",
		shard.Completed, shard.Events, shard.MaxAlive, shard.Makespan, shard.WeightedFlow)
	if !strings.Contains(buf.String(), want) {
		t.Errorf("replay report misses %q:\n%s", want, buf.String())
	}
}

// /v1/metrics must accumulate across load tests: runs, tasks and mean flow
// come from the cumulative aggregate sink.
func TestServeMetricsAccumulate(t *testing.T) {
	srv := httptest.NewServer(newServeMux(false))
	defer srv.Close()

	readMetrics := func() (runs int, tasks int, meanFlow float64) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %d", resp.StatusCode)
		}
		var out struct {
			Runs     int     `json:"runs"`
			Tasks    int     `json:"tasks"`
			MeanFlow float64 `json:"meanFlow"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Runs, out.Tasks, out.MeanFlow
	}

	if runs, tasks, _ := readMetrics(); runs != 0 || tasks != 0 {
		t.Fatalf("fresh server reports runs=%d tasks=%d", runs, tasks)
	}

	post := func(stream bool) {
		t.Helper()
		spec := testSpec()
		spec.Stream = stream
		body, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/v1/loadtest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("loadtest status = %d", resp.StatusCode)
		}
	}
	post(false)
	post(true) // one slice run, one streaming run: both must fold in
	runs, tasks, meanFlow := readMetrics()
	if runs != 2 || tasks != 800 || meanFlow <= 0 {
		t.Errorf("metrics after two runs: runs=%d tasks=%d meanFlow=%g", runs, tasks, meanFlow)
	}
}

// Cluster mode: every bundled router renders a byte-deterministic report
// carrying the router name and the imbalance line — the fixed-seed
// reproducibility criterion at the CLI surface.
func TestLoadtestReportClusterRouters(t *testing.T) {
	for _, router := range []string{"round-robin", "hash-tenant", "least-backlog", "po2"} {
		spec := testSpec()
		spec.Router = router
		spec.Tenants = "gold:4:0.25,silver:2:0.25,bronze:1:0.25,iron:1:0.25"
		spec.TenantSkew = 1.2
		spec.Rate = 40
		var a, b bytes.Buffer
		if err := loadtestReport(&a, spec); err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		if err := loadtestReport(&b, spec); err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: cluster reports differ:\n%s\nvs\n%s", router, a.String(), b.String())
		}
		out := a.String()
		for _, want := range []string{
			"router=" + router, "tenant-skew=1.2", "stream=true",
			"aggregate: tasks=400", "imbalance: completed-min=", "peak-backlog=",
			"quantiles from sketch",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: report misses %q:\n%s", router, want, out)
			}
		}
	}
	bad := testSpec()
	bad.Router = "nope"
	if _, _, err := runLoadtestSpec(bad); err == nil || !strings.Contains(err.Error(), "unknown router") {
		t.Errorf("unknown router error = %v", err)
	}
}

// One recorded trace must replay across a fleet of any shard count through
// the cluster coordinator, conserving the task total and staying
// byte-deterministic.
func TestLoadtestTraceReplayAcrossFleet(t *testing.T) {
	spec := testSpec()
	spec.Stream = true
	spec.Shards = 1
	spec.Tasks = 300

	var trace bytes.Buffer
	var tee *teeStream
	if _, _, err := runLoadtestSpecWrapped(spec, func(shard int, s engine.ArrivalStream) engine.ArrivalStream {
		tee = &teeStream{inner: s, tw: workload.NewTraceWriter(&trace)}
		return tee
	}, loadtestObservers{}); err != nil {
		t.Fatal(err)
	}
	if err := tee.tw.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 4} {
		replay := spec
		replay.Shards = shards
		replay.Router = "least-backlog"
		var a, b bytes.Buffer
		n, err := traceReplayReport(&a, replay, bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if n != spec.Tasks {
			t.Fatalf("shards=%d: replayed %d tasks, want %d", shards, n, spec.Tasks)
		}
		if _, err := traceReplayReport(&b, replay, bytes.NewReader(trace.Bytes())); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("shards=%d: fleet replays differ:\n%s\nvs\n%s", shards, a.String(), b.String())
		}
		out := a.String()
		for _, want := range []string{"trace-replay", "router=least-backlog", "shard 1:", "imbalance: completed-min="} {
			if !strings.Contains(out, want) {
				t.Errorf("shards=%d: replay report misses %q:\n%s", shards, want, out)
			}
		}
	}
}

// A legal trace whose second task's virtual key overflows to +Inf (volume
// 1e300 over weight 1e-10) can never finish that task: `mwct loadtest
// -trace-in` must exit with the engine's starvation error, not hang.
func TestLoadtestTraceInInfiniteKeyTerminates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "infinite-key.jsonl")
	trace := `{"task":{"weight":1,"volume":1,"delta":8},"release":0}
{"task":{"weight":1e-10,"volume":1e300,"delta":8},"release":0}
{"task":{"weight":1,"volume":2,"delta":8},"release":0.5}
`
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- runLoadtest([]string{"-shards", "1", "-trace-in", path, "-mem=false"}) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "starves all remaining tasks") {
			t.Fatalf("err = %v, want the starvation error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("loadtest -trace-in did not finish within 30s")
	}
}

// -tenant-skew must visibly shift traffic toward the head tenant.
func TestLoadtestTenantSkewShiftsTraffic(t *testing.T) {
	headTasks := func(skew float64) int {
		spec := testSpec()
		spec.Tenants = "a:1:1,b:1:1,c:1:1,d:1:1"
		spec.TenantSkew = skew
		res, _, err := runLoadtestSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range res.PerTenant {
			if tm.Tenant == 0 {
				return tm.Tasks
			}
		}
		return 0
	}
	flat, skewed := headTasks(0), headTasks(2)
	// Equal shares give tenant 0 ~25%; skew 2 gives 1/(sum 1/k^2) ~ 70%.
	if skewed <= flat+flat/2 {
		t.Errorf("head tenant tasks: flat=%d skew2=%d — skew did not concentrate traffic", flat, skewed)
	}
}

// The serve endpoint must accept cluster specs and report the router and
// imbalance fields.
func TestServeLoadtestCluster(t *testing.T) {
	srv := httptest.NewServer(newServeMux(false))
	defer srv.Close()
	spec := testSpec()
	spec.Router = "po2"
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/loadtest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster loadtest status = %d", resp.StatusCode)
	}
	var out struct {
		Router            string `json:"router"`
		TotalTasks        int    `json:"totalTasks"`
		MinShardCompleted *int   `json:"minShardCompleted"`
		MaxShardCompleted *int   `json:"maxShardCompleted"`
		PeakBacklog       *int   `json:"peakBacklog"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Router != "po2" || out.TotalTasks != 400 ||
		out.MinShardCompleted == nil || out.MaxShardCompleted == nil || out.PeakBacklog == nil {
		t.Errorf("cluster response = %+v", out)
	}
	if *out.MinShardCompleted+*out.MaxShardCompleted > 2**out.MaxShardCompleted {
		t.Errorf("imbalance fields inconsistent: min=%d max=%d", *out.MinShardCompleted, *out.MaxShardCompleted)
	}
}

// A speculative cluster spec reports its misprediction cost in the response
// and mirrors it into the server's rollback counter; the scheduling results
// themselves are byte-identical to the conservative run's.
func TestServeLoadtestSpeculate(t *testing.T) {
	srv := httptest.NewServer(newServeMux(false))
	defer srv.Close()
	spec := testSpec()
	spec.Router = "least-backlog"
	spec.Workers = 2
	spec.Speculate = true
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/loadtest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("speculative loadtest status = %d", resp.StatusCode)
	}
	var out struct {
		Speculate    *bool `json:"speculate"`
		Rollbacks    *int  `json:"rollbacks"`
		WastedEvents *int  `json:"wastedEvents"`
		TotalTasks   int   `json:"totalTasks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Speculate == nil || !*out.Speculate || out.Rollbacks == nil || out.WastedEvents == nil || out.TotalTasks != 400 {
		t.Fatalf("speculative response = %+v", out)
	}
	if *out.Rollbacks < 0 || *out.WastedEvents < 0 {
		t.Errorf("negative misprediction cost: rollbacks=%d wasted=%d", *out.Rollbacks, *out.WastedEvents)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), fmt.Sprintf("mwct_cluster_rollbacks_total %d", *out.Rollbacks)) {
		t.Errorf("rollback counter not mirrored into /metrics:\n%s", text)
	}
}

// Cluster mode dispatches one global stream, so fewer tasks than shards is
// legal (unused shards drain empty); the per-shard minimum only applies to
// the independent-streams split.
func TestLoadtestClusterFewerTasksThanShards(t *testing.T) {
	spec := testSpec()
	spec.Router = "round-robin"
	spec.Shards = 8
	spec.Tasks = 3
	res, _, err := runLoadtestSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTasks != 3 || len(res.Shards) != 8 {
		t.Errorf("total=%d shards=%d, want 3 tasks over 8 shards", res.TotalTasks, len(res.Shards))
	}
	spec.Router = ""
	if _, _, err := runLoadtestSpec(spec); err == nil {
		t.Error("independent-streams split accepted fewer tasks than shards")
	}
}

// The cmd-layer face of the parallel coordinator's contract: the rendered
// report — header aside — must be byte-identical at every worker count.
func TestLoadtestReportWorkersByteIdentical(t *testing.T) {
	spec := testSpec()
	spec.Tenants = "gold:4:0.5,bronze:1:0.5"
	spec.TenantSkew = 1.2
	spec.Router = "least-backlog"
	body := func(workers int) string {
		spec.Workers = workers
		var buf bytes.Buffer
		if err := loadtestReport(&buf, spec); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Drop the header line: it legitimately names the worker count.
		_, rest, ok := strings.Cut(buf.String(), "\n")
		if !ok {
			t.Fatalf("workers=%d: report has no body:\n%s", workers, buf.String())
		}
		return rest
	}
	sequential := body(0)
	for _, workers := range []int{1, 3, 8} {
		if got := body(workers); got != sequential {
			t.Errorf("workers=%d report diverges from sequential:\n%s\nvs\n%s", workers, got, sequential)
		}
	}
	// The speculative coordinator honors the same stdout contract: only the
	// header names the mode, the body is byte-identical.
	spec.Speculate = true
	for _, workers := range []int{2, 4} {
		if got := body(workers); got != sequential {
			t.Errorf("speculate workers=%d report diverges from sequential:\n%s\nvs\n%s", workers, got, sequential)
		}
	}
	spec.Workers = 4
	var buf bytes.Buffer
	if err := loadtestReport(&buf, spec); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	if !strings.Contains(header, "speculate=true") {
		t.Errorf("speculative header does not name the mode: %q", header)
	}
	spec.Speculate = false
	if !strings.Contains(sequential, "aggregate: tasks=400") {
		t.Errorf("report body looks wrong:\n%s", sequential)
	}
}

func TestLoadtestWorkersNeedRouter(t *testing.T) {
	spec := testSpec()
	spec.Workers = 4
	if _, _, err := runLoadtestSpec(spec); err == nil || !strings.Contains(err.Error(), "-router") {
		t.Errorf("workers without router: err = %v, want a -router hint", err)
	}
	spec = testSpec()
	spec.Speculate = true
	if _, _, err := runLoadtestSpec(spec); err == nil || !strings.Contains(err.Error(), "-router") {
		t.Errorf("speculate without router: err = %v, want a -router hint", err)
	}
}

// The serve-side default worker count applies only to routed specs that left
// "workers" unset, and never changes the response bytes.
func TestServeLoadtestDefaultWorkers(t *testing.T) {
	post := func(srv *httptest.Server, spec loadtestSpec) map[string]any {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/v1/loadtest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("loadtest status = %d", resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := httptest.NewServer(newServeMux(false))
	defer seq.Close()
	par := httptest.NewServer(newServeMuxWorkers(false, 4))
	defer par.Close()

	routed := testSpec()
	routed.Router = "round-robin"
	a, _ := json.Marshal(post(seq, routed))
	b, _ := json.Marshal(post(par, routed))
	if string(a) != string(b) {
		t.Errorf("default workers changed a routed response:\n%s\nvs\n%s", a, b)
	}

	// A router-less spec must not inherit the default (it would be rejected).
	plain := testSpec()
	if out := post(par, plain); out["totalTasks"] == nil {
		t.Errorf("unrouted spec on a -workers server failed: %v", out)
	}
}
