package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	malleable "github.com/malleable-sched/malleable"
	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/obs"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/workload"
)

// serveClients is the number of closed-loop clients: one per core of the
// two-core host the benchmark was sized on.
const serveClients = 2

// loadSpec is the subset of the server's POST /v1/loadtest schema the mix
// sends.
type loadSpec struct {
	Policy     string  `json:"policy"`
	Class      string  `json:"class"`
	Process    string  `json:"process"`
	Rate       float64 `json:"rate"`
	Tasks      int     `json:"tasks"`
	Shards     int     `json:"shards"`
	P          float64 `json:"p"`
	Seed       int64   `json:"seed"`
	Tenants    string  `json:"tenants"`
	TenantSkew float64 `json:"tenantSkew"`
	Router     string  `json:"router,omitempty"`
	Speedup    string  `json:"speedup,omitempty"`
	CurveMin   float64 `json:"curveMin,omitempty"`
	CurveMax   float64 `json:"curveMax,omitempty"`
	Stream     bool    `json:"stream"`
}

// request is one entry of the client cycle with the answer it must get.
type request struct {
	kind   string // fleet, concave, solve or metrics
	method string
	path   string
	body   []byte
	tasks  int     // tasks the response must report
	want   float64 // weighted flow of a load test, objective of a solve
	p99    float64 // flow p99 of a load test
	lower  float64 // lower bound a solve objective may not undercut
}

// serveCycle builds the fixed ten-request cycle every client runs, and
// computes each answer in-process through the library the server wraps.
func serveCycle(seed int64) ([]request, error) {
	fleet := func(i int) loadSpec {
		// Fleet rate 115.2 over eight shards of P=8 is a per-shard load of 0.9.
		return loadSpec{Policy: "wdeq", Class: "uniform", Process: "poisson", Rate: 115.2, Tasks: 4000,
			Shards: 8, P: capacity, Seed: engine.ShardSeed(seed, i), Tenants: t8, TenantSkew: 1.5,
			Router: "least-backlog", Stream: true}
	}
	concave := func(i int) loadSpec {
		return loadSpec{Policy: "wdeq", Class: "uniform", Process: "poisson", Rate: 8, Tasks: 4000,
			Shards: 4, P: capacity, Seed: engine.ShardSeed(seed, 100+i), Tenants: t8, TenantSkew: 1.5,
			Speedup: "powerlaw:0.75", CurveMin: 0.6, CurveMax: 0.95, Stream: true}
	}
	var reqs []request
	for i := range 4 {
		r, err := loadRequest("fleet", fleet(i))
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	for i := range 3 {
		r, err := loadRequest("concave", concave(i))
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	gen, err := workload.NewGenerator(workload.Uniform, 64, capacity, engine.ShardSeed(seed, 200))
	if err != nil {
		return nil, err
	}
	inst := gen.Next()
	sched, err := malleable.WDEQ(inst)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(inst)
	if err != nil {
		return nil, err
	}
	solve := request{kind: "solve", method: "POST", path: "/v1/solve?algo=wdeq", body: body, tasks: len(inst.Tasks),
		want: sched.WeightedCompletionTime(), lower: malleable.LowerBound(inst)}
	metricsReq := request{kind: "metrics", method: "GET", path: "/metrics"}
	f, c := reqs[:4], reqs[4:]
	return []request{f[0], c[0], f[1], solve, c[1], f[2], metricsReq, c[2], f[3], solve}, nil
}

// loadRequest encodes a load-test spec and computes its expected result the
// way the server does: a routed spec runs one global stream through the
// cluster coordinator, an unrouted one splits the tasks over independent
// shard streams.
func loadRequest(kind string, spec loadSpec) (request, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return request{}, err
	}
	policy, err := engine.PolicyByName(spec.Policy)
	if err != nil {
		return request{}, err
	}
	process, err := workload.ParseProcess(spec.Process)
	if err != nil {
		return request{}, err
	}
	tenants, err := workload.ParseTenants(spec.Tenants)
	if err != nil {
		return request{}, err
	}
	class, err := workload.ParseClass(spec.Class)
	if err != nil {
		return request{}, err
	}
	model, err := speedup.ParseModel(spec.Speedup)
	if err != nil {
		return request{}, err
	}
	cfg := workload.ArrivalConfig{Class: class, P: spec.P, Process: process, Rate: spec.Rate,
		Tenants: tenants, TenantSkew: spec.TenantSkew, CurveMin: spec.CurveMin, CurveMax: spec.CurveMax}
	opts := engine.Options{Model: model}
	var lr *engine.LoadResult
	if spec.Router != "" {
		router, err := cluster.RouterByName(spec.Router, spec.Seed)
		if err != nil {
			return request{}, err
		}
		stream, err := workload.NewStream(cfg, spec.Tasks, spec.Seed)
		if err != nil {
			return request{}, err
		}
		lr, err = cluster.Run(cluster.Config{Shards: spec.Shards, P: spec.P, Policy: policy,
			Router: router, Opts: opts}, stream)
		if err != nil {
			return request{}, err
		}
	} else {
		source := func(shard int, seed int64) (engine.ArrivalStream, error) {
			n := spec.Tasks / spec.Shards
			if shard < spec.Tasks%spec.Shards {
				n++
			}
			return workload.NewStream(cfg, n, seed)
		}
		lr, err = engine.RunShardsStreamWithOptions(spec.P, policy, source, spec.Shards, spec.Seed, opts)
		if err != nil {
			return request{}, err
		}
	}
	return request{kind: kind, method: "POST", path: "/v1/loadtest", body: body, tasks: spec.Tasks,
		want: lr.WeightedFlow, p99: lr.Flow.P99}, nil
}

// verify checks one response against the request's expected answer.
func (r *request) verify(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, body)
	}
	switch r.kind {
	case "fleet", "concave":
		var got struct {
			TotalTasks   int     `json:"totalTasks"`
			WeightedFlow float64 `json:"weightedFlow"`
			Flow         struct{ P99 float64 }
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		if got.TotalTasks != r.tasks || got.WeightedFlow != r.want || got.Flow.P99 != r.p99 {
			return fmt.Errorf("%s load test: got tasks %d, weighted flow %v, p99 %v; want %d, %v, %v",
				r.kind, got.TotalTasks, got.WeightedFlow, got.Flow.P99, r.tasks, r.want, r.p99)
		}
	case "solve":
		var got struct {
			Objective float64 `json:"objective"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		if got.Objective != r.want || got.Objective < r.lower*(1-1e-9) {
			return fmt.Errorf("solve objective %v; want %v, at least the lower bound %v", got.Objective, r.want, r.lower)
		}
	}
	return nil
}

// server is one `mwct serve` child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// control reads the server's profile and metrics outside the measured
// requests.
var control = &http.Client{Timeout: 30 * time.Second}

// errExited reports a server that exited before answering /healthz, as it
// does when another process took its port first.
var errExited = errors.New("serve exited before answering /healthz")

// startServer spawns the server on a free loopback port and returns once
// /healthz answers 200, trying another port if the first was taken between
// choosing it and the server binding it.
func startServer(bin string) (*server, error) {
	for range 3 {
		s, err := tryServer(bin)
		if !errors.Is(err, errExited) {
			return s, err
		}
	}
	return nil, fmt.Errorf("%s: %w three times", bin, errExited)
}

func tryServer(bin string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	// -pprof mounts /debug/pprof, read before and after the measurement for
	// the server's allocation and GC counters; no request of the mix uses it.
	cmd := exec.Command(bin, "serve", "-addr", addr, "-pprof")
	// Should the benchmark die, the kernel ends the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, errExited
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return s, nil
			}
		}
		// The server is up within milliseconds; poll finely enough that the
		// poll period does not dominate the measured set-up time.
		time.Sleep(100 * time.Microsecond)
	}
	s.stop()
	return nil, fmt.Errorf("%s serve did not answer /healthz within 20s", bin)
}

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// heapCounters reads the server's runtime counters from the text form of its
// heap profile.
func (s *server) heapCounters() (map[string]float64, error) {
	resp, err := control.Get(s.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		}
	}
	for _, k := range []string{"TotalAlloc", "Mallocs", "NumGC", "GCCPUFraction"} {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("server heap profile has no %s counter", k)
		}
	}
	return out, sc.Err()
}

// client is one keep-alive closed-loop client.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Timeout: time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) do(r *request) (int, []byte, error) {
	req, err := http.NewRequest(r.method, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// reqRecord is one measured request.
type reqRecord struct {
	kind   string
	t0, t1 time.Time
	traced bool
	bytes  int
	tasks  int
}

// runServe measures the serve-mix workload.
func runServe(bin string, seed int64, dur time.Duration, traced bool, reps int) (*runDetail, error) {
	d := &runDetail{Workload: "serve-mix", Seed: seed, Traced: traced}
	cycle, err := serveCycle(seed)
	if err != nil {
		return nil, err
	}
	sent := map[string]int{}
	loadTasks := 0
	count := func(r *request) {
		sent[strings.SplitN(r.path, "?", 2)[0]]++
		if r.kind == "fleet" || r.kind == "concave" {
			loadTasks += r.tasks
		}
	}
	// Set-up runs from spawning the server through its first 200 on /healthz
	// and one warm-up pass over the cycle, so start-up work and work done
	// lazily on first requests both count. The last server is measured.
	var srv *server
	for i := range reps {
		clear(sent)
		loadTasks = 0
		t0 := time.Now()
		if srv, err = startServer(bin); err != nil {
			return nil, err
		}
		sent["/healthz"] = 1
		warm := newClient(srv.base)
		for j := range cycle {
			r := &cycle[j]
			count(r)
			status, body, err := warm.do(r)
			if err == nil {
				err = r.verify(status, body)
			}
			if err != nil {
				srv.stop()
				return nil, err
			}
		}
		d.SetupS = append(d.SetupS, time.Since(t0).Seconds())
		warm.hc.CloseIdleConnections()
		if i < reps-1 {
			srv.stop()
		}
	}
	defer srv.stop()

	heapBefore, err := srv.heapCounters()
	if err != nil {
		return nil, err
	}
	records := make([][]reqRecord, serveClients)
	failures := make([][]error, serveClients)
	counts := make([][]int, serveClients)
	cycles := make([]int, serveClients)
	clients := make([]*client, serveClients)
	for k := range clients {
		clients[k] = newClient(srv.base)
		defer clients[k].hc.CloseIdleConnections()
		counts[k] = make([]int, len(cycle))
	}
	// The clients run in chunks of about a second; between chunks, with the
	// server idle, the reference kernel times the host's speed.
	ref, err := newRefKernel(1)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	spans := newTracer()
	var wall time.Duration
	var serverCPU, clientCPU float64
	var rss []float64
	for chunk := 0; chunk == 0 || wall < dur; chunk++ {
		for range 8 {
			ref.measure()
		}
		minCycles := 1
		if traced && chunk == 0 {
			minCycles = 2
		}
		length := min(time.Second, dur-wall)
		cpu0, self0 := procCPU(srv.cmd.Process.Pid), procCPU(os.Getpid())
		start := time.Now()
		var wg sync.WaitGroup
		for k, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Clients run whole cycles, so every kind keeps its share of
				// the mix; a traced run alternates untraced and traced
				// cycles, so drift lands on both alike. The second client's
				// cycle is rotated by half, so the two do not send the same
				// kind in lockstep.
				for n := 0; n < minCycles || time.Since(start) < length; n++ {
					inTrace := traced && cycles[k]%2 == 1
					cycles[k]++
					for i := range cycle {
						j := (i + k*len(cycle)/2) % len(cycle)
						r := &cycle[j]
						t0 := time.Now()
						status, body, err := c.do(r)
						t1 := time.Now()
						counts[k][j]++
						if err == nil {
							err = r.verify(status, body)
						}
						if err != nil {
							failures[k] = append(failures[k], err)
							continue
						}
						records[k] = append(records[k], reqRecord{kind: r.kind, t0: t0, t1: t1, traced: inTrace, bytes: len(body), tasks: r.tasks})
					}
				}
			}()
		}
		wg.Wait()
		wall += time.Since(start)
		serverCPU += procCPU(srv.cmd.Process.Pid) - cpu0
		clientCPU += procCPU(os.Getpid()) - self0
		rss = append(rss, procRSS(srv.cmd.Process.Pid))
	}
	d.Speed = ref.speed()
	heapAfter, err := srv.heapCounters()
	if err != nil {
		return nil, err
	}
	d.RSSMiB = median(rss)
	for k := range serveClients {
		for j, n := range counts[k] {
			for range n {
				count(&cycle[j])
			}
		}
	}

	// Pool the clients' records.
	var all []reqRecord
	for k := range serveClients {
		all = append(all, records[k]...)
		d.Attempted += len(records[k]) + len(failures[k])
		d.Failed += len(failures[k])
		for _, err := range failures[k] {
			d.Checks = append(d.Checks, newCheck("serve response", err))
		}
	}
	if len(all) == 0 {
		return nil, errors.New("serve-mix: no request succeeded")
	}
	byKind := map[string][]float64{}
	var tracedMS, untracedMS []float64
	var metricsBytes []float64
	tasks := 0
	for _, r := range all {
		ms := float64(r.t1.Sub(r.t0)) / 1e6
		tasks += r.tasks
		if r.traced {
			tracedMS = append(tracedMS, ms)
			byKind[r.kind] = append(byKind[r.kind], ms)
		} else {
			untracedMS = append(untracedMS, ms)
		}
		if r.kind == "metrics" {
			metricsBytes = append(metricsBytes, float64(r.bytes))
		}
	}
	d.OpsMS = untracedMS
	d.Tasks = float64(tasks)
	d.WallS = wall.Seconds()
	d.AllocBytes = heapAfter["TotalAlloc"] - heapBefore["TotalAlloc"]
	d.Digest = fmt.Sprintf("%v", cycleDigest(cycle))

	// The final scrape must parse, and count exactly what was sent.
	d.Checks = append(d.Checks, newCheck("final /metrics scrape parses and counts what the clients sent",
		finalScrape(srv.base, sent, loadTasks)))
	if !traced {
		return d, nil
	}

	lm := map[string]float64{}
	for _, m := range perLayer {
		lm[m.name] = 0
	}
	for _, kind := range []string{"fleet", "concave", "solve", "metrics"} {
		lm["http."+kind+"_ms_p50"] = median(byKind[kind])
	}
	lm["http.metrics_bytes"] = median(metricsBytes)
	cpus := wall.Seconds() * float64(runtime.NumCPU())
	lm["http.server_cpu_share"] = serverCPU / cpus
	lm["http.client_cpu_share"] = clientCPU / cpus
	lm["runtime.gc_per_ktask"] = (heapAfter["NumGC"] - heapBefore["NumGC"]) / (float64(tasks) / 1000)
	lm["runtime.gc_cpu_share"] = heapAfter["GCCPUFraction"]
	lm["runtime.allocs_per_task"] = (heapAfter["Mallocs"] - heapBefore["Mallocs"]) / float64(tasks)
	// Both halves ran the same requests in a closed loop, so their rates
	// compare as the inverse of their mean latencies.
	lm["trace.overhead"] = mean(tracedMS)/mean(untracedMS) - 1
	wf, n := 0.0, 0
	for _, r := range cycle {
		if r.kind == "fleet" || r.kind == "concave" {
			wf += r.want
			n += r.tasks
		}
	}
	lm["sim.weighted_flow_per_task"] = wf / float64(n)
	lm["sim.flow_p99"] = cycle[0].p99
	d.Layers = lm

	slices.SortFunc(all, func(a, b reqRecord) int { return a.t0.Compare(b.t0) })
	for _, r := range all {
		if r.traced {
			spans.record("serve-mix", r.kind, r.t0, r.t1)
		}
	}
	d.tracer = spans
	return d, nil
}

// cycleDigest lists the expected answers of the cycle, the outputs every
// round of the same seed must reproduce.
func cycleDigest(cycle []request) []float64 {
	var out []float64
	for _, r := range cycle {
		out = append(out, r.want, r.p99)
	}
	return out
}

// finalScrape fetches /metrics once more, parses it with the strict
// exposition parser, and compares the request and task counters with what
// the clients sent (the scrape counts itself).
func finalScrape(base string, sent map[string]int, loadTasks int) error {
	resp, err := control.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sent["/metrics"]++
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return err
	}
	got := map[string]float64{}
	if f := fams["mwct_http_requests_total"]; f != nil {
		for _, s := range f.Samples {
			got[s.Labels["path"]] = s.Value
		}
	}
	for path, n := range sent {
		if got[path] != float64(n) {
			return fmt.Errorf("mwct_http_requests_total{path=%q} = %v, clients sent %d", path, got[path], n)
		}
	}
	f := fams["mwct_loadtest_tasks_total"]
	if f == nil || len(f.Samples) != 1 || f.Samples[0].Value != float64(loadTasks) {
		return fmt.Errorf("mwct_loadtest_tasks_total does not read %d", loadTasks)
	}
	return nil
}

// procCPU returns the user plus system CPU seconds of a process, read from
// /proc/<pid>/stat (clock ticks of 1/100 s), or NaN when unreadable.
func procCPU(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return math.NaN()
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return math.NaN()
	}
	// utime and stime are fields 14 and 15 of the full line.
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return math.NaN()
	}
	return (ut + st) / 100
}
