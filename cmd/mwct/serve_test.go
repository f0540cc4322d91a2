package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/malleable-sched/malleable/internal/obs"
)

// GET /metrics serves a valid Prometheus text exposition with the declared
// content type, and the loadtest counters advance after a served run.
func TestServePrometheusMetrics(t *testing.T) {
	srv := httptest.NewServer(newServeMux(false))
	defer srv.Close()

	spec, _ := json.Marshal(testSpec())
	post, err := http.Post(srv.URL+"/v1/loadtest", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("loadtest status = %d", post.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("metrics content type = %q, want %q", ct, obs.PrometheusContentType)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	runs := fams["mwct_loadtest_runs_total"]
	if runs == nil || len(runs.Samples) != 1 || runs.Samples[0].Value != 1 {
		t.Fatalf("mwct_loadtest_runs_total: %+v", runs)
	}
	tasks := fams["mwct_loadtest_tasks_total"]
	if tasks == nil || tasks.Samples[0].Value <= 0 {
		t.Fatalf("mwct_loadtest_tasks_total: %+v", tasks)
	}
	reqs := fams["mwct_http_requests_total"]
	if reqs == nil || reqs.Type != "counter" {
		t.Fatalf("mwct_http_requests_total: %+v", reqs)
	}
	seen := map[string]bool{}
	for _, s := range reqs.Samples {
		seen[s.Labels["path"]] = true
	}
	if !seen["/v1/loadtest"] || !seen["/metrics"] {
		t.Fatalf("request counter paths = %v", seen)
	}
}

// The pprof endpoints exist only behind the flag.
func TestServePprofGated(t *testing.T) {
	off := httptest.NewServer(newServeMux(false))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without -pprof")
	}

	on := httptest.NewServer(newServeMux(true))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status with -pprof = %d", resp.StatusCode)
	}
}

// /v1/metrics declares its JSON content type explicitly.
func TestServeMetricsContentType(t *testing.T) {
	srv := httptest.NewServer(newServeMux(false))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q, want application/json", ct)
	}
}

// Concurrent load tests and metrics reads (JSON and Prometheus) are safe:
// the JSON handler snapshots under the lock and writes after releasing it,
// the Prometheus handler reads atomics only. Run under -race this covers
// the record/read interleaving; functionally, the final counters account
// for every run.
func TestServeMetricsConcurrent(t *testing.T) {
	srv := httptest.NewServer(newServeMux(false))
	defer srv.Close()
	spec, _ := json.Marshal(testSpec())

	const loadtests, readers = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, loadtests+readers)
	for i := 0; i < loadtests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/loadtest", "application/json", bytes.NewReader(spec))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("loadtest status %d", resp.StatusCode)
			}
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := "/v1/metrics"
			if i%2 == 1 {
				path = "/metrics"
			}
			for j := 0; j < 5; j++ {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					errs <- err
					return
				}
				if path == "/metrics" {
					if _, err := obs.ParseExposition(resp.Body); err != nil {
						errs <- fmt.Errorf("mid-run exposition invalid: %w", err)
					}
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s status %d", path, resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Runs  int `json:"runs"`
		Tasks int `json:"tasks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Runs != loadtests || out.Tasks <= 0 {
		t.Fatalf("final counters runs=%d tasks=%d, want runs=%d", out.Runs, out.Tasks, loadtests)
	}
	prom, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	fams, err := obs.ParseExposition(prom.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := fams["mwct_loadtest_runs_total"].Samples[0].Value; got != loadtests {
		t.Fatalf("prometheus runs counter = %g, want %d", got, loadtests)
	}
}

// settleGoroutines polls runtime.NumGoroutine until it drops to want or a
// bounded retry budget (about two seconds) runs out, and returns the last
// count. Goroutines that were told to stop may need a few scheduler turns to
// return, so a single read right after a run would flake.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 400 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// FuzzServeLoadtestSpec posts arbitrary bodies to POST /v1/loadtest: the
// handler must answer 200, 400 or 422 with a valid JSON body, never panic,
// and leave no goroutine behind. Bodies that decode to more than 512 tasks
// or 8 shards are skipped so every run stays small; fields a body omits fall
// back to the handler's defaults (1000 tasks over 4 shards), which are small
// too. The seeds are the two serve-mix bodies of the benchmark at the fuzz
// size limit, the empty spec, and hostile values.
func FuzzServeLoadtestSpec(f *testing.F) {
	const t8 = "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1"
	for _, body := range []string{
		`{"policy":"wdeq","class":"uniform","process":"poisson","rate":115.2,"tasks":512,"shards":8,"p":8,"seed":3,"tenants":"` + t8 + `","tenantSkew":1.5,"router":"least-backlog","stream":true}`,
		`{"policy":"wdeq","class":"uniform","process":"poisson","rate":8,"tasks":512,"shards":4,"p":8,"seed":5,"tenants":"` + t8 + `","tenantSkew":1.5,"speedup":"powerlaw:0.75","curveMin":0.6,"curveMax":0.95,"stream":true}`,
		`{}`,
		`{"rate":NaN}`,
		`{"rate":-1,"tasks":64}`,
		`{"rate":1e308,"tasks":64}`,
		`{"p":-8,"tasks":64}`,
		`{"p":1e308,"tasks":64}`,
		`{"tasks":64,"speedup":"platform:nan@0"}`,
		`{"tasks":64,"workers":2}`,
		`{"tasks":64,"router":"round-robin","stale":true}`,
		`{"tasks":64,"stream":true,"speedup":"powerlaw:0.75","curveMin":0.95,"curveMax":0.6}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec loadtestSpec
		if json.Unmarshal(body, &spec) == nil && (spec.Tasks > 512 || spec.Shards > 8) {
			t.Skip()
		}
		before := runtime.NumGoroutine()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/loadtest", bytes.NewReader(body))
		handleLoadtest(rec, req, newServeMetrics(), 0)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d for body %q: invalid JSON %q", rec.Code, body, rec.Body.Bytes())
		}
		if after := settleGoroutines(before); after > before {
			t.Fatalf("goroutines: %d before the request, %d after it", before, after)
		}
	})
}
