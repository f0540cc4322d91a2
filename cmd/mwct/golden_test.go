package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenDir holds reports rendered by a known-good mwct binary: for each case
// of goldenLoadtestCases, <name>.out is its stdout, <name>.err its stderr on
// an error exit, and <name>.timeline.jsonl / <name>.trace.jsonl the files its
// -timeline / -trace-out flags wrote. serve-<name>.json is the body of a
// POST /v1/loadtest response. There is no update flag: a diff here means the
// run path changed a byte of output.
const goldenDir = "testdata/golden"

// goldenLoadtestCases is the report matrix: every topology (exact slice
// shards, stream shards, the observed one-shard stream, the routed cluster on
// every router, stale+prefetch, workers), a concave model with per-task
// curves, a clairvoyant policy, the three trace-replay shapes and two error
// exits. In args, @timeline and @trace name the case's -timeline and
// -trace-out files, and @replay the recorded trace of the stream-one-trace
// case.
var goldenLoadtestCases = []struct {
	name string
	args []string
}{
	{"slice-shards", []string{"-n", "4000"}},
	{"slice-tenants-bursty-deq", []string{"-n", "3000", "-policy", "deq", "-process", "bursty", "-tenants", "gold:4:0.3,bronze:1:0.7"}},
	{"stream-shards", []string{"-n", "4000", "-stream"}},
	{"stream-one-trace", []string{"-n", "800", "-shards", "1", "-stream", "-rate", "6", "-trace-out", "@trace"}},
	{"stream-one-observed", []string{"-n", "400", "-shards", "1", "-stream", "-rate", "6", "-timeline", "@timeline", "-timeline-interval", "2", "-trace-out", "@trace"}},
	{"router-round-robin", []string{"-n", "4000", "-router", "round-robin", "-rate", "28"}},
	{"router-hash-tenant", []string{"-n", "4000", "-router", "hash-tenant", "-rate", "28", "-tenants", "a:1:0.5,b:2:0.3,c:4:0.2"}},
	{"router-least-backlog-skew", []string{"-n", "4000", "-router", "least-backlog", "-rate", "28", "-tenants", "t0:4:1,t1:2:1,t2:1:1,t3:1:1", "-tenant-skew", "1.5"}},
	{"router-po2", []string{"-n", "4000", "-router", "po2", "-rate", "28", "-seed", "7"}},
	{"router-stale-prefetch-workers", []string{"-n", "4000", "-router", "least-backlog", "-rate", "28", "-stale", "-prefetch", "-workers", "2"}},
	{"router-round-robin-workers", []string{"-n", "4000", "-router", "round-robin", "-rate", "28", "-workers", "2", "-prefetch"}},
	{"router-observed", []string{"-n", "600", "-router", "po2", "-rate", "28", "-timeline", "@timeline", "-trace-out", "@trace"}},
	{"concave-curves", []string{"-n", "4000", "-stream", "-speedup", "powerlaw:0.75", "-curve-min", "0.6", "-curve-max", "0.95"}},
	{"smith-ratio", []string{"-n", "3000", "-policy", "smith-ratio", "-speedup", "amdahl:0.1"}},
	{"replay-single", []string{"-trace-in", "@replay"}},
	{"replay-shards", []string{"-trace-in", "@replay", "-shards", "3"}},
	{"replay-router", []string{"-trace-in", "@replay", "-router", "least-backlog", "-shards", "2", "-speedup", "powerlaw:0.8"}},
	{"error-workers-no-router", []string{"-n", "400", "-workers", "2"}},
	{"error-stale-no-router", []string{"-n", "400", "-stale"}},
}

// goldenServeBodies are the POST /v1/loadtest bodies whose JSON responses
// are pinned.
var goldenServeBodies = []struct{ name, body string }{
	{"stream", `{"tasks": 2000, "shards": 4, "stream": true, "tenants": "gold:4:0.2,bronze:1:0.8"}`},
	{"router", `{"tasks": 2000, "shards": 4, "rate": 28, "router": "least-backlog", "stale": true, "workers": 2}`},
}

// readGolden returns the named golden file.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireGolden fails the test with the first differing line when got is not
// byte-identical to the named golden file.
func requireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want := readGolden(t, name)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs:\n got  %q\n want %q", name, i+1, g, w)
		}
	}
	t.Fatalf("%s: %d bytes, want %d", name, len(got), len(want))
}

// The loadtest reports, side files and serve responses are byte-identical to
// the ones the golden files pin.
func TestLoadtestReportGolden(t *testing.T) {
	for _, tc := range goldenLoadtestCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			paths := map[string]string{
				"@timeline": filepath.Join(dir, "timeline.jsonl"),
				"@trace":    filepath.Join(dir, "trace.jsonl"),
				"@replay":   filepath.Join(goldenDir, "stream-one-trace.trace.jsonl"),
			}
			args := []string{"-mem=false"}
			var sideFiles []string
			for _, a := range tc.args {
				if p, ok := paths[a]; ok {
					if a != "@replay" {
						sideFiles = append(sideFiles, a[1:])
					}
					a = p
				}
				args = append(args, a)
			}
			stdoutPath := filepath.Join(dir, "stdout")
			f, err := os.Create(stdoutPath)
			if err != nil {
				t.Fatal(err)
			}
			old := os.Stdout
			os.Stdout = f
			runErr := runLoadtest(args)
			os.Stdout = old
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			stdout, err := os.ReadFile(stdoutPath)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(tc.name, "error-") {
				if runErr == nil {
					t.Fatalf("run succeeded, want the error of %s.err", tc.name)
				}
				requireGolden(t, tc.name+".err", []byte("mwct: "+runErr.Error()+"\n"))
				return
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
			requireGolden(t, tc.name+".out", stdout)
			for _, side := range sideFiles {
				got, err := os.ReadFile(paths["@"+side])
				if err != nil {
					t.Fatal(err)
				}
				requireGolden(t, tc.name+"."+side+".jsonl", got)
			}
		})
	}
	for _, tc := range goldenServeBodies {
		t.Run("serve-"+tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/loadtest", strings.NewReader(tc.body))
			handleLoadtest(rec, req, newServeMetrics(), 0)
			if rec.Code != 200 {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
			requireGolden(t, "serve-"+tc.name+".json", rec.Body.Bytes())
		})
	}
}
