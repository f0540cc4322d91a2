// Command bench is the benchmark of record of the malleable scheduling
// simulator. It drives the library's public entry points (internal/workload,
// internal/engine, internal/cluster) and a `mwct serve` child process through
// four workloads, checks every output, and reports end-to-end and per-layer
// metrics. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// workloadNames lists the workloads in their reporting order.
var workloadNames = []string{"solo-backlog", "fleet-backlog", "fleet-replay", "serve-mix"}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 7

// check is one correctness check.
type check struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

func newCheck(name string, err error) check {
	if err != nil {
		return check{Name: name, Error: err.Error()}
	}
	return check{Name: name, OK: true}
}

// boolErr turns a condition into an error carrying msg when it is false.
func boolErr(ok bool, msg string) error {
	if ok {
		return nil
	}
	return errors.New(msg)
}

// runDetail is everything one run measured: the raw samples the end-to-end
// metrics are computed from (so several runs can be pooled), the per-layer
// metrics of a traced run, and the checks.
type runDetail struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	SetupS     []float64          `json:"setupS"`
	OpsMS      []float64          `json:"opsMS"`
	Tasks      float64            `json:"tasks"`
	WallS      float64            `json:"wallS"`
	AllocBytes float64            `json:"allocBytes"`
	RSSMiB     float64            `json:"rssMiB"`
	Digest     string             `json:"digest"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Checks     []check            `json:"checks"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	// Speed is the host speed the reference kernel measured over the run;
	// the raw times above are scaled by it when metrics are reported.
	Speed float64 `json:"speed"`

	tracer *tracer
}

// endToEndMetrics computes the end-to-end metrics from a run's raw samples,
// scaled to host speed 1.
func (d *runDetail) endToEndMetrics() map[string]float64 {
	ops := sortedCopy(d.OpsMS)
	p50 := percentile(ops, 50)
	// A simulated workload is a closed loop with one caller whose operations
	// each complete the same tasks, so its throughput is those tasks over the
	// median operation, which a burst of host noise in a few operations does
	// not move. serve-mix's two clients overlap: tasks over wall time.
	tps := d.Tasks / d.WallS
	if d.Workload != "serve-mix" {
		tps = d.Tasks / float64(len(ops)) / (p50 / 1000)
	}
	return d.atSpeed(map[string]float64{
		"tasks_per_s":          tps,
		"op_ms_p50":            p50,
		"alloc_bytes_per_task": d.AllocBytes / d.Tasks,
		"rss_mib":              d.RSSMiB,
		"setup_s":              median(d.SetupS),
	})
}

// layerMetrics returns the per-layer metrics of a traced run, scaled to host
// speed 1.
func (d *runDetail) layerMetrics() map[string]float64 {
	return d.atSpeed(maps.Clone(d.Layers))
}

func (d *runDetail) atSpeed(m map[string]float64) map[string]float64 {
	for name, v := range m {
		m[name] = atSpeed(v, unitOf(name), d.Speed)
	}
	return m
}

// failedChecks counts the checks that did not pass.
func (d *runDetail) failedChecks() int {
	n := 0
	for _, c := range d.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload for dur.
func runWorkload(name, mwct string, seed int64, dur time.Duration, traced bool) (*runDetail, error) {
	if name == "serve-mix" {
		return runServe(mwct, seed, dur, traced, setupReps)
	}
	if _, ok := simSpecs[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return runSim(name, seed, dur, traced, setupReps)
}

// toResult builds the printed result of a run: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. Attempted counts the
// operations plus the checks; failed counts failed operations, failed checks
// and metrics that came out as no number.
func toResult(d *runDetail) result {
	values := d.layerMetrics()
	if !d.Traced {
		values = d.endToEndMetrics()
	}
	r := result{Attempted: d.Attempted + len(d.Checks), Failed: d.Failed + d.failedChecks(),
		Metrics: map[string]metricValue{}}
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Failed++
			v = 0
		}
		r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	r.Correct = r.Failed == 0
	return r
}

// tail summarizes operation latencies by their count, median and highest
// percentile with ten operations beyond it.
func tail(opsMS []float64) string {
	ops := sortedCopy(opsMS)
	out := fmt.Sprintf("ops=%d p50=%.4gms", len(ops), percentile(ops, 50))
	if p := highestPercentile(len(ops)); p > 50 {
		out += fmt.Sprintf(" p%g=%.4gms", p, percentile(ops, p))
	}
	return out
}

// printMetrics writes one line per metric, by name with its unit, in table
// order.
func printMetrics(w io.Writer, metrics map[string]metricValue) {
	var names []string
	for name := range metrics {
		names = append(names, name)
	}
	order := map[string]int{}
	for i, m := range slices.Concat(endToEnd, perLayer) {
		order[m.name] = i + 1
	}
	// Names outside the tables, such as failed_ratio, come first.
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

// printChecks writes every failed check.
func printChecks(w io.Writer, checks []check) {
	for _, c := range checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Error)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "run one workload (solo-backlog, fleet-backlog, fleet-replay, serve-mix); empty runs the whole benchmark")
	seed := fs.Int64("seed", 1, "seed the inputs and checks are drawn from (solo-backlog and fleet-backlog time a fixed stream and draw only their checks)")
	seconds := fs.Float64("seconds", 10, "measured seconds of a one-workload run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
	mwct := fs.String("mwct", ".bench_build/bin/mwct", "mwct binary that serve-mix runs as its server")
	out := fs.String("out", ".bench_build/out", "directory for trace.jsonl and result files")
	detail := fs.String("detail", "", "also write the run's raw samples as JSON to this file")
	agree := fs.Bool("agree", false, "compare the two result files given as arguments against the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -agree needs two result files")
			return 2
		}
		return runAgree(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *wl == "" {
		return runFull(*seed, *mwct, *out, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	d, err := runWorkload(*wl, *mwct, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *wl, err)
		return 1
	}
	if d.tracer != nil {
		if err := d.tracer.write(filepath.Join(*out, "trace-"+*wl+".jsonl")); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *detail != "" {
		raw, err := json.Marshal(d)
		if err == nil {
			err = os.WriteFile(*detail, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	res := toResult(d)
	fmt.Fprintf(stdout, "%s seed=%d trace=%d %s host-speed=%.3f\n", *wl, *seed, *trace, tail(d.OpsMS), d.Speed)
	printMetrics(stdout, res.Metrics)
	printChecks(stdout, d.Checks)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
