package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// The whole benchmark runs every workload in rounds of short slices, each in
// a fresh child process, with the workload order rotated every round: drift
// of the shared host over minutes then lands on every workload alike, and no
// workload inherits another's heap. A traced slice per workload follows.
const (
	rounds        = 4
	sliceSeconds  = 5
	tracedSeconds = 4
)

// workloadResult is one workload's pooled outcome in a result file.
type workloadResult struct {
	Metrics map[string]metricValue `json:"metrics"`
	// Latency summarizes the pooled untraced operations: their count, median
	// and highest percentile with ten of them beyond.
	Latency string `json:"latency"`
	// Spread is each end-to-end metric's interquartile range over the
	// rounds as a share of its median: the run-to-run noise of the host.
	Spread       map[string]float64 `json:"spread"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FailedChecks []check            `json:"failedChecks,omitempty"`
}

// fullResult is the result file of a whole-benchmark run, the input of
// -agree.
type fullResult struct {
	Host         host                       `json:"host"`
	Seed         int64                      `json:"seed"`
	Rounds       int                        `json:"rounds"`
	SliceSeconds int                        `json:"sliceSeconds"`
	Workloads    map[string]*workloadResult `json:"workloads"`
}

// runFull runs the whole benchmark, prints every metric of every workload,
// and writes the result file.
func runFull(seed int64, mwct, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	child := func(w string, seconds, trace int, tag string) (*runDetail, error) {
		path := filepath.Join(out, "detail-"+w+"-"+tag+".json")
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace),
			"-mwct", mwct, "-out", out, "-detail", path)
		cmd.Stderr = stderr
		// A child whose checks fail exits 1 but still leaves its detail file.
		runErr := cmd.Run()
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %v (%v)", w, tag, runErr, err)
		}
		var d runDetail
		if err := json.Unmarshal(raw, &d); err != nil {
			return nil, err
		}
		return &d, nil
	}

	runs := map[string][]*runDetail{}
	traced := map[string]*runDetail{}
	errs := map[string][]check{}
	for r := range rounds {
		for k := range workloadNames {
			w := workloadNames[(k+r)%len(workloadNames)]
			fmt.Fprintf(stderr, "bench: round %d/%d %s\n", r+1, rounds, w)
			d, err := child(w, sliceSeconds, 0, fmt.Sprintf("r%d", r+1))
			if err != nil {
				errs[w] = append(errs[w], newCheck("round "+strconv.Itoa(r+1)+" runs", err))
				continue
			}
			runs[w] = append(runs[w], d)
		}
	}
	for _, w := range workloadNames {
		fmt.Fprintf(stderr, "bench: traced %s\n", w)
		d, err := child(w, tracedSeconds, 1, "traced")
		if err != nil {
			errs[w] = append(errs[w], newCheck("traced slice runs", err))
			continue
		}
		traced[w] = d
	}

	res := fullResult{Host: currentHost(), Seed: seed, Rounds: rounds, SliceSeconds: sliceSeconds,
		Workloads: map[string]*workloadResult{}}
	failed := 0
	fmt.Fprintf(stdout, "host: %s kernel=%s commit=%s seed=%d\n", res.Host.class(), res.Host.Kernel, res.Host.Commit, seed)
	for _, w := range workloadNames {
		wr := pool(w, runs[w], traced[w], errs[w])
		res.Workloads[w] = wr
		failed += wr.Failed
		fmt.Fprintf(stdout, "\n%s: %s\n", w, wr.Latency)
		printMetrics(stdout, wr.Metrics)
		fmt.Fprint(stdout, "  spread over rounds:")
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, " %s %.3f", m.name, wr.Spread[m.name])
		}
		fmt.Fprintln(stdout)
		printChecks(stdout, wr.FailedChecks)
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	path := filepath.Join(out, fmt.Sprintf("result-seed%d.json", seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult: %s\n", path)
	if failed > 0 {
		fmt.Fprintf(stdout, "FAILED: %d operations or checks\n", failed)
		return 1
	}
	return 0
}

// pool merges a workload's slices into one result: timings pooled over every
// slice, each scaled to host speed 1 first, set-up time and peak memory as
// the median over slices, per-layer metrics from the traced slice, and the
// cross-slice identity check.
func pool(w string, runs []*runDetail, traced *runDetail, errs []check) *workloadResult {
	wr := &workloadResult{Metrics: map[string]metricValue{}, Spread: map[string]float64{}}
	perRound := map[string][]float64{}
	checks := slices.Clone(errs)
	all := runDetail{Workload: w, Speed: 1}
	var rss []float64
	for _, d := range runs {
		for _, v := range d.SetupS {
			all.SetupS = append(all.SetupS, v*d.Speed)
		}
		for _, v := range d.OpsMS {
			all.OpsMS = append(all.OpsMS, v*d.Speed)
		}
		all.Tasks += d.Tasks
		all.WallS += d.WallS * d.Speed
		all.AllocBytes += d.AllocBytes
		rss = append(rss, d.RSSMiB)
		wr.Attempted += d.Attempted
		wr.Failed += d.Failed
		checks = append(checks, d.Checks...)
		for name, v := range d.endToEndMetrics() {
			perRound[name] = append(perRound[name], v)
		}
	}
	for name, xs := range perRound {
		wr.Spread[name] = spread(xs)
	}
	all.RSSMiB = median(rss)
	if len(runs) > 0 {
		for name, v := range all.endToEndMetrics() {
			wr.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
		}
	}
	if traced != nil {
		wr.Attempted += traced.Attempted
		wr.Failed += traced.Failed
		checks = append(checks, traced.Checks...)
		for name, v := range traced.layerMetrics() {
			wr.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
		}
	}
	// Every slice of one seed runs the same inputs, so every output digest,
	// traced or not, must be the first one.
	if len(runs) > 0 {
		identical := traced == nil || traced.Digest == runs[0].Digest
		for _, d := range runs {
			identical = identical && d.Digest == runs[0].Digest
		}
		checks = append(checks, newCheck("outputs identical across rounds and the traced slice",
			boolErr(identical, "a slice's outputs differ from round 1's")))
	}
	for _, c := range checks {
		wr.Attempted++
		if !c.OK {
			wr.Failed++
			wr.FailedChecks = append(wr.FailedChecks, c)
		}
	}
	wr.Metrics["failed_ratio"] = metricValue{Value: float64(wr.Failed) / float64(max(wr.Attempted, 1)), Unit: "fraction"}
	wr.Latency = tail(all.OpsMS)
	return wr
}

// runAgree compares two result files metric by metric: an end-to-end metric
// agrees when the two values differ by at most its bound, an exact per-layer
// metric when the two values are equal, and both files must report no
// failures. Results from different host classes are not compared.
func runAgree(pathA, pathB string, stdout, stderr io.Writer) int {
	var res [2]fullResult
	for i, p := range []string{pathA, pathB} {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, &res[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := res[0], res[1]
	if a.Host.class() != b.Host.class() {
		fmt.Fprintf(stderr, "bench: refusing to compare across host classes:\n  %s\n  %s\n", a.Host.class(), b.Host.class())
		return 2
	}
	disagree := 0
	report := func(w, name string, va, vb float64, ok bool, rule string) {
		verdict := "agree"
		if !ok {
			verdict = "DISAGREE"
			disagree++
		}
		fmt.Fprintf(stdout, "%-14s %-28s %14.6g %14.6g  %-8s %s\n", w, name, va, vb, verdict, rule)
	}
	for _, w := range workloadNames {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			report(w, "present", 0, 0, false, "workload missing from a result")
			continue
		}
		for _, m := range endToEnd {
			va, vb := wa.Metrics[m.name].Value, wb.Metrics[m.name].Value
			rel := math.Abs(vb-va) / math.Abs(va)
			report(w, m.name, va, vb, rel <= m.bound, fmt.Sprintf("|diff| %.3f <= %.2f", rel, m.bound))
		}
		for _, m := range perLayer {
			if m.exact {
				va, vb := wa.Metrics[m.name].Value, wb.Metrics[m.name].Value
				report(w, m.name, va, vb, va == vb, "equal")
			}
		}
		report(w, "failed_ratio", wa.Metrics["failed_ratio"].Value, wb.Metrics["failed_ratio"].Value,
			wa.Failed == 0 && wb.Failed == 0, "both 0")
	}
	if disagree > 0 {
		fmt.Fprintf(stdout, "%d disagreements\n", disagree)
		return 1
	}
	fmt.Fprintln(stdout, "all metrics agree")
	return 0
}
