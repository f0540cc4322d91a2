package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

// t8 is the tenant mix of every simulated workload: eight tenants with
// weights 4, 2, 1, ..., 1, reshaped by a Zipf skew of 1.5, so the weighted
// objective differs from the unweighted one.
const t8 = "t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1"

// capacity is the per-shard platform size P of every workload.
const capacity = 8

// simSpec shapes one simulated workload. Each is a closed loop with one
// caller: a sample is one whole run of the system over its tasks.
type simSpec struct {
	class   workload.Class
	rate    float64
	tasks   int
	shards  int    // 0 runs one engine with no cluster layer
	router  string // cluster router
	workers int    // cluster.Config.Workers
	replay  bool   // replay a JSONL trace encoded at setup
	// fixedStream measures one arrival stream whatever the run's seed; the
	// seed then drives only the correctness checks. A deep backlog's cost
	// depends on its stream far more than on the code: over 40 seeds one
	// solo-backlog sample took from 10 ms to 1045 ms, as the calendar queue
	// files early keys into the cursor bucket and rescans it on every event.
	// Timing a different stream per seed would measure the seed.
	fixedStream bool
}

// fixedStreamSeed seeds the measured stream of the fixedStream workloads.
const fixedStreamSeed = 1

var simSpecs = map[string]simSpec{
	// Rate 200 is about 12x the capacity of P=8 under large-delta, so the
	// alive set climbs past 15k and nearly every event takes the certified
	// virtual-clock path: the time is in the event core.
	"solo-backlog": {class: workload.LargeDelta, rate: 200, tasks: 16384, fixedStream: true},
	// The same event core under the exact-view sequential coordinator.
	"fleet-backlog": {class: workload.LargeDelta, rate: 800, tasks: 32768, shards: 4, router: "least-backlog", fixedStream: true},
	// Per-shard load 0.9 keeps engine events cheap; the time goes to trace
	// decode and to batched feeding of 64 steppers on two workers.
	"fleet-replay": {class: workload.Uniform, rate: 921.6, tasks: 32768, shards: 64, router: "round-robin", workers: 2, replay: true},
}

// simOutput is what every sample of a workload must reproduce exactly.
type simOutput struct {
	Completed    int
	Events       int
	WeightedFlow float64
	FlowP99      float64
	PeakBacklog  int
	MinShard     int
	MaxShard     int
	Queue        engine.QueueStats
}

// sim is the prepared state of one simulated workload.
type sim struct {
	spec       simSpec
	seed       int64 // the run's seed
	streamSeed int64 // the seed of the measured stream
	cfg        workload.ArrivalConfig
	trace      []byte

	runner *engine.Runner
	res    engine.Result
	agg    *engine.AggregateSink
	sk     *engine.SketchSink
	sink   engine.MetricSink

	tr                       *tracer
	next, route, step, sinkL *layer
}

// arrivalConfig returns the generator configuration of a spec.
func arrivalConfig(spec simSpec) (workload.ArrivalConfig, error) {
	tenants, err := workload.ParseTenants(t8)
	if err != nil {
		return workload.ArrivalConfig{}, err
	}
	return workload.ArrivalConfig{Class: spec.class, P: capacity, Process: workload.Poisson,
		Rate: spec.rate, Tenants: tenants, TenantSkew: 1.5}, nil
}

// newSim prepares a workload's inputs: the generator configuration and, for
// a replay, the JSONL trace encoded in memory. This is the set-up the
// benchmark times, together with one warm-up sample.
func newSim(name string, seed int64) (*sim, error) {
	spec := simSpecs[name]
	cfg, err := arrivalConfig(spec)
	if err != nil {
		return nil, err
	}
	s := &sim{spec: spec, seed: seed, streamSeed: seed, cfg: cfg}
	if spec.fixedStream {
		s.streamSeed = fixedStreamSeed
	}
	if spec.replay {
		stream, err := workload.NewStream(cfg, spec.tasks, seed)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		tw := workload.NewTraceWriter(&buf)
		for {
			a, ok, err := stream.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := tw.Write(a); err != nil {
				return nil, err
			}
		}
		if err := tw.Flush(); err != nil {
			return nil, err
		}
		s.trace = buf.Bytes()
	}
	if spec.shards == 0 {
		s.runner = engine.NewRunner()
		s.agg = engine.NewAggregateSink()
		s.sk = engine.NewSketchSink(0)
		s.sink = engine.MultiSink(s.agg, s.sk)
	}
	s.tr = newTracer()
	if spec.shards == 0 {
		// Step contains the stream pulls and the sink calls of its event.
		s.step = s.tr.layer("engine.step", "", 1)
		s.next = s.tr.layer("workload.next", "engine.step", 16)
		s.sinkL = s.tr.layer("engine.sink", "engine.step", 16)
		return s, nil
	}
	// A trace line takes microseconds to decode; time every call.
	every := int64(16)
	if spec.replay {
		every = 1
	}
	s.next = s.tr.layer("workload.next", "", every)
	s.route = s.tr.layer("cluster.route", "", 16)
	return s, nil
}

// stream opens the workload's arrival stream: the generator, or a decoder
// over the trace.
func (s *sim) stream() (engine.ArrivalStream, error) {
	if s.spec.replay {
		return workload.NewTraceReader(bytes.NewReader(s.trace)), nil
	}
	return workload.NewStream(s.cfg, s.spec.tasks, s.streamSeed)
}

// sample runs the workload once, traced or not.
func (s *sim) sample(traced bool) (simOutput, error) {
	stream, err := s.stream()
	if err != nil {
		return simOutput{}, err
	}
	if s.spec.shards == 0 {
		return s.solo(stream, traced)
	}
	router, err := cluster.RouterByName(s.spec.router, s.seed)
	if err != nil {
		return simOutput{}, err
	}
	if traced {
		stream = tracedStream{stream, s.next}
		router = tracedRouter{router, s.route}
	}
	lr, err := s.fleet(stream, router, s.spec.workers)
	if err != nil {
		return simOutput{}, err
	}
	return fleetOutput(lr), nil
}

func (s *sim) fleet(stream engine.ArrivalStream, router cluster.Router, workers int) (*engine.LoadResult, error) {
	return cluster.Run(cluster.Config{Shards: s.spec.shards, P: capacity, Policy: engine.WDEQPolicy{},
		Router: router, Workers: workers}, stream)
}

func fleetOutput(lr *engine.LoadResult) simOutput {
	return simOutput{Completed: lr.TotalTasks, Events: lr.Events, WeightedFlow: lr.WeightedFlow,
		FlowP99: lr.Flow.P99, PeakBacklog: lr.PeakBacklog, MinShard: lr.MinShardCompleted, MaxShard: lr.MaxShardCompleted}
}

// solo runs the single engine: through RunStreamInto untraced, and through
// StartStream, Step and Finish traced, so each event can be timed.
func (s *sim) solo(stream engine.ArrivalStream, traced bool) (simOutput, error) {
	s.agg.Reset()
	s.sk.Reset()
	if !traced {
		if err := s.runner.RunStreamInto(&s.res, capacity, engine.WDEQPolicy{}, stream, s.sink, engine.Options{}); err != nil {
			return simOutput{}, err
		}
	} else {
		st, err := s.runner.StartStream(&s.res, capacity, engine.WDEQPolicy{},
			tracedStream{stream, s.next}, tracedSink{s.sink, s.sinkL}, engine.Options{})
		if err != nil {
			return simOutput{}, err
		}
		for {
			t0, on := s.step.begin()
			ok, err := st.Step()
			s.step.end(t0, on)
			if err != nil {
				return simOutput{}, err
			}
			if !ok {
				break
			}
		}
		if err := st.Finish(); err != nil {
			return simOutput{}, err
		}
	}
	return simOutput{Completed: s.res.Completed, Events: s.res.Events, WeightedFlow: s.res.WeightedFlow,
		FlowP99: s.sk.Quantile(0.99), PeakBacklog: s.res.MaxAlive, MinShard: s.res.Completed,
		MaxShard: s.res.Completed, Queue: s.runner.LastQueueStats()}, nil
}

// sourceOnly pulls the whole stream with no engine attached and returns the
// time and heap objects per arrival: the cost of generating or decoding the
// input on its own.
func (s *sim) sourceOnly() (nsPer, allocsPer float64, err error) {
	before := readRuntime()
	t0 := time.Now()
	stream, err := s.stream()
	if err != nil {
		return 0, 0, err
	}
	n := 0
	for {
		_, ok, err := stream.Next()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		n++
	}
	d := time.Since(t0)
	after := readRuntime()
	return float64(d) / float64(n), float64(after.objects-before.objects) / float64(n), nil
}

// checks runs the workload's correctness checks beyond sample-to-sample
// identity, each against an independent path to the same result.
func (s *sim) checks(want simOutput) []check {
	var out []check
	add := func(name string, err error) { out = append(out, newCheck(name, err)) }
	if want.Completed != s.spec.tasks {
		add("every task completes", fmt.Errorf("completed %d of %d", want.Completed, s.spec.tasks))
	} else {
		add("every task completes", nil)
	}
	switch {
	case s.spec.shards == 0:
		add("CoreAuto equals the CoreNaive reference", s.checkNaive())
	case s.spec.replay:
		add("Workers 2 equals Workers 0, trace equals generator", s.checkReplay())
	default:
		add("one-shard cluster equals one engine", s.checkOneShard())
	}
	return out
}

// checkNaive runs a 2048-task prefix of the workload under both event cores:
// the certified calendar-queue core must match the linear-scan reference
// bit for bit.
func (s *sim) checkNaive() error {
	var results [2]engine.Result
	for i, core := range []engine.EventCore{engine.CoreAuto, engine.CoreNaive} {
		stream, err := workload.NewStream(s.cfg, 2048, s.seed)
		if err != nil {
			return err
		}
		if err := engine.NewRunner().RunStreamInto(&results[i], capacity, engine.WDEQPolicy{}, stream, nil,
			engine.Options{EventCore: core}); err != nil {
			return err
		}
	}
	return sameJSON(results[0], results[1])
}

// checkReplay compares the replayed fleet at two worker counts, and against
// the same arrivals drawn from the generator instead of the trace.
func (s *sim) checkReplay() error {
	var outs []*engine.LoadResult
	for _, c := range []struct {
		workers int
		replay  bool
	}{{2, true}, {0, true}, {2, false}} {
		var stream engine.ArrivalStream
		if c.replay {
			stream = workload.NewTraceReader(bytes.NewReader(s.trace))
		} else {
			g, err := workload.NewStream(s.cfg, s.spec.tasks, s.seed)
			if err != nil {
				return err
			}
			stream = g
		}
		router, err := cluster.RouterByName(s.spec.router, s.seed)
		if err != nil {
			return err
		}
		lr, err := s.fleet(stream, router, c.workers)
		if err != nil {
			return err
		}
		outs = append(outs, lr)
	}
	if err := sameJSON(outs[0], outs[1]); err != nil {
		return fmt.Errorf("workers 2 vs 0: %w", err)
	}
	if err := sameJSON(outs[0], outs[2]); err != nil {
		return fmt.Errorf("trace vs generator: %w", err)
	}
	return nil
}

// checkOneShard runs a 4096-task prefix through a one-shard cluster and
// through a bare engine: the coordinator must add nothing to the schedule.
func (s *sim) checkOneShard() error {
	const n = 4096
	stream, err := workload.NewStream(s.cfg, n, s.seed)
	if err != nil {
		return err
	}
	router, err := cluster.RouterByName(s.spec.router, s.seed)
	if err != nil {
		return err
	}
	lr, err := cluster.Run(cluster.Config{Shards: 1, P: capacity, Policy: engine.WDEQPolicy{}, Router: router}, stream)
	if err != nil {
		return err
	}
	stream, err = workload.NewStream(s.cfg, n, s.seed)
	if err != nil {
		return err
	}
	var res engine.Result
	if err := engine.NewRunner().RunStreamInto(&res, capacity, engine.WDEQPolicy{}, stream, nil, engine.Options{}); err != nil {
		return err
	}
	return sameJSON(lr.Shards[0].Result, &res)
}

// sameJSON reports whether two values serialize identically.
func sameJSON(a, b any) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("outputs differ:\n  %.300s\n  %.300s", ja, jb)
	}
	return nil
}

// runtimeStats is the slice of runtime/metrics the benchmark reads around
// its measurements.
type runtimeStats struct {
	bytes, objects, gcs uint64
	gcCPU, totalCPU     float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	return runtimeStats{
		bytes:    runtimeSamples[0].Value.Uint64(),
		objects:  runtimeSamples[1].Value.Uint64(),
		gcs:      runtimeSamples[2].Value.Uint64(),
		gcCPU:    runtimeSamples[3].Value.Float64(),
		totalCPU: runtimeSamples[4].Value.Float64(),
	}
}

// runSim measures one simulated workload: set-up repeated setupReps times,
// then samples in a closed loop for the given duration. With traced set,
// traced and untraced samples alternate and the per-layer metrics are
// reported; otherwise every sample is untraced and the end-to-end metrics
// are reported.
func runSim(name string, seed int64, dur time.Duration, traced bool, reps int) (*runDetail, error) {
	d := &runDetail{Workload: name, Seed: seed, Traced: traced}
	var (
		s    *sim
		want simOutput
		err  error
	)
	for range reps {
		t0 := time.Now()
		if s, err = newSim(name, seed); err != nil {
			return nil, err
		}
		if want, err = s.sample(false); err != nil {
			return nil, err
		}
		d.SetupS = append(d.SetupS, time.Since(t0).Seconds())
	}
	// Collect the set-up's garbage and return it to the OS, so neither the
	// first samples' time nor the resident set below carry it.
	debug.FreeOSMemory()
	d.Digest = fmt.Sprintf("%+v", want)

	var untracedTasks, tracedTasks int
	var untracedWall time.Duration
	var tracedOpsMS []float64
	var allocBytes, allocObjects uint64
	identical := true
	var rss []float64
	ref, err := newRefKernel(max(1, s.spec.workers))
	if err != nil {
		return nil, err
	}
	defer ref.close()
	before := readRuntime()
	start := time.Now()
	for i := 0; time.Since(start) < dur || i == 0 || (traced && i < 2); i++ {
		ref.measure()
		tr := traced && i%2 == 1
		if tr {
			s.tr.reset()
		}
		// Allocations are counted around the run alone, so the benchmark's
		// own reads between runs are not billed to the program.
		r0 := readRuntime()
		t0 := time.Now()
		out, err := s.sample(tr)
		t1 := time.Now()
		r1 := readRuntime()
		if err != nil {
			return nil, err
		}
		allocObjects += r1.objects - r0.objects
		d.Attempted++
		if out != want {
			identical = false
			d.Failed++
		}
		if tr {
			s.tr.record(name, "sample", t0, t1)
			tracedTasks += out.Completed
			tracedOpsMS = append(tracedOpsMS, float64(t1.Sub(t0))/1e6)
			continue
		}
		allocBytes += r1.bytes - r0.bytes
		untracedTasks += out.Completed
		untracedWall += t1.Sub(t0)
		d.OpsMS = append(d.OpsMS, float64(t1.Sub(t0))/1e6)
		rss = append(rss, procRSS(os.Getpid()))
	}
	after := readRuntime()
	d.Speed = ref.speed()
	// The resident set after each run, not its peak: the peak moves with
	// where collections fall and varied by 15% between identical runs.
	d.RSSMiB = median(rss) - ref.residentMiB()
	d.Tasks = float64(untracedTasks)
	d.WallS = untracedWall.Seconds()
	d.AllocBytes = float64(allocBytes)
	d.Checks = append(d.Checks, newCheck("every sample reproduces the first output exactly", boolErr(identical, "a sample differed from the set-up sample")))
	d.Checks = append(d.Checks, s.checks(want)...)
	if !traced {
		return d, nil
	}

	totalTasks := float64(untracedTasks + tracedTasks)
	lm := map[string]float64{}
	for _, m := range perLayer {
		lm[m.name] = 0
	}
	wall, lt := s.tr.totals()
	// share is the part of the sample wall time spent in the named layers,
	// nested layers included.
	share := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += lt[n].est
		}
		return sum / wall
	}
	lm["workload.next_ns"] = lt["workload.next"].perCall()
	lm["workload.share"] = share("workload.next")
	lm["workload.source_ns"], lm["workload.source_allocs"], err = s.sourceOnly()
	if err != nil {
		return nil, err
	}
	if s.spec.shards == 0 {
		// Step's own time, without the pulls and sink calls nested in it.
		step := lt["engine.step"]
		lm["engine.step_ns"] = step.self / step.calls
		lm["engine.step_share"] = step.self / wall
		lm["engine.sink_ns"] = lt["engine.sink"].perCall()
		lm["engine.sink_share"] = share("engine.sink")
		lm["engine.events"] = float64(want.Events)
		lm["engine.virtual_events"] = float64(want.Queue.VirtualEvents)
		lm["engine.fallback_events"] = float64(want.Queue.FallbackEvents)
		lm["engine.transitions"] = float64(want.Queue.Transitions)
		lm["engine.alive_peak"] = float64(want.PeakBacklog)
	} else {
		lm["cluster.route_ns"] = lt["cluster.route"].perCall()
		lm["cluster.route_share"] = share("cluster.route")
		lm["cluster.self_share"] = 1 - share("workload.next", "cluster.route")
		lm["cluster.dispatches"] = float64(want.Completed)
		lm["cluster.events"] = float64(want.Events)
		lm["cluster.peak_backlog"] = float64(want.PeakBacklog)
		lm["cluster.imbalance"] = float64(want.MaxShard) / float64(want.MinShard)
	}
	lm["runtime.gc_per_ktask"] = float64(after.gcs-before.gcs) / (totalTasks / 1000)
	// The runtime refreshes its CPU estimates at collections only, so a run
	// without one reads no CPU time at all.
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		lm["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	lm["runtime.allocs_per_task"] = float64(allocObjects) / totalTasks
	// Every sample runs the same tasks, so throughputs compare as inverse
	// median sample times; the median keeps the first, cold sample out.
	lm["trace.overhead"] = median(tracedOpsMS)/median(d.OpsMS) - 1
	lm["sim.weighted_flow_per_task"] = want.WeightedFlow / float64(want.Completed)
	lm["sim.flow_p99"] = want.FlowP99
	d.Layers = lm
	attributed := 0.0
	for _, l := range s.tr.layers {
		if l.parent == "" {
			attributed += lt[l.name].est
		}
	}
	d.Checks = append(d.Checks, newCheck("traced layer times fit inside the sample wall time",
		boolErr(attributed <= 1.10*wall && !math.IsNaN(attributed), fmt.Sprintf("layers %.0f ns > 1.1 x wall %.0f ns", attributed, wall))))
	d.tracer = s.tr
	return d, nil
}
