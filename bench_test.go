// Benchmarks regenerating the paper's quantitative results (one benchmark
// per experiment of the DESIGN.md index) plus scaling and ablation
// benchmarks for the library's own algorithms. Each experiment benchmark runs
// a reduced sample per iteration so `go test -bench=.` terminates quickly;
// the paper-scale runs are produced by `mwct experiment -full`.
package malleable_test

import (
	"fmt"
	"math/rand"
	"testing"

	malleable "github.com/malleable-sched/malleable"
	"github.com/malleable-sched/malleable/internal/core"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/exact"
	"github.com/malleable-sched/malleable/internal/experiments"
	"github.com/malleable-sched/malleable/internal/lp"
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/workload"
)

// benchConfig is the reduced per-iteration configuration of the experiment
// benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 1, Instances: 3, Sizes: []int{2, 3, 4, 5}, Processors: 1}
}

func BenchmarkE1GreedyVsOptimalUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.GreedyVsOptimal(benchConfig(), workload.Uniform)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Indistinguishable(1e-4) {
			b.Fatalf("greedy deviates from the optimum: %+v", res.Rows)
		}
	}
}

func BenchmarkE2GreedyVsOptimalConstWeight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.GreedyVsOptimal(benchConfig(), workload.ConstantWeight)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Indistinguishable(1e-4) {
			b.Fatalf("greedy deviates from the optimum: %+v", res.Rows)
		}
	}
}

func BenchmarkE3GreedyVsOptimalConstWV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.GreedyVsOptimal(benchConfig(), workload.ConstantWeightVolume)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Indistinguishable(1e-4) {
			b.Fatalf("greedy deviates from the optimum: %+v", res.Rows)
		}
	}
}

func BenchmarkE4Conjecture13Reversal(b *testing.B) {
	cfg := benchConfig()
	cfg.Sizes = []int{4, 8, 15}
	cfg.Instances = 2
	for i := 0; i < b.N; i++ {
		res, err := experiments.Conjecture13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Holds() {
			b.Fatalf("Conjecture 13 violated: %+v", res.Rows)
		}
	}
}

func BenchmarkE5OptimalOrderCatalogue(b *testing.B) {
	cfg := benchConfig()
	cfg.Instances = 2
	for i := 0; i < b.N; i++ {
		res, err := experiments.OrderCatalogue(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Holds() {
			b.Fatalf("catalogue violated: %+v", res)
		}
	}
}

func BenchmarkE6PreemptionBounds(b *testing.B) {
	cfg := benchConfig()
	cfg.Processors = 4
	cfg.Sizes = []int{4, 8, 16}
	cfg.Instances = 8
	for i := 0; i < b.N; i++ {
		res, err := experiments.Preemptions(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Theorem9Holds() {
			b.Fatalf("Theorem 9 violated: %+v", res.Rows)
		}
	}
}

func BenchmarkE7WDEQRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.WDEQRatio(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if !res.WithinTwo() {
			b.Fatalf("WDEQ exceeded its guarantee: %+v", res.Rows)
		}
	}
}

func BenchmarkE8GreedyDominance(b *testing.B) {
	cfg := benchConfig()
	cfg.Processors = 2
	cfg.Sizes = []int{2, 3, 4}
	for i := 0; i < b.N; i++ {
		res, err := experiments.GreedyDominance(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Holds() {
			b.Fatalf("greedy dominance violated: %+v", res.Rows)
		}
	}
}

func BenchmarkE9TableIComparison(b *testing.B) {
	cfg := benchConfig()
	cfg.Instances = 2
	cfg.Sizes = []int{2, 3}
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.GuaranteesRespected() {
			b.Fatalf("a guarantee was violated: %+v", res.Rows)
		}
	}
}

func BenchmarkE10SmithGreedyRatio(b *testing.B) {
	cfg := benchConfig()
	cfg.Sizes = []int{2, 3, 4}
	for i := 0; i < b.N; i++ {
		res, err := experiments.SmithRatio(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.WorstRatio() > 2 {
			b.Fatalf("Smith greedy exceeded a factor 2: %+v", res.Rows)
		}
	}
}

func BenchmarkF1BandwidthSharing(b *testing.B) {
	cfg := benchConfig()
	cfg.Instances = 3
	for i := 0; i < b.N; i++ {
		res, err := experiments.Bandwidth(cfg, 6)
		if err != nil {
			b.Fatal(err)
		}
		if !res.EquivalenceHolds() {
			b.Fatalf("equivalence violated: %+v", res)
		}
	}
}

// --- scaling benchmarks of the individual algorithms ---

func randomInstances(n int, p float64, count int) []*malleable.Instance {
	gen, err := workload.NewGenerator(workload.Uniform, n, p, 42)
	if err != nil {
		panic(err)
	}
	return drawInstances(gen, count)
}

// drawInstances draws count instances from gen.
func drawInstances(gen *workload.Generator, count int) []*malleable.Instance {
	out := make([]*malleable.Instance, count)
	for i := range out {
		out[i] = gen.Next()
	}
	return out
}

func BenchmarkWDEQ(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		insts := randomInstances(n, 16, 8)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := malleable.WDEQ(insts[i%len(insts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWaterFill(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		insts := randomInstances(n, 16, 8)
		completions := make([][]float64, len(insts))
		for k, inst := range insts {
			s, err := malleable.WDEQ(inst)
			if err != nil {
				b.Fatal(err)
			}
			completions[k] = s.CompletionTimes()
		}
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := i % len(insts)
				if _, err := malleable.WaterFill(insts[k], completions[k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGreedySmith(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		insts := randomInstances(n, 16, 8)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := malleable.GreedySmith(insts[i%len(insts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptimalEnumeration(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		insts := randomInstances(n, 2, 4)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := malleable.Optimal(insts[i%len(insts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTheorem3Conversion(b *testing.B) {
	insts := randomInstances(32, 8, 8)
	schedules := make([]*malleable.Schedule, len(insts))
	for k, inst := range insts {
		s, err := malleable.WDEQ(inst)
		if err != nil {
			b.Fatal(err)
		}
		schedules[k], err = malleable.WaterFill(inst, s.CompletionTimes())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := malleable.ToProcessorSchedule(schedules[i%len(schedules)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks for the design choices listed in DESIGN.md ---

func BenchmarkAblationEnumerationVsBnB(b *testing.B) {
	insts := randomInstances(5, 2, 4)
	b.Run("enumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.Optimal(insts[i%len(insts)], exact.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("branch-and-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.BranchAndBound(insts[i%len(insts)], exact.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationLPFloatVsRational(b *testing.B) {
	insts := randomInstances(4, 2, 4)
	order := []int{0, 1, 2, 3}
	b.Run("float64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.SolveOrder(insts[i%len(insts)], order, false, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.SolveOrder(insts[i%len(insts)], order, true, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationGreedyOrderings(b *testing.B) {
	insts := randomInstances(12, 4, 4)
	rng := rand.New(rand.NewSource(3))
	b.Run("smith", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.GreedySmith(insts[i%len(insts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("portfolio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BestGreedy(insts[i%len(insts)], rng, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("portfolio+random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BestGreedy(insts[i%len(insts)], rng, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLPSimplex(b *testing.B) {
	// A representative order LP, solved from scratch each iteration.
	gen, err := workload.NewGenerator(workload.Uniform, 6, 3, 7)
	if err != nil {
		b.Fatal(err)
	}
	inst := gen.Next()
	order := inst.SmithOrder()
	b.Run("order-lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.SolveOrder(inst, order, false, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A plain dense LP exercising the simplex directly.
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := lp.NewModel(lp.Maximize)
			vars := make([]int, 12)
			for v := range vars {
				vars[v] = m.AddVariable("x", float64(1+v%5))
			}
			for c := 0; c < 10; c++ {
				row := map[int]float64{}
				for v := range vars {
					row[vars[v]] = float64((v+c)%4 + 1)
				}
				m.AddConstraint("c", row, lp.LE, float64(20+c))
			}
			if _, err := m.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSchedulePipeline(b *testing.B) {
	// End-to-end: generate, schedule with WDEQ, normalize, convert to the
	// integral form and validate — the full path a user of the library takes.
	gen, err := workload.NewGenerator(workload.Uniform, 24, 8, 11)
	if err != nil {
		b.Fatal(err)
	}
	insts := drawInstances(gen, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := insts[i%len(insts)]
		s, err := core.RunWDEQ(inst)
		if err != nil {
			b.Fatal(err)
		}
		wf, err := core.Normalize(s)
		if err != nil {
			b.Fatal(err)
		}
		pa, err := schedule.FromColumns(wf)
		if err != nil {
			b.Fatal(err)
		}
		if err := pa.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- online engine benchmarks (the sustained-load scenario family) ---

func onlineArrivals(b *testing.B, n int, seed int64) []malleable.Arrival {
	b.Helper()
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Class:   workload.Uniform,
		P:       8,
		Process: workload.Poisson,
		Rate:    8,
	}, n, seed)
	if err != nil {
		b.Fatal(err)
	}
	return arrivals
}

// BenchmarkEngineWDEQPoisson exercises the discrete-event loop end to end:
// Poisson arrivals, incremental alive-set maintenance, one WDEQ invocation
// per event.
func BenchmarkEngineWDEQPoisson(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		arrivals := onlineArrivals(b, n, 17)
		policy, err := malleable.OnlinePolicyByName("wdeq")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := malleable.NewOnlineRunner().RunInto(&malleable.OnlineResult{}, 8, policy, arrivals, malleable.OnlineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnginePolicies compares the per-event cost of the bundled online
// policies on the same arrival stream.
func BenchmarkEnginePolicies(b *testing.B) {
	arrivals := onlineArrivals(b, 1024, 23)
	for _, name := range []string{"wdeq", "deq", "weight-greedy", "smith-ratio"} {
		policy, err := malleable.OnlinePolicyByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := malleable.NewOnlineRunner().RunInto(&malleable.OnlineResult{}, 8, policy, arrivals, malleable.OnlineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSharded measures the concurrent multi-shard driver: four
// engines on four goroutines plus the deterministic merge.
func BenchmarkEngineSharded(b *testing.B) {
	policy, err := malleable.OnlinePolicyByName("wdeq")
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.ArrivalConfig{Class: workload.Uniform, P: 8, Process: workload.Poisson, Rate: 8}
	source := func(shard int, seed int64) ([]malleable.Arrival, error) {
		return workload.GenerateArrivals(cfg, 512, seed)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunShardsWithOptions(8, policy, source, 4, 7, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSteadyState is the headline number of the zero-allocation
// refactor: a warmed OnlineRunner re-executing the same Poisson workload into
// a reused result. Allocations are reported (the steady state must show
// 0 allocs/op) together with a custom tasks/sec metric so benchstat can track
// throughput directly across commits.
func BenchmarkEngineSteadyState(b *testing.B) {
	policy, err := malleable.OnlinePolicyByName("wdeq")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1_000, 10_000, 100_000} {
		arrivals := onlineArrivals(b, n, 29)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runner := malleable.NewOnlineRunner()
			res := &malleable.OnlineResult{}
			// Warm the scratch outside the timer.
			if err := runner.RunInto(res, 8, policy, arrivals, malleable.OnlineOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runner.RunInto(res, 8, policy, arrivals, malleable.OnlineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(n*b.N)/elapsed, "tasks/sec")
			}
		})
	}
}

func sizeName(n int) string {
	return fmt.Sprintf("n=%03d", n)
}

// BenchmarkEngineSpeedupModels compares the per-event cost of the bundled
// speedup models on the same WDEQ Poisson workload: the model-threaded
// advance step (interface call + math) versus the paper's linear division.
func BenchmarkEngineSpeedupModels(b *testing.B) {
	policy, err := malleable.OnlinePolicyByName("wdeq")
	if err != nil {
		b.Fatal(err)
	}
	arrivals := onlineArrivals(b, 1024, 31)
	for _, spec := range []string{"linear", "powerlaw:0.75", "amdahl:0.1", "platform:8@0,4@40,8@80"} {
		model, err := malleable.ParseSpeedupModel(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			runner := malleable.NewOnlineRunner()
			res := &malleable.OnlineResult{}
			opts := malleable.OnlineOptions{Model: model}
			if err := runner.RunInto(res, 8, policy, arrivals, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runner.RunInto(res, 8, policy, arrivals, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
