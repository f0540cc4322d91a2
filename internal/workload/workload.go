// Package workload generates the problem instances used by the paper's
// experiments and by the examples: the uniform random instances of Section
// V-A (and their constant-weight and constant-weight-and-volume variants),
// the δ > P/2 class of Theorem 11, the unit class of Section V-B, and the
// master–worker bandwidth-sharing scenarios of Figure 1. All generators are
// deterministic given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/malleable-sched/malleable/internal/schedule"
)

// Class identifies an instance distribution.
type Class int

const (
	// Uniform is the paper's Section V-A distribution: δ_i uniform in (0, P),
	// w_i uniform in (0, 1), V_i uniform in (0, 1).
	Uniform Class = iota
	// ConstantWeight is Uniform with all weights equal to one.
	ConstantWeight
	// ConstantWeightVolume is Uniform with all weights and volumes equal to one.
	ConstantWeightVolume
	// LargeDelta draws δ_i uniformly in (P/2, P] with unit weights — the
	// class of Theorem 11 (every optimal schedule is greedy).
	LargeDelta
	// UnitClass is the restricted class of Section V-B: P = 1, V_i = w_i = 1,
	// δ_i uniform in [1/2, 1].
	UnitClass
	// Heterogeneous draws weights, volumes and degree bounds over wider,
	// skewed ranges; it is used by the examples and by robustness tests
	// rather than by a specific paper experiment.
	Heterogeneous
)

// String returns the class name used in reports.
func (c Class) String() string {
	switch c {
	case Uniform:
		return "uniform"
	case ConstantWeight:
		return "constant-weight"
	case ConstantWeightVolume:
		return "constant-weight-volume"
	case LargeDelta:
		return "large-delta"
	case UnitClass:
		return "unit-class"
	case Heterogeneous:
		return "heterogeneous"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass converts a class name (as produced by String) back to a Class.
func ParseClass(name string) (Class, error) {
	for _, c := range []Class{Uniform, ConstantWeight, ConstantWeightVolume, LargeDelta, UnitClass, Heterogeneous} {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown instance class %q", name)
}

// Generator produces random instances of a given class.
type Generator struct {
	// Class selects the distribution.
	Class Class
	// N is the number of tasks per instance.
	N int
	// P is the number of processors (ignored by UnitClass, which fixes P=1).
	P float64
	// Epsilon keeps the uniform draws away from zero so instances always
	// validate; it defaults to 0.01 when zero.
	Epsilon float64

	rng *rand.Rand
}

// NewGenerator creates a generator seeded deterministically.
func NewGenerator(class Class, n int, p float64, seed int64) (*Generator, error) {
	return newGenerator(class, n, p, rand.New(rand.NewSource(seed)))
}

// newGenerator validates the parameters and wraps an already seeded rng.
func newGenerator(class Class, n int, p float64, rng *rand.Rand) (*Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need at least one task, got %d", n)
	}
	if class != UnitClass && !(p > 0) {
		return nil, fmt.Errorf("workload: need a positive processor count, got %g", p)
	}
	return &Generator{Class: class, N: n, P: p, Epsilon: 0.01, rng: rng}, nil
}

// NextTask draws a single task of the generator's class. It is the
// allocation-free unit draw behind Next — the streaming arrival generator
// calls it once per pulled arrival, so a million-task stream costs a million
// task draws and zero instance allocations. The random draws of one task are
// identical to the draws Next performs for each slot of an instance, so
// collecting N NextTask calls reproduces Next's tasks exactly.
func (g *Generator) NextTask() schedule.Task {
	eps := g.Epsilon
	if eps <= 0 {
		eps = 0.01
	}
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*g.rng.Float64() }

	switch g.Class {
	case UnitClass:
		return schedule.Task{Weight: 1, Volume: 1, Delta: uniform(0.5, 1)}
	case LargeDelta:
		return schedule.Task{
			Weight: 1,
			Volume: uniform(eps, 1),
			Delta:  uniform(g.P/2+eps, g.P),
		}
	case Heterogeneous:
		// Integer degree bounds in [1, P]. Clamp the Intn argument so a
		// fractional P (< 1) or a P beyond int range cannot panic rand.Intn;
		// EffectiveDelta caps the bound at P during scheduling anyway.
		maxDelta := 1
		if g.P >= 2 {
			maxDelta = int(math.Min(g.P, 1<<30))
		}
		return schedule.Task{
			Weight: uniform(0.1, 10),
			Volume: uniform(0.1, 20),
			Delta:  float64(1 + g.rng.Intn(maxDelta)),
		}
	default:
		w := uniform(eps, 1)
		v := uniform(eps, 1)
		if g.Class == ConstantWeight || g.Class == ConstantWeightVolume {
			w = 1
		}
		if g.Class == ConstantWeightVolume {
			v = 1
		}
		return schedule.Task{Weight: w, Volume: v, Delta: uniform(eps, g.P)}
	}
}

// Next draws the next instance.
func (g *Generator) Next() *schedule.Instance {
	tasks := make([]schedule.Task, g.N)
	for i := range tasks {
		tasks[i] = g.NextTask()
	}
	p := g.P
	if g.Class == UnitClass {
		p = 1
	}
	return &schedule.Instance{P: p, Tasks: tasks}
}

// BandwidthScenario describes the master–worker code-distribution setting of
// Figure 1 of the paper: a server with outgoing bandwidth P distributes codes
// of size V_i to workers whose incoming bandwidth is δ_i; worker i then
// processes tasks at rate w_i until the horizon T. Maximizing the number of
// tasks processed by T is equivalent to minimizing Σ w_i C_i.
type BandwidthScenario struct {
	// ServerBandwidth is the outgoing bandwidth of the server (the paper's P).
	ServerBandwidth float64
	// Horizon is the time T at which processed tasks are counted.
	Horizon float64
	// Workers describe each worker: code size, incoming bandwidth and
	// processing rate.
	Workers []Worker
}

// Worker is one worker of a bandwidth-sharing scenario.
type Worker struct {
	// Name identifies the worker in reports.
	Name string
	// CodeSize is the volume of the code to download (the paper's V_i).
	CodeSize float64
	// Bandwidth is the worker's incoming bandwidth (the paper's δ_i).
	Bandwidth float64
	// Rate is the task-processing rate once the code is received (the
	// paper's w_i).
	Rate float64
}

// Instance converts the scenario to the equivalent MWCT instance.
func (b *BandwidthScenario) Instance() (*schedule.Instance, error) {
	tasks := make([]schedule.Task, len(b.Workers))
	for i, w := range b.Workers {
		tasks[i] = schedule.Task{Name: w.Name, Weight: w.Rate, Volume: w.CodeSize, Delta: w.Bandwidth}
	}
	return schedule.NewInstance(b.ServerBandwidth, tasks)
}

// TasksProcessedBy returns the total number of tasks processed by the horizon
// when worker i receives its code at time completions[i]: Σ_i rate_i ·
// max(0, T - C_i).
func (b *BandwidthScenario) TasksProcessedBy(completions []float64) float64 {
	total := 0.0
	for i, w := range b.Workers {
		if i >= len(completions) {
			break
		}
		if slack := b.Horizon - completions[i]; slack > 0 {
			total += w.Rate * slack
		}
	}
	return total
}

// NewBandwidthScenario draws a random scenario with the given number of
// workers. The server bandwidth is sized so that it is the bottleneck (as in
// the paper's motivation, the sum of worker bandwidths exceeds the server's).
func NewBandwidthScenario(workers int, seed int64) (*BandwidthScenario, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("workload: need at least one worker, got %d", workers)
	}
	rng := rand.New(rand.NewSource(seed))
	b := &BandwidthScenario{ServerBandwidth: float64(workers), Horizon: 0}
	sumBandwidth := 0.0
	for i := 0; i < workers; i++ {
		w := Worker{
			Name:      fmt.Sprintf("worker-%02d", i+1),
			CodeSize:  0.5 + 2*rng.Float64(),
			Bandwidth: 0.5 + 1.5*rng.Float64(),
			Rate:      0.2 + rng.Float64(),
		}
		sumBandwidth += w.Bandwidth
		b.Workers = append(b.Workers, w)
	}
	// Make the server the bottleneck: about 60% of the aggregate worker
	// bandwidth.
	b.ServerBandwidth = 0.6 * sumBandwidth
	// A horizon comfortably beyond the best possible distribution time.
	var totalCode float64
	for _, w := range b.Workers {
		totalCode += w.CodeSize
	}
	b.Horizon = 2 * totalCode / b.ServerBandwidth
	return b, nil
}
