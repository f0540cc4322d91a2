package workload

import (
	"testing"
	"testing/quick"

	"github.com/malleable-sched/malleable/internal/numeric"
)

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Uniform, 0, 2, 1); err == nil {
		t.Errorf("zero tasks accepted")
	}
	if _, err := NewGenerator(Uniform, 3, 0, 1); err == nil {
		t.Errorf("zero processors accepted")
	}
	if _, err := NewGenerator(UnitClass, 3, 0, 1); err != nil {
		t.Errorf("unit class should not need P: %v", err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, _ := NewGenerator(Uniform, 5, 3, 42)
	b, _ := NewGenerator(Uniform, 5, 3, 42)
	for i := 0; i < 10; i++ {
		ia, ib := a.Next(), b.Next()
		for k := range ia.Tasks {
			if ia.Tasks[k] != ib.Tasks[k] {
				t.Fatalf("generators with the same seed diverged at instance %d task %d", i, k)
			}
		}
	}
	c, _ := NewGenerator(Uniform, 5, 3, 43)
	same := true
	ia, ic := a.Next(), c.Next()
	for k := range ia.Tasks {
		if ia.Tasks[k] != ic.Tasks[k] {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical instances")
	}
}

func TestClassProperties(t *testing.T) {
	cases := []struct {
		class Class
		check func(t *testing.T)
	}{
		{Uniform, nil},
		{ConstantWeight, nil},
		{ConstantWeightVolume, nil},
		{LargeDelta, nil},
		{UnitClass, nil},
		{Heterogeneous, nil},
	}
	for _, c := range cases {
		g, err := NewGenerator(c.class, 6, 4, 7)
		if err != nil {
			t.Fatalf("%v: %v", c.class, err)
		}
		for trial := 0; trial < 50; trial++ {
			inst := g.Next()
			if err := inst.Validate(); err != nil {
				t.Fatalf("%v: invalid instance: %v", c.class, err)
			}
			switch c.class {
			case ConstantWeight:
				if !inst.IsHomogeneousWeights() {
					t.Fatalf("constant-weight instance has heterogeneous weights")
				}
			case ConstantWeightVolume:
				for _, task := range inst.Tasks {
					if task.Weight != 1 || task.Volume != 1 {
						t.Fatalf("constant-weight-volume instance has task %+v", task)
					}
				}
			case LargeDelta:
				if !inst.IsLargeDeltaClass() {
					t.Fatalf("large-delta instance violates δ > P/2: %+v", inst.Tasks)
				}
				if !inst.IsHomogeneousWeights() {
					t.Fatalf("large-delta instance should have unit weights")
				}
			case UnitClass:
				if inst.P != 1 {
					t.Fatalf("unit-class instance has P = %g", inst.P)
				}
				for _, task := range inst.Tasks {
					if task.Weight != 1 || task.Volume != 1 || task.Delta < 0.5 || task.Delta > 1 {
						t.Fatalf("unit-class task out of range: %+v", task)
					}
				}
			case Uniform:
				for _, task := range inst.Tasks {
					if task.Weight > 1 || task.Volume > 1 || task.Delta > inst.P {
						t.Fatalf("uniform task out of range: %+v", task)
					}
				}
			}
		}
	}
}

func TestClassStringRoundTrip(t *testing.T) {
	for _, c := range []Class{Uniform, ConstantWeight, ConstantWeightVolume, LargeDelta, UnitClass, Heterogeneous} {
		parsed, err := ParseClass(c.String())
		if err != nil || parsed != c {
			t.Errorf("round trip failed for %v: %v %v", c, parsed, err)
		}
	}
	if _, err := ParseClass("nope"); err == nil {
		t.Errorf("unknown class accepted")
	}
}

func TestBandwidthScenario(t *testing.T) {
	b, err := NewBandwidthScenario(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workers) != 5 || b.ServerBandwidth <= 0 || b.Horizon <= 0 {
		t.Errorf("scenario = %+v", b)
	}
	inst, err := b.Instance()
	if err != nil {
		t.Fatalf("Instance: %v", err)
	}
	if inst.N() != 5 || inst.P != b.ServerBandwidth {
		t.Errorf("instance = %+v", inst)
	}
	// The server must be the bottleneck.
	var sum float64
	for _, w := range b.Workers {
		sum += w.Bandwidth
	}
	if b.ServerBandwidth >= sum {
		t.Errorf("server bandwidth %g should be below the aggregate %g", b.ServerBandwidth, sum)
	}
	if _, err := NewBandwidthScenario(0, 1); err == nil {
		t.Errorf("zero workers accepted")
	}
}

func TestTasksProcessedBy(t *testing.T) {
	b := &BandwidthScenario{
		Horizon: 10,
		Workers: []Worker{
			{Rate: 1, CodeSize: 1, Bandwidth: 1},
			{Rate: 2, CodeSize: 1, Bandwidth: 1},
		},
	}
	got := b.TasksProcessedBy([]float64{4, 12})
	if !numeric.ApproxEqual(got, 6) { // worker 1: 1*(10-4); worker 2: finished after the horizon
		t.Errorf("TasksProcessedBy = %g, want 6", got)
	}
}

// Property: the equivalence of the paper's introduction — for a fixed
// scenario, Σ rate_i·(T − C_i) + Σ rate_i·C_i = T·Σ rate_i whenever all
// completions are within the horizon, so maximizing throughput is exactly
// minimizing the weighted completion time.
func TestQuickThroughputEquivalence(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%6)
		b, err := NewBandwidthScenario(n, seed)
		if err != nil {
			return false
		}
		// Arbitrary completions within the horizon.
		g, _ := NewGenerator(Uniform, n, 2, seed)
		inst := g.Next()
		_ = inst
		completions := make([]float64, n)
		for i := range completions {
			completions[i] = float64(i+1) / float64(n+1) * b.Horizon
		}
		throughput := b.TasksProcessedBy(completions)
		var weighted, totalRate float64
		for i, w := range b.Workers {
			weighted += w.Rate * completions[i]
			totalRate += w.Rate
		}
		return numeric.ApproxEqualTol(throughput+weighted, b.Horizon*totalRate, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
