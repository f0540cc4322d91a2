package workload

import (
	"sync"
	"testing"

	"github.com/malleable-sched/malleable/internal/schedule"
)

// The streaming generator and the slice generator must emit identical
// sequences — GenerateArrivals is now defined as collecting the stream, so
// this pins the equivalence through an independent pull loop, across
// processes, tenants and curve draws.
func TestStreamMatchesGenerateArrivals(t *testing.T) {
	configs := map[string]ArrivalConfig{
		"poisson": {Class: Uniform, P: 8, Process: Poisson, Rate: 8},
		"bursty": {Class: Uniform, P: 8, Process: Bursty, Rate: 8, MeanBurst: 6,
			Tenants: []TenantSpec{{Name: "gold", Weight: 4, Share: 0.2}, {Name: "bronze", Weight: 1, Share: 0.8}}},
		"curves": {Class: Heterogeneous, P: 8, Process: Poisson, Rate: 2, CurveMin: 0.5, CurveMax: 0.9},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			const n = 500
			want, err := GenerateArrivals(cfg, n, 42)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := NewStream(cfg, n, 42)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				a, ok, err := stream.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					if i != n {
						t.Fatalf("stream ended after %d arrivals, want %d", i, n)
					}
					break
				}
				if i >= n {
					t.Fatalf("stream emitted more than %d arrivals", n)
				}
				if a != want[i] {
					t.Fatalf("arrival %d differs: stream %+v vs slice %+v", i, a, want[i])
				}
			}
			// Exhausted streams stay exhausted.
			if _, ok, _ := stream.Next(); ok {
				t.Error("drained stream yielded another arrival")
			}
		})
	}
}

// NewStream must reject exactly what GenerateArrivals rejects.
func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(ArrivalConfig{Class: Uniform, P: 8, Process: Poisson, Rate: 8}, 0, 1); err == nil {
		t.Error("zero arrival budget accepted")
	}
	if _, err := NewStream(ArrivalConfig{Class: Uniform, P: 8, Process: Poisson, Rate: 0}, 10, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewStream(ArrivalConfig{Class: Uniform, P: 8, Process: ArrivalProcess(9), Rate: 8}, 10, 1); err == nil {
		t.Error("unknown process accepted")
	}
}

// The streaming draw path must not allocate per arrival once warmed: the
// whole point of the stream is that a 10M-task run's generation side is
// allocation-free in steady state.
func TestStreamSteadyStateAllocs(t *testing.T) {
	cfg := ArrivalConfig{Class: Uniform, P: 8, Process: Bursty, Rate: 8, MeanBurst: 4}
	stream, err := NewStream(cfg, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: the first draws may touch lazy rand state.
	for i := 0; i < 64; i++ {
		if _, ok, _ := stream.Next(); !ok {
			t.Fatal("stream ended during warmup")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, _ := stream.Next(); !ok {
			t.Fatal("stream ended mid-measurement")
		}
	})
	if allocs != 0 {
		t.Errorf("stream.Next allocated %.3g times per draw, want 0", allocs)
	}
}

// drain pulls every arrival of a stream.
func drain(t *testing.T, s *Stream) []schedule.Arrival {
	t.Helper()
	var out []schedule.Arrival
	for {
		a, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// An exhausted stream hands its RNG states to the next NewStream. Reuse must
// be invisible: a stream built on recycled states — after other streams have
// advanced them, and with an abandoned stream still holding its own — emits
// exactly the sequence of one built on fresh states, and its task shapes are
// those of a freshly seeded instance generator.
func TestStreamRecycledRNGMatchesFresh(t *testing.T) {
	cfg := ArrivalConfig{Class: Heterogeneous, P: 8, Process: Bursty, Rate: 8, MeanBurst: 3, CurveMin: 0.5, CurveMax: 0.9}
	const n = 300
	first, err := NewStream(cfg, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, first)
	for seed := int64(1); seed <= 3; seed++ {
		s, err := NewStream(cfg, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, s)
	}
	abandoned, err := NewStream(cfg, n, 9)
	if err != nil {
		t.Fatal(err)
	}
	abandoned.Next()
	again, err := NewStream(cfg, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, again)
	shapes, err := NewGenerator(cfg.Class, 1, cfg.P, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d differs after reuse: %+v vs %+v", i, got[i], want[i])
		}
		if task := shapes.NextTask(); got[i].Task.Volume != task.Volume || got[i].Task.Delta != task.Delta {
			t.Fatalf("arrival %d shape differs from a fresh generator: %+v vs %+v", i, got[i].Task, task)
		}
	}
	if _, ok, _ := abandoned.Next(); !ok {
		t.Fatal("abandoned stream lost its state")
	}
}

// Streams on different goroutines share the RNG pool (the sharded driver runs
// one stream per shard goroutine): concurrent reuse must leave every stream's
// sequence intact.
func TestStreamRecycledRNGConcurrent(t *testing.T) {
	cfg := ArrivalConfig{Class: Uniform, P: 8, Process: Poisson, Rate: 8}
	const n, workers, rounds = 200, 4, 20
	want := make([][]schedule.Arrival, workers)
	for w := range want {
		s, err := NewStream(cfg, n, int64(w))
		if err != nil {
			t.Fatal(err)
		}
		want[w] = drain(t, s)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s, err := NewStream(cfg, n, int64(w))
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; ; i++ {
					a, ok, _ := s.Next()
					if !ok {
						break
					}
					if a != want[w][i] {
						t.Errorf("worker %d round %d: arrival %d differs", w, r, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
