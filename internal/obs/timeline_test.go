package obs

import (
	"bytes"
	"io"
	"math"
	"testing"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
	"github.com/malleable-sched/malleable/internal/workload"
)

// A timeline attached to an engine run round-trips through ReadTimeline:
// monotone virtual time, consistent counters, flow statistics present, and
// a terminal Done record matching the run's result.
func TestTimelineEngineRoundTrip(t *testing.T) {
	stream, err := workload.NewStream(testConfig(20), 1200, 41)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tl := NewTimeline(&buf, 0)
	res := &engine.Result{}
	if err := engine.NewRunner().RunStreamInto(res, 8, testPolicy(t), stream, tl, engine.Options{Probe: tl, ProbeInterval: 2.0}); err != nil {
		t.Fatal(err)
	}
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != tl.Records() {
		t.Fatalf("read %d records, writer counted %d", len(recs), tl.Records())
	}
	want := int(math.Floor(res.Makespan / 2.0))
	if len(recs) < want {
		t.Fatalf("%d samples over makespan %g at interval 2, want >= %d", len(recs), res.Makespan, want)
	}
	for i, rec := range recs {
		if rec.Shards != 1 {
			t.Fatalf("record %d shards = %d, want 1", i, rec.Shards)
		}
		if rec.Admitted != rec.Completed+rec.Backlog {
			t.Fatalf("record %d inconsistent: admitted %d != completed %d + backlog %d",
				i, rec.Admitted, rec.Completed, rec.Backlog)
		}
		if i > 0 && rec.T < recs[i-1].T {
			t.Fatalf("record %d time went backwards", i)
		}
	}
	last := recs[len(recs)-1]
	if !last.Done {
		t.Fatal("missing terminal Done record")
	}
	if last.T != res.Makespan || last.Completed != res.Completed || last.Backlog != 0 {
		t.Fatalf("terminal record %+v, want makespan %g completed %d", last, res.Makespan, res.Completed)
	}
	if last.MeanFlow <= 0 || last.P99Flow < last.MeanFlow {
		t.Fatalf("terminal flow stats mean=%g p99=%g", last.MeanFlow, last.P99Flow)
	}
}

// A timeline attached to a cluster run records fleet-wide samples on the
// virtual-time grid, and Close lands the drained endpoint as a Done record
// even when interval thinning skipped the coordinator's final observation.
func TestTimelineClusterRoundTrip(t *testing.T) {
	const n = 2000
	stream, err := workload.NewStream(testConfig(40), n, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tl := NewTimeline(&buf, 5.0)
	res, err := cluster.Run(cluster.Config{
		Shards: 3, P: 8, Policy: testPolicy(t),
		Router: cluster.NewLeastBacklog(), Probe: tl, Sink: tl,
	}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("want several fleet samples, got %d", len(recs))
	}
	for i, rec := range recs {
		if rec.Shards != 3 {
			t.Fatalf("record %d shards = %d, want 3", i, rec.Shards)
		}
		if i > 0 && rec.T < recs[i-1].T {
			t.Fatalf("record %d time went backwards", i)
		}
		if i > 0 && !rec.Done && math.Floor(rec.T/5.0) == math.Floor(recs[i-1].T/5.0) {
			t.Fatalf("records %d and %d share grid cell %g", i-1, i, math.Floor(rec.T/5.0))
		}
	}
	last := recs[len(recs)-1]
	if !last.Done {
		t.Fatal("missing terminal Done record after Close")
	}
	if last.Completed != res.TotalTasks || last.Backlog != 0 || last.Dispatched != n {
		t.Fatalf("terminal record %+v, want completed %d dispatched %d", last, res.TotalTasks, n)
	}
}

// Steady-state recording allocates nothing: records render through the
// reused buffer with strconv appends.
func TestTimelineWriteZeroAlloc(t *testing.T) {
	tl := NewTimeline(io.Discard, 0)
	for i := 0; i < 1000; i++ {
		tl.Observe(engine.TaskMetrics{Flow: float64(i) * 0.25, Weight: 1})
	}
	snap := engine.Snapshot{Now: 12.5, Backlog: 3, Admitted: 10, Completed: 7, Events: 20, Allocated: 8}
	allocs := testing.AllocsPerRun(100, func() {
		tl.Observe(engine.TaskMetrics{Flow: 3, Weight: 1})
		tl.ObserveSnapshot(snap)
	})
	if allocs != 0 {
		t.Fatalf("timeline recording allocates %.1f allocs/run, want 0", allocs)
	}
}

// Timeline write errors are sticky and surface from Close.
type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.after--
	return len(p), nil
}

func TestTimelineWriteErrorSurfaces(t *testing.T) {
	tl := NewTimeline(&failWriter{after: 1}, 0)
	tl.ObserveSnapshot(engine.Snapshot{Now: 1})
	tl.ObserveSnapshot(engine.Snapshot{Now: 2})
	tl.ObserveSnapshot(engine.Snapshot{Now: 3})
	if err := tl.Close(); err == nil {
		t.Fatal("write error did not surface from Close")
	}
	if tl.Records() != 1 {
		t.Fatalf("records = %d, want 1 (writes after the error are dropped)", tl.Records())
	}
}
