package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"github.com/malleable-sched/malleable/internal/cluster"
	"github.com/malleable-sched/malleable/internal/engine"
)

// Tracing is done from outside the program only: the wrappers below sit
// around the public calls into each layer (ArrivalStream.Next, Router.Route,
// MetricSink.Observe, Stepper.Step), count every call, and time one call in
// every `every`. A clock read costs tens of nanoseconds, as much as a whole
// Route call, so sub-microsecond calls are sampled and their time is
// estimated as the mean timed call times the exact call count.

// layer accumulates one layer's calls inside the current root span.
type layer struct {
	name   string
	parent string // enclosing layer, "" for the root span
	every  int64
	calls  int64
	timed  int64
	ns     int64
}

// begin counts a call and reports whether to time it.
func (l *layer) begin() (time.Time, bool) {
	l.calls++
	if l.calls%l.every != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (l *layer) end(t0 time.Time, on bool) {
	if on {
		l.timed++
		l.ns += int64(time.Since(t0))
	}
}

// estimate is the layer's total time in the span, scaled from the timed
// calls to every call.
func (l *layer) estimate() float64 {
	if l.timed == 0 {
		return 0
	}
	return float64(l.ns) / float64(l.timed) * float64(l.calls)
}

// tracer holds the layers of one workload's traced samples. Its wrappers are
// called from one goroutine at a time: the engine and the cluster
// coordinator call streams, routers and shared sinks from the coordinating
// goroutine only.
type tracer struct {
	layers []*layer
	spans  []span
	start  time.Time
	nextID int
}

// span is one line of trace.jsonl: a root span per sample or request, and
// one aggregated child span per layer under it.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent,omitempty"`
	Name     string  `json:"name"`
	Workload string  `json:"workload,omitempty"`
	StartNS  int64   `json:"start_ns,omitempty"`
	EndNS    int64   `json:"end_ns,omitempty"`
	Calls    int64   `json:"calls,omitempty"`
	Timed    int64   `json:"timed,omitempty"`
	Every    int64   `json:"every,omitempty"`
	EstNS    float64 `json:"est_ns,omitempty"`
	SelfNS   float64 `json:"self_ns,omitempty"`
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// layer registers a layer; parent names its enclosing layer.
func (t *tracer) layer(name, parent string, every int64) *layer {
	l := &layer{name: name, parent: parent, every: every}
	t.layers = append(t.layers, l)
	return l
}

// reset clears every layer's counters before a root span.
func (t *tracer) reset() {
	for _, l := range t.layers {
		l.calls, l.timed, l.ns = 0, 0, 0
	}
}

// record closes a root span over [t0, t1], appending it and one child span
// per layer that saw calls. A layer's self time is its estimate minus the
// estimates of the layers nested in it.
func (t *tracer) record(workload, name string, t0, t1 time.Time) {
	t.nextID++
	root := span{ID: t.nextID, Name: name, Workload: workload,
		StartNS: int64(t0.Sub(t.start)), EndNS: int64(t1.Sub(t.start))}
	t.spans = append(t.spans, root)
	ids := map[string]int{"": root.ID}
	for _, l := range t.layers {
		if l.calls > 0 {
			t.nextID++
			ids[l.name] = t.nextID
		}
	}
	for _, l := range t.layers {
		if l.calls == 0 {
			continue
		}
		est := l.estimate()
		t.spans = append(t.spans, span{ID: ids[l.name], Parent: ids[l.parent], Name: l.name,
			Calls: l.calls, Timed: l.timed, Every: l.every, EstNS: est, SelfNS: est - t.childEstimate(l.name)})
	}
}

// childEstimate sums the estimates of the layers nested directly in name.
func (t *tracer) childEstimate(name string) float64 {
	sum := 0.0
	for _, l := range t.layers {
		if l.parent == name && l.calls > 0 {
			sum += l.estimate()
		}
	}
	return sum
}

// layerTotals sums a layer's child spans over every recorded root span.
type layerTotals struct {
	est, self, calls float64
}

// totals sums, over every recorded root span, the wall time and each
// layer's estimated time, self time and call count.
func (t *tracer) totals() (wall float64, layers map[string]layerTotals) {
	layers = map[string]layerTotals{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			wall += float64(s.EndNS - s.StartNS)
			continue
		}
		l := layers[s.Name]
		l.est += s.EstNS
		l.self += s.SelfNS
		l.calls += float64(s.Calls)
		layers[s.Name] = l
	}
	return wall, layers
}

// perCall is a layer's mean time per call, nested layers included.
func (l layerTotals) perCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return l.est / l.calls
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStream times ArrivalStream.Next.
type tracedStream struct {
	inner engine.ArrivalStream
	l     *layer
}

func (s tracedStream) Next() (engine.Arrival, bool, error) {
	t0, on := s.l.begin()
	a, ok, err := s.inner.Next()
	s.l.end(t0, on)
	return a, ok, err
}

// tracedSink times MetricSink.Observe.
type tracedSink struct {
	inner engine.MetricSink
	l     *layer
}

func (s tracedSink) Observe(m engine.TaskMetrics) {
	t0, on := s.l.begin()
	s.inner.Observe(m)
	s.l.end(t0, on)
}

// tracedRouter times Router.Route. It forwards the optional capabilities the
// coordinator picks its dispatch mode by: a wrapper that hid StateFree would
// silently move a round-robin fleet from batched to windowed dispatch and
// measure a different program.
type tracedRouter struct {
	inner cluster.Router
	l     *layer
}

func (r tracedRouter) Name() string { return r.inner.Name() }

func (r tracedRouter) Route(a engine.Arrival, shards []cluster.ShardState) int {
	t0, on := r.l.begin()
	i := r.inner.Route(a, shards)
	r.l.end(t0, on)
	return i
}

func (r tracedRouter) StateFree() bool {
	sf, ok := r.inner.(cluster.StateFreeRouter)
	return ok && sf.StateFree()
}

func (r tracedRouter) WindowStale() bool {
	ws, ok := r.inner.(cluster.WindowStaleRouter)
	return ok && ws.WindowStale()
}
