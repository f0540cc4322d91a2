package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/stepfunc"
	"github.com/malleable-sched/malleable/internal/workload"
)

// runCore executes one retained run under the given event core and returns
// the result plus the core counters.
func runCore(t testing.TB, core EventCore, p float64, policy Policy, arrivals []Arrival, model speedup.Model) (*Result, QueueStats) {
	t.Helper()
	r := NewRunner()
	res := &Result{}
	if err := r.RunInto(res, p, policy, arrivals, Options{Model: model, EventCore: core}); err != nil {
		t.Fatalf("core %v: %v", core, err)
	}
	return res, r.LastQueueStats()
}

// runCoreErr executes one run under the given event core into a fresh Result
// and returns what the run left there, its core counters and its error, so
// failing runs can be compared too.
func runCoreErr(core EventCore, p float64, policy Policy, arrivals []Arrival, model speedup.Model) (*Result, QueueStats, error) {
	r := NewRunner()
	res := &Result{}
	err := r.RunInto(res, p, policy, arrivals, Options{Model: model, EventCore: core})
	return res, r.LastQueueStats(), err
}

// requireCoresAgree runs CoreAuto and CoreNaive on the same input, requires
// the same error (or none), bitwise-identical results and the same path
// counters, and returns CoreAuto's outcome.
func requireCoresAgree(t testing.TB, label string, p float64, policy Policy, arrivals []Arrival, model speedup.Model) (*Result, QueueStats, error) {
	t.Helper()
	auto, statsAuto, errAuto := runCoreErr(CoreAuto, p, policy, arrivals, model)
	naive, statsNaive, errNaive := runCoreErr(CoreNaive, p, policy, arrivals, model)
	if fmt.Sprint(errAuto) != fmt.Sprint(errNaive) {
		t.Fatalf("%s: errors diverge: auto %v, naive %v", label, errAuto, errNaive)
	}
	requireIdenticalRuns(t, label, auto, naive)
	if statsAuto != statsNaive {
		t.Fatalf("%s: path counters diverge: %+v vs %+v", label, statsAuto, statsNaive)
	}
	return auto, statsAuto, errAuto
}

// requireIdenticalRuns asserts two runs are bitwise identical: every
// aggregate and every per-task row, signed zeros included.
func requireIdenticalRuns(t testing.TB, label string, a, b *Result) {
	t.Helper()
	same := func(x, y float64) bool {
		return x == y && math.Signbit(x) == math.Signbit(y)
	}
	if a.Events != b.Events || a.Completed != b.Completed || a.MaxAlive != b.MaxAlive {
		t.Fatalf("%s: counters diverge: events %d vs %d, completed %d vs %d, maxAlive %d vs %d",
			label, a.Events, b.Events, a.Completed, b.Completed, a.MaxAlive, b.MaxAlive)
	}
	if !same(a.WeightedFlow, b.WeightedFlow) || !same(a.WeightedCompletion, b.WeightedCompletion) ||
		!same(a.TotalFlow, b.TotalFlow) || !same(a.Makespan, b.Makespan) {
		t.Fatalf("%s: aggregates diverge: wf %.17g vs %.17g, wc %.17g vs %.17g, tf %.17g vs %.17g, mk %.17g vs %.17g",
			label, a.WeightedFlow, b.WeightedFlow, a.WeightedCompletion, b.WeightedCompletion,
			a.TotalFlow, b.TotalFlow, a.Makespan, b.Makespan)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("%s: task tables differ in length: %d vs %d", label, len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		x, y := a.Tasks[i], b.Tasks[i]
		if x.ID != y.ID || x.Tenant != y.Tenant || !same(x.Weight, y.Weight) ||
			!same(x.Release, y.Release) || !same(x.Completion, y.Completion) ||
			!same(x.Flow, y.Flow) || !same(x.Processed, y.Processed) {
			t.Fatalf("%s: task %d diverges: %+v vs %+v", label, i, a.Tasks[i], b.Tasks[i])
		}
	}
}

// The contract of Options.EventCore: the indexed-heap core and the
// naive-scan reference produce bitwise-identical runs — same event count,
// same aggregates, same per-task rows, same path counters — across the
// policy × model matrix, at moderate and at overloaded (deep-backlog)
// operating points. The overloaded wdeq/linear cells run almost entirely on
// the virtual clock; the greedy and nonlinear cells run entirely on the
// fallback path; the platform cells force budget events through it.
func TestEventCoreEquivalence(t *testing.T) {
	profile, err := stepfunc.FromSteps([]float64{0, 5, 11, 17}, []float64{8, 3, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]speedup.Model{
		"linear":   nil,
		"powerlaw": speedup.PowerLaw{Alpha: 0.6},
		"platform": speedup.Platform{Profile: profile},
	}
	loads := map[string]float64{"moderate": 8, "overloaded": 40}
	for loadName, rate := range loads {
		for modelName, model := range models {
			for policyName, policy := range invariantPolicies(t, 768) {
				arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
					Class:   workload.Uniform,
					P:       8,
					Process: workload.Poisson,
					Rate:    rate,
				}, 768, 41)
				if err != nil {
					t.Fatal(err)
				}
				label := loadName + "/" + modelName + "/" + policyName
				auto, statsAuto, err := requireCoresAgree(t, label, 8, policy, arrivals, model)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if statsAuto.VirtualEvents+statsAuto.FallbackEvents != auto.Events {
					t.Fatalf("%s: path counters %+v do not sum to events %d", label, statsAuto, auto.Events)
				}
			}
		}
	}
}

// The fast path must actually engage where it is certified — an overloaded
// equal-share run on the linear model decides most events on the virtual
// clock — and must stay off everywhere it is not.
func TestVirtualPathEngagement(t *testing.T) {
	// Overloaded large-delta stream: with δ > P/2 and unit weights no task
	// is ever degree-pinned once two are alive, so nearly the whole run is
	// one equal-share segment.
	deep, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Class:   workload.LargeDelta,
		P:       8,
		Process: workload.Poisson,
		Rate:    40,
	}, 1024, 17)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := runCore(t, CoreAuto, 8, WDEQPolicy{}, deep, nil)
	if stats.VirtualEvents == 0 {
		t.Fatalf("wdeq/linear run decided no events on the virtual clock: %+v", stats)
	}
	if stats.VirtualEvents < stats.FallbackEvents {
		t.Errorf("overloaded wdeq/linear should be mostly virtual, got %+v", stats)
	}
	arrivals := allocArrivals(t, 1024, 17)
	// Uncertified policy: never virtual.
	_, stats = runCore(t, CoreAuto, 8, WeightGreedyPolicy{}, arrivals, nil)
	if stats.VirtualEvents != 0 || stats.Transitions != 0 {
		t.Fatalf("weight-greedy run must never take the virtual path, got %+v", stats)
	}
	// Certified policy, nonlinear model: never virtual.
	_, stats = runCore(t, CoreAuto, 8, WDEQPolicy{}, arrivals, speedup.Amdahl{Sigma: 0.2})
	if stats.VirtualEvents != 0 {
		t.Fatalf("wdeq/amdahl run must never take the virtual path, got %+v", stats)
	}
	// Tracing disables certification (virtual segments invoke no policy, so
	// the trace would be incomplete).
	r := NewRunner()
	if err := r.RunInto(&Result{}, 8, WDEQPolicy{}, arrivals, Options{TraceDecisions: true}); err != nil {
		t.Fatal(err)
	}
	if got := r.LastQueueStats(); got.VirtualEvents != 0 {
		t.Fatalf("traced run must never take the virtual path, got %+v", got)
	}
}

// Boundary coverage for StepUntil/NextEventTime under the key heap:
// zero-volume tasks whose virtual keys land exactly on the clock, batches of
// identical keys resolved by the (key, id) tie-break, extreme magnitudes at
// the edges of the float range (keys that overflow to +Inf and tie there,
// subnormal keys, a virtual clock that itself overflows), and simultaneous
// capacity-step + completion ties under a time-varying platform. Every case
// runs under WDEQ and DEQ; both cores must end each run the same way, and
// in the way the case expects.
func TestEventQueueBoundaries(t *testing.T) {
	task := func(vol, w, delta float64) schedule.Task {
		return schedule.Task{Volume: vol, Weight: w, Delta: delta}
	}
	type boundaryCase struct {
		arrivals []Arrival
		// wdeqErr is a substring of the error both cores must return under
		// WDEQ; empty requires success. DEQ ignores weights, so no case
		// here starves it or overflows it: every DEQ run must succeed, and
		// every successful run must conserve work.
		wdeqErr string
	}
	cases := map[string]boundaryCase{
		// Zero-volume tasks at admission time: key = vnow exactly, popped at
		// the admitting event; several at once exercise the tie-break.
		"zero-volume-on-boundary": {arrivals: []Arrival{
			{Release: 0, Task: task(4, 1, 8)},
			{Release: 0.5, Task: task(0, 1, 8)},
			{Release: 0.5, Task: task(0, 2, 8)},
			{Release: 0.5, Task: task(3, 1, 8)},
			{Release: 2.5, Task: task(0, 1, 8)},
		}},
		// Identical (volume, weight) pairs admitted together map to one
		// virtual key: completion order must fall back to task IDs, not to
		// heap layout.
		"identical-keys": {arrivals: []Arrival{
			{Release: 0, Task: task(2, 1, 2)},
			{Release: 0, Task: task(2, 1, 2)},
			{Release: 0, Task: task(2, 1, 2)},
			{Release: 0, Task: task(2, 1, 2)},
			{Release: 1, Task: task(2, 1, 2)},
			{Release: 1, Task: task(2, 1, 2)},
		}},
		// Huge volumes: keys near the top of the float range, finite.
		"volume-1e300": {arrivals: []Arrival{
			{Release: 0, Task: task(1e300, 1, 8)},
			{Release: 0, Task: task(1, 1, 8)},
			{Release: 0.5, Task: task(1e300, 2, 8)},
			{Release: 0.5, Task: task(3, 1, 8)},
		}},
		// Subnormal volumes, under unit and tiny weights: keys that round
		// onto the clock.
		"volume-5e-324": {arrivals: []Arrival{
			{Release: 0, Task: task(2, 1, 8)},
			{Release: 0.25, Task: task(5e-324, 1, 8)},
			{Release: 0.25, Task: task(5e-324, 1e-300, 8)},
			{Release: 0.25, Task: task(1, 1, 8)},
			{Release: 0.5, Task: task(5e-324, 1, 8)},
		}},
		// A huge weight owns almost the whole capacity and shrinks its key
		// to ~1e-300 of its volume.
		"weight-1e300": {arrivals: []Arrival{
			{Release: 0, Task: task(1, 1, 8)},
			{Release: 0, Task: task(4, 1e300, 8)},
			{Release: 0.5, Task: task(2, 1e300, 8)},
			{Release: 0.5, Task: task(2, 1, 8)},
		}},
		// A tiny weight pushes a unit volume's key to 1e300.
		"weight-1e-300": {arrivals: []Arrival{
			{Release: 0, Task: task(1, 1e-300, 8)},
			{Release: 0, Task: task(1, 1, 8)},
			{Release: 0.5, Task: task(2, 1, 8)},
		}},
		// Two keys overflow to +Inf (volume 1e300 over weight 1e-10) and
		// tie there; once the finite task retires nothing can finish them,
		// so both cores report starvation.
		"inf-key-tie-starves": {arrivals: []Arrival{
			{Release: 0, Task: task(1e300, 1e-10, 8)},
			{Release: 0, Task: task(1e300, 1e-10, 8)},
			{Release: 0, Task: task(1, 1, 8)},
		}, wdeqErr: "starves all remaining tasks"},
		// The same +Inf tie, but an arrival released at 1e300 drives the
		// virtual clock itself to +Inf (vrate 4e10 over that gap), where
		// every key would be within tolerance: both cores fail at that event.
		"inf-key-tie-clock-overflow": {arrivals: []Arrival{
			{Release: 0, Task: task(1e300, 1e-10, 8)},
			{Release: 0, Task: task(1e300, 1e-10, 8)},
			{Release: 1e300, Task: task(1, 1, 8)},
		}, wdeqErr: "clock overflows"},
		// Weight 1e-300 under volume 1e300 overflows the key and its
		// completion tolerance alike, which would retire both tied tasks at
		// the first event: both cores refuse the first at admission.
		"inf-key-tie-tolerance-overflow": {arrivals: []Arrival{
			{Release: 0, Task: task(1e300, 1e-300, 8)},
			{Release: 0, Task: task(1e300, 1e-300, 8)},
			{Release: 0, Task: task(1, 1, 8)},
		}, wdeqErr: "completion tolerance overflows"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			for _, policy := range []Policy{WDEQPolicy{}, DEQPolicy{}} {
				label := name + "/" + policy.Name()
				wantErr := ""
				if policy.Name() == (WDEQPolicy{}).Name() {
					wantErr = tc.wdeqErr
				}
				res, _, err := requireCoresAgree(t, label, 8, policy, tc.arrivals, nil)
				switch {
				case wantErr == "" && err != nil:
					t.Fatalf("%s: %v", label, err)
				case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
					t.Fatalf("%s: err = %v, want one containing %q", label, err, wantErr)
				case err != nil:
					continue
				}
				for _, tm := range res.Tasks {
					if tm.Completion < tm.Release {
						t.Fatalf("%s: task %d completes before release: %+v", label, tm.ID, tm)
					}
					if v := tc.arrivals[tm.ID].Task.Volume; !(math.Abs(tm.Processed-v) <= 1e-6*math.Max(1, v)) {
						t.Fatalf("%s: task %d processed %g of volume %g", label, tm.ID, tm.Processed, v)
					}
				}
			}
		})
	}

	t.Run("capacity-step-completion-tie", func(t *testing.T) {
		// One task of volume 8 at full capacity 8 completes at t=1; the
		// platform steps at exactly t=1. The budget event and the completion
		// coalesce (or land back to back) identically under both cores.
		profile, err := stepfunc.FromSteps([]float64{0, 1, 3}, []float64{8, 2, 8})
		if err != nil {
			t.Fatal(err)
		}
		arrivals := []Arrival{
			{Release: 0, Task: task(8, 1, 8)},
			{Release: 0.25, Task: task(4, 1, 8)},
			{Release: 1, Task: task(2, 1, 8)},
		}
		if _, _, err := requireCoresAgree(t, "capacity-step-tie", 8, WDEQPolicy{}, arrivals, speedup.Platform{Profile: profile}); err != nil {
			t.Fatal(err)
		}
	})
}

// StepUntil must leave the stepper strictly past the horizon under the
// virtual core, including horizons that coincide exactly with completion
// events.
func TestStepUntilVirtualHorizon(t *testing.T) {
	arrivals := allocArrivals(t, 256, 23)
	for _, core := range []EventCore{CoreAuto, CoreNaive} {
		var res Result
		r := NewRunner()
		st, err := r.StartFeed(&res, 8, WDEQPolicy{}, nil, Options{EventCore: core})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrivals {
			if err := st.Feed(a); err != nil {
				t.Fatal(err)
			}
			// Drive exactly to the release: the admission event lands on the
			// horizon and must be processed by this call, not the next.
			if _, err := st.StepUntil(a.Release); err != nil {
				t.Fatal(err)
			}
			if nt := st.NextEventTime(); nt <= a.Release {
				t.Fatalf("core %v: NextEventTime %g not past horizon %g", core, nt, a.Release)
			}
		}
		st.CloseFeed()
		if _, err := st.StepUntil(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if err := st.Finish(); err != nil {
			t.Fatal(err)
		}
		if res.Completed != len(arrivals) {
			t.Fatalf("core %v: completed %d of %d", core, res.Completed, len(arrivals))
		}
	}
}

// Direct structure test of the key heap under the kernel's access pattern:
// pushes of keys below the current minimum, pops and arbitrary removals by
// swap-delete with the renumber fixup, and ties at equal and at infinite
// keys. Every pop must
// be the (key, id)-least live entry, and a heap rebuilt from the survivors
// must drain the same sorted (key, id) sequence as the one that grew.
func TestKeyHeapOrderedExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// retire swap-deletes slot k the way Stepper.removeSlot does.
	retire := func(q *keyHeap, live []liveTask, k int) []liveTask {
		q.removeSlot(live, k)
		last := len(live) - 1
		if k != last {
			live[k] = live[last]
			q.renumber(last, k)
		}
		return live[:last]
	}
	less := func(a, b liveTask) bool { return a.key < b.key || a.key == b.key && a.id < b.id }
	var live []liveTask
	var grown keyHeap
	grown.rebuild(live)
	pops := 0
	for step := 0; step < 4000; step++ {
		op := rng.Intn(8)
		switch {
		case op < 5 || len(live) == 0:
			key := rng.Float64() * 10
			switch rng.Intn(5) {
			case 0:
				if head, ok := grown.peekMin(); ok {
					key = live[head].key - rng.Float64() // below the minimum
				}
			case 1:
				key = math.Floor(key) // collide on integer keys
			case 2:
				key = math.Inf(1)
			case 3:
				key = 1e300 * rng.Float64()
			}
			live = append(live, liveTask{id: step, key: key})
			grown.push(live, len(live)-1)
		case op < 7:
			slot, ok := grown.peekMin()
			if !ok {
				t.Fatalf("step %d: empty heap over %d live slots", step, len(live))
			}
			for i := range live {
				if less(live[i], live[slot]) {
					t.Fatalf("step %d: popped (%g, %d) but (%g, %d) is less",
						step, live[slot].key, live[slot].id, live[i].key, live[i].id)
				}
			}
			live = retire(&grown, live, slot)
			pops++
		default:
			live = retire(&grown, live, rng.Intn(len(live)))
		}
	}
	if pops == 0 || len(live) < 100 {
		t.Fatalf("degenerate schedule: %d pops, %d survivors", pops, len(live))
	}

	want := append([]liveTask(nil), live...)
	sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
	liveB := append([]liveTask(nil), live...)
	var rebuilt keyHeap
	rebuilt.rebuild(liveB)
	for i, w := range want {
		gs, gok := grown.peekMin()
		rs, rok := rebuilt.peekMin()
		if !gok || !rok {
			t.Fatalf("premature empty at %d of %d: grown=%v rebuilt=%v", i, len(want), gok, rok)
		}
		if live[gs].key != w.key || live[gs].id != w.id || liveB[rs].key != w.key || liveB[rs].id != w.id {
			t.Fatalf("drain %d: grown (%g, %d), rebuilt (%g, %d), want (%g, %d)",
				i, live[gs].key, live[gs].id, liveB[rs].key, liveB[rs].id, w.key, w.id)
		}
		live = retire(&grown, live, gs)
		liveB = retire(&rebuilt, liveB, rs)
	}
	if _, ok := grown.peekMin(); ok {
		t.Fatal("grown heap not empty after draining")
	}
}

// deepBacklogArrivals is a deep certified backlog: large-delta tasks
// (δ > P/2, unit weights) at Poisson rate 200 on P=8, about 12x capacity, so
// the alive set climbs into the thousands and nearly every event is decided
// on the virtual clock.
func deepBacklogArrivals(t testing.TB, n int, seed int64) []Arrival {
	t.Helper()
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Class:   workload.LargeDelta,
		P:       8,
		Process: workload.Poisson,
		Rate:    200,
	}, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

// Deep backlogs keep thousands of keys in the heap, and each stream pushes
// keys in its own order relative to the clock: the equivalence must hold on
// every seed, not only on the stream a benchmark happens to time.
func TestEventCoreEquivalenceDeepBacklog(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		label := fmt.Sprintf("large-delta/rate200/seed%d", seed)
		auto, stats, err := requireCoresAgree(t, label, 8, WDEQPolicy{}, deepBacklogArrivals(t, 4096, seed), nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if auto.MaxAlive < 1000 || stats.VirtualEvents < stats.FallbackEvents {
			t.Fatalf("%s: not a deep virtual backlog: maxAlive %d, %+v", label, auto.MaxAlive, stats)
		}
	}
}

// hostileInfiniteKey is a legal stream whose second task's virtual key
// overflows to +Inf (volume 1e300 over weight 1e-10). Nothing can finish it,
// so the run must end in the starvation error under every core, within a
// deadline rather than the test binary's timeout.
var hostileInfiniteKey = []Arrival{
	{Release: 0, Task: schedule.Task{Volume: 1, Weight: 1, Delta: 8}},
	{Release: 0, Task: schedule.Task{Volume: 1e300, Weight: 1e-10, Delta: 8}},
	{Release: 0.5, Task: schedule.Task{Volume: 2, Weight: 1, Delta: 8}},
}

func TestEventQueueInfiniteKeyTerminates(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, _, err := runCoreErr(CoreAuto, 8, WDEQPolicy{}, hostileInfiniteKey, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "starves all remaining tasks") {
			t.Fatalf("err = %v, want the starvation error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("CoreAuto did not finish an infinite-key run within 30s")
	}
	requireCoresAgree(t, "infinite-key", 8, WDEQPolicy{}, hostileInfiniteKey, nil)
}

// FuzzEventQueueEquivalence drives random arrival/volume/curve sequences
// through the indexed-heap core and the retained naive reference and
// requires identical event sequences: same per-task completion rows, same
// aggregates, same path counters, same error. The input bytes are decoded
// three per arrival (release gap, volume, weight/delta/curve selector), which
// keeps the corpus dense in schedules that hit key collisions, zero volumes
// and mode transitions. The two top values of the volume and selector bytes
// reach the edges of the float range instead — volumes 1e300 and 5e-324,
// weights 1e-300 and 1e300 — so keys overflow to +Inf and tie there. Only an
// input that decodes one of those may end in an error (the same under both
// cores); every other input must run to completion.
func FuzzEventQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 255, 254, 253, 7, 7, 7})
	f.Add([]byte{10, 0, 200, 0, 0, 0, 31, 64, 9, 128, 130, 1, 90, 17, 3})
	f.Add([]byte{255, 255, 255, 255, 255, 255})
	f.Add([]byte{0, 16, 1, 0, 255, 255, 0, 255, 255, 32, 254, 254, 0, 32, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		arrivals := make([]Arrival, 0, len(data)/3)
		now := 0.0
		extreme := false
		for i := 0; i+2 < len(data); i += 3 {
			now += float64(data[i]) / 64
			vol := float64(data[i+1]) / 16 // includes exact zeros
			switch data[i+1] {
			case 255:
				vol = 1e300
			case 254:
				vol = 5e-324
			}
			sel := data[i+2]
			extreme = extreme || data[i+1] >= 254 || sel >= 254
			weight := 1 + float64(sel%7)/2
			switch sel {
			case 255:
				weight = 1e-300
			case 254:
				weight = 1e300
			}
			arrivals = append(arrivals, Arrival{
				Release: now,
				Tenant:  int(sel % 3),
				Task: schedule.Task{
					Volume: vol,
					Weight: weight,
					Delta:  1 + float64(sel%11),
					Curve:  float64(sel%4) / 4,
				},
			})
		}
		if len(arrivals) == 0 {
			t.Skip()
		}
		for _, policy := range []Policy{WDEQPolicy{}, DEQPolicy{}} {
			if _, _, err := requireCoresAgree(t, policy.Name(), 8, policy, arrivals, nil); err != nil && !extreme {
				t.Fatalf("%s: %v", policy.Name(), err)
			}
		}
	})
}
