package engine

import (
	"math"
	"testing"
)

// recordingProbe retains every snapshot (test-only; real probes keep
// constant state).
type recordingProbe struct {
	snaps []Snapshot
}

func (p *recordingProbe) ObserveSnapshot(s Snapshot) { p.snaps = append(p.snaps, s) }

// Without intervals a probe observes every event exactly once, ends with a
// single Done snapshot, and every snapshot is internally consistent
// (admitted = completed + backlog — the rest-state guarantee).
func TestProbeEveryEvent(t *testing.T) {
	arrivals := allocArrivals(t, 256, 11)
	probe := &recordingProbe{}
	res := &Result{}
	if err := NewRunner().RunInto(res, 8, WDEQPolicy{}, arrivals, Options{Probe: probe}); err != nil {
		t.Fatal(err)
	}
	if len(probe.snaps) == 0 {
		t.Fatal("probe never fired")
	}
	var done int
	for i, s := range probe.snaps {
		if s.Admitted != s.Completed+s.Backlog {
			t.Fatalf("snapshot %d inconsistent: admitted %d != completed %d + backlog %d", i, s.Admitted, s.Completed, s.Backlog)
		}
		if i > 0 && s.Now < probe.snaps[i-1].Now {
			t.Fatalf("snapshot %d time went backwards: %g after %g", i, s.Now, probe.snaps[i-1].Now)
		}
		if s.Done {
			done++
		}
	}
	if done != 1 || !probe.snaps[len(probe.snaps)-1].Done {
		t.Fatalf("want exactly one final Done snapshot at the end, got %d", done)
	}
	last := probe.snaps[len(probe.snaps)-1]
	if last.Completed != res.Completed || last.Backlog != 0 {
		t.Fatalf("final snapshot: completed %d backlog %d, want %d and 0", last.Completed, last.Backlog, res.Completed)
	}
	if last.Now != res.Makespan {
		t.Fatalf("final snapshot at %g, want makespan %g", last.Now, res.Makespan)
	}
	if last.WeightedFlow != res.WeightedFlow || last.TotalFlow != res.TotalFlow {
		t.Fatalf("final snapshot flow sums %g/%g, want %g/%g", last.WeightedFlow, last.TotalFlow, res.WeightedFlow, res.TotalFlow)
	}
	// Every event observed: the probe fires once per policy invocation plus
	// the pure-retirement and final events, so at least Events samples.
	if len(probe.snaps) < res.Events {
		t.Fatalf("%d snapshots for %d events", len(probe.snaps), res.Events)
	}
}

// An event-count interval thins the samples: successive firings are at least
// k events apart, and the final Done snapshot still always arrives.
func TestProbeEventInterval(t *testing.T) {
	arrivals := allocArrivals(t, 512, 12)
	probe := &recordingProbe{}
	res := &Result{}
	if err := NewRunner().RunInto(res, 8, WDEQPolicy{}, arrivals, Options{Probe: probe, ProbeEveryEvents: 16}); err != nil {
		t.Fatal(err)
	}
	if len(probe.snaps) < 2 {
		t.Fatalf("want several samples, got %d", len(probe.snaps))
	}
	for i := 1; i < len(probe.snaps)-1; i++ {
		if gap := probe.snaps[i].Events - probe.snaps[i-1].Events; gap < 16 {
			t.Fatalf("samples %d and %d only %d events apart", i-1, i, gap)
		}
	}
	if !probe.snaps[len(probe.snaps)-1].Done {
		t.Fatal("missing final Done snapshot")
	}
	if got := len(probe.snaps); got > res.Events/16+2 {
		t.Fatalf("%d samples for %d events at interval 16", got, res.Events)
	}
}

// A virtual-time interval produces one sample per crossed grid point: under
// a dense event stream that is ~makespan/interval samples, and never two
// samples inside one interval (except the final Done one).
func TestProbeTimeInterval(t *testing.T) {
	arrivals := allocArrivals(t, 512, 13)
	const interval = 5.0
	probe := &recordingProbe{}
	res := &Result{}
	if err := NewRunner().RunInto(res, 8, WDEQPolicy{}, arrivals, Options{Probe: probe, ProbeInterval: interval}); err != nil {
		t.Fatal(err)
	}
	want := int(math.Floor(res.Makespan / interval))
	if len(probe.snaps) < want {
		t.Fatalf("%d samples over makespan %g at interval %g, want >= %d", len(probe.snaps), res.Makespan, interval, want)
	}
	for i := 1; i < len(probe.snaps)-1; i++ {
		if probe.snaps[i].Now-probe.snaps[i-1].Now < 0 {
			t.Fatalf("sample %d time went backwards", i)
		}
		// Two non-final samples in the same grid cell would mean the
		// threshold failed to advance.
		if math.Floor(probe.snaps[i].Now/interval) == math.Floor(probe.snaps[i-1].Now/interval) &&
			probe.snaps[i].Now != probe.snaps[i-1].Now {
			t.Fatalf("samples %d and %d both in grid cell %g", i-1, i, math.Floor(probe.snaps[i].Now/interval))
		}
	}
	if !probe.snaps[len(probe.snaps)-1].Done {
		t.Fatal("missing final Done snapshot")
	}
}

// countingProbe is the constant-state form a production collector takes: it
// overwrites scalars and never allocates.
type countingProbe struct {
	fired int
	last  Snapshot
}

func (p *countingProbe) ObserveSnapshot(s Snapshot) { p.fired++; p.last = s }

// The probe hook preserves the zero-allocation steady state: a warmed Runner
// re-running the same workload with a probe attached at every event performs
// no heap allocation at all.
func TestProbeZeroAllocSteadyState(t *testing.T) {
	arrivals := allocArrivals(t, 512, 99)
	runner := NewRunner()
	res := &Result{}
	probe := &countingProbe{}
	opts := Options{Probe: probe}
	var runErr error
	run := func() {
		if err := runner.RunInto(res, 8, WDEQPolicy{}, arrivals, opts); err != nil {
			runErr = err
		}
	}
	run() // warm the scratch
	if runErr != nil {
		t.Fatal(runErr)
	}
	allocs := testing.AllocsPerRun(10, run)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Fatalf("probed steady-state run allocates %.1f allocs/run, want 0", allocs)
	}
	if probe.fired == 0 || !probe.last.Done {
		t.Fatalf("probe fired %d times, last done=%v", probe.fired, probe.last.Done)
	}
}

// A suspended feed-mode stepper (blocked on its feed) fires no probe: only
// committed events are observable.
func TestProbeFeedModeSuspension(t *testing.T) {
	runner := NewRunner()
	res := &Result{}
	probe := &recordingProbe{}
	st, err := runner.StartFeed(res, 4, WDEQPolicy{}, nil, Options{Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing fed: Step suspends and must not fire.
	if ok, err := st.Step(); ok || err != nil {
		t.Fatalf("empty feed Step = (%v, %v), want suspension", ok, err)
	}
	if len(probe.snaps) != 0 {
		t.Fatalf("suspended stepper fired %d probes", len(probe.snaps))
	}
	if err := st.Feed(Arrival{Task: task(2, 1, 2), Release: 1}); err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if len(probe.snaps) == 0 {
		t.Fatal("fed event did not fire the probe")
	}
	before := len(probe.snaps)
	st.CloseFeed()
	for {
		ok, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	last := probe.snaps[len(probe.snaps)-1]
	if !last.Done {
		t.Fatalf("feed-mode run missing final Done snapshot (had %d, now %d samples)", before, len(probe.snaps))
	}
	// Post-done Steps are inert: no further samples.
	if ok, err := st.Step(); ok || err != nil {
		t.Fatalf("post-done Step = (%v, %v)", ok, err)
	}
	if len(probe.snaps) != 0 && probe.snaps[len(probe.snaps)-1] != last {
		t.Fatal("post-done Step fired the probe again")
	}
}
