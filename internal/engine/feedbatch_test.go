package engine

import (
	"math"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/workload"
)

// feedBatchPair starts two identical feed-mode steppers so a test can drive
// one through FeedBatch and the other through the per-arrival
// StepUntil+Feed interleave that FeedBatch promises to reproduce bitwise.
func feedBatchPair(t testing.TB, opts Options) (batched, interleaved *Stepper, resB, resI *Result, sinkB, sinkI *captureSink) {
	t.Helper()
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	resB, resI = &Result{}, &Result{}
	sinkB, sinkI = &captureSink{}, &captureSink{}
	batched, err = NewRunner().StartFeed(resB, 8, policy, sinkB, opts)
	if err != nil {
		t.Fatal(err)
	}
	interleaved, err = NewRunner().StartFeed(resI, 8, policy, sinkI, opts)
	if err != nil {
		t.Fatal(err)
	}
	return batched, interleaved, resB, resI, sinkB, sinkI
}

// feedInterleaved reproduces the loop FeedBatch is specified against.
func feedInterleaved(t testing.TB, st *Stepper, batch []Arrival) int {
	t.Helper()
	steps := 0
	for _, a := range batch {
		n, err := st.StepUntil(a.Release)
		if err != nil {
			t.Fatal(err)
		}
		steps += n
		if err := st.Feed(a); err != nil {
			t.Fatal(err)
		}
	}
	return steps
}

// assertRestStateEqual compares the observable rest state of two steppers —
// the signals a coordinator reads between dispatch windows.
func assertRestStateEqual(t testing.TB, got, want *Stepper) {
	t.Helper()
	if got.Now() != want.Now() || got.Backlog() != want.Backlog() ||
		got.Allocated() != want.Allocated() || got.Completed() != want.Completed() {
		t.Fatalf("rest states diverge: now %g/%g backlog %d/%d allocated %g/%g completed %d/%d",
			got.Now(), want.Now(), got.Backlog(), want.Backlog(),
			got.Allocated(), want.Allocated(), got.Completed(), want.Completed())
	}
}

func drainAndFinish(t testing.TB, st *Stepper) {
	t.Helper()
	st.CloseFeed()
	if _, err := st.StepUntil(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}

// FeedBatch on a window-sized batch must reproduce the per-arrival
// StepUntil+Feed interleave bitwise: same step counts, same rest state at
// every window boundary, same aggregates and sink rows at the end.
func TestFeedBatchMatchesInterleave(t *testing.T) {
	for _, model := range []string{"", "powerlaw:0.75"} {
		t.Run("model="+model, func(t *testing.T) {
			arrivals := allocArrivals(t, 500, 29)
			opts := Options{}
			if model != "" {
				m, err := speedup.ParseModel(model)
				if err != nil {
					t.Fatal(err)
				}
				opts.Model = m
			}
			stB, stI, resB, resI, sinkB, sinkI := feedBatchPair(t, opts)
			const window = 64
			for lo := 0; lo < len(arrivals); lo += window {
				hi := min(lo+window, len(arrivals))
				nB, err := stB.FeedBatch(arrivals[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				nI := feedInterleaved(t, stI, arrivals[lo:hi])
				if nB != nI {
					t.Fatalf("window %d..%d: FeedBatch processed %d events, interleave %d", lo, hi, nB, nI)
				}
				assertRestStateEqual(t, stB, stI)
			}
			drainAndFinish(t, stB)
			drainAndFinish(t, stI)
			if !aggregateEqual(resB, resI) {
				t.Fatalf("batched run diverges:\n%+v\nvs\n%+v", resB, resI)
			}
			if len(sinkB.rows) != len(sinkI.rows) {
				t.Fatalf("row counts differ: %d vs %d", len(sinkB.rows), len(sinkI.rows))
			}
			for i := range sinkI.rows {
				if sinkB.rows[i] != sinkI.rows[i] {
					t.Fatalf("row %d differs: %+v vs %+v", i, sinkB.rows[i], sinkI.rows[i])
				}
			}
		})
	}
}

// An empty batch is a no-op: no events, no error, no state change.
func TestFeedBatchEmpty(t *testing.T) {
	stB, _, _, _, _, _ := feedBatchPair(t, Options{})
	if _, err := stB.FeedBatch([]Arrival{{Task: schedule.Task{Weight: 1, Volume: 1, Delta: 2}, Release: 0}}); err != nil {
		t.Fatal(err)
	}
	before := stB.Now()
	fedBefore := stB.Backlog()
	n, err := stB.FeedBatch(nil)
	if n != 0 || err != nil {
		t.Fatalf("empty FeedBatch = (%d, %v), want (0, nil)", n, err)
	}
	if stB.Now() != before || stB.Backlog() != fedBefore {
		t.Fatal("empty FeedBatch mutated the stepper")
	}
}

// Batch validation happens up front with Feed's position numbering, and a
// rejected batch leaves the stepper untouched — no partial feeds, no
// processed events.
func TestFeedBatchValidation(t *testing.T) {
	arr := func(rel float64) Arrival {
		return Arrival{Task: schedule.Task{Weight: 1, Volume: 1, Delta: 2}, Release: rel}
	}
	st, _, _, _, _, _ := feedBatchPair(t, Options{})
	if _, err := st.FeedBatch([]Arrival{arr(0), arr(1), arr(2)}); err != nil {
		t.Fatal(err)
	}

	// Out-of-order inside the batch: rejected with the global position of
	// the offending arrival (3 already fed, so index 1 of the batch is
	// arrival 4), and nothing from the batch lands.
	n, err := st.FeedBatch([]Arrival{arr(5), arr(4)})
	if err == nil || !strings.Contains(err.Error(), "fed arrival 4") || !strings.Contains(err.Error(), "non-decreasing") {
		t.Fatalf("misordered batch error = %v", err)
	}
	if n != 0 {
		t.Fatalf("rejected batch processed %d events", n)
	}
	// First element behind the already-fed watermark is also misordered.
	if _, err := st.FeedBatch([]Arrival{arr(1)}); err == nil || !strings.Contains(err.Error(), "fed arrival 3") {
		t.Fatalf("batch behind watermark error = %v", err)
	}
	// An invalid arrival is rejected with its position.
	bad := arr(6)
	bad.Task.Weight = -1
	if _, err := st.FeedBatch([]Arrival{arr(5), bad}); err == nil || !strings.Contains(err.Error(), "fed arrival 4") {
		t.Fatalf("invalid arrival error = %v", err)
	}
	// The stepper is untouched: the batch that failed three times still
	// feeds cleanly.
	if _, err := st.FeedBatch([]Arrival{arr(5), arr(6)}); err != nil {
		t.Fatalf("batch after rejected batches: %v", err)
	}

	// A batch behind the clock is rejected before any event is processed.
	past, _, _, _, _, _ := feedBatchPair(t, Options{})
	if _, err := past.FeedBatch([]Arrival{arr(4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := past.StepUntil(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := past.FeedBatch([]Arrival{arr(4.2)}); err == nil || !strings.Contains(err.Error(), "past") {
		t.Fatalf("batch into the past error = %v", err)
	}

	// Mode and closure checks mirror Feed's.
	policy, err := PolicyByName("wdeq")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	streamed, err := NewRunner().StartStream(&res, 8, policy, NewSliceStream([]Arrival{arr(0)}), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamed.FeedBatch([]Arrival{arr(1)}); err == nil || !strings.Contains(err.Error(), "StartFeed") {
		t.Fatalf("FeedBatch on stream stepper error = %v", err)
	}
	st.CloseFeed()
	if _, err := st.FeedBatch([]Arrival{arr(7)}); err == nil || !strings.Contains(err.Error(), "CloseFeed") {
		t.Fatalf("FeedBatch after close error = %v", err)
	}
}

// A batch whose releases straddle a platform capacity step must advance
// through the budget-change events exactly like the interleave — the
// capacity steps land between arrivals of the same batch.
func TestFeedBatchStraddlesCapacityStep(t *testing.T) {
	m, err := speedup.ParseModel("platform:8@0,3@10,8@25")
	if err != nil {
		t.Fatal(err)
	}
	arr := func(rel, vol float64) Arrival {
		return Arrival{Task: schedule.Task{Weight: 1, Volume: vol, Delta: 4}, Release: rel}
	}
	// Releases at 2, 8, 12, 24, 30: the batch crosses the capacity drop at
	// t=10 and the restore at t=25 while tasks are in flight.
	batch := []Arrival{arr(2, 20), arr(8, 6), arr(12, 10), arr(24, 4), arr(30, 2)}
	stB, stI, resB, resI, _, _ := feedBatchPair(t, Options{Model: m})
	nB, err := stB.FeedBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	nI := feedInterleaved(t, stI, batch)
	if nB != nI {
		t.Fatalf("FeedBatch processed %d events across the capacity steps, interleave %d", nB, nI)
	}
	assertRestStateEqual(t, stB, stI)
	drainAndFinish(t, stB)
	drainAndFinish(t, stI)
	if !aggregateEqual(resB, resI) {
		t.Fatalf("capacity-step run diverges:\n%+v\nvs\n%+v", resB, resI)
	}
}

// FeedBatch must resume a suspended stepper (drained queue, feed still
// open) exactly like per-arrival Feed does.
func TestFeedBatchResumesSuspendedStepper(t *testing.T) {
	arr := func(rel, vol float64) Arrival {
		return Arrival{Task: schedule.Task{Weight: 1, Volume: vol, Delta: 2}, Release: rel}
	}
	// The second window opens long after the first drains, so the suspended
	// clock sits well before its releases.
	first := []Arrival{arr(0, 2), arr(1, 2), arr(3, 1), arr(4, 3)}
	second := []Arrival{arr(50, 2), arr(51, 1), arr(51, 4)}
	stB, stI, resB, resI, _, _ := feedBatchPair(t, Options{})
	if _, err := stB.FeedBatch(first); err != nil {
		t.Fatal(err)
	}
	feedInterleaved(t, stI, first)
	// Drain both past the last fed release: queue empty, feed open — the
	// steppers suspend rather than finish.
	for _, st := range []*Stepper{stB, stI} {
		if _, err := st.StepUntil(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if st.Done() {
			t.Fatal("stepper finished with the feed still open")
		}
	}
	assertRestStateEqual(t, stB, stI)
	// The second batch opens in the suspended steppers' future and must
	// revive both identically.
	if _, err := stB.FeedBatch(second); err != nil {
		t.Fatal(err)
	}
	feedInterleaved(t, stI, second)
	drainAndFinish(t, stB)
	drainAndFinish(t, stI)
	if !aggregateEqual(resB, resI) {
		t.Fatalf("suspended-resume run diverges:\n%+v\nvs\n%+v", resB, resI)
	}
}

// FuzzFeedBatchEquivalence pins the tentpole claim: chunking an arbitrary
// generated stream through FeedBatch at an arbitrary window size is
// bitwise-equivalent to the one-at-a-time StepUntil+Feed interleave, for
// fixed, sublinear and platform capacity models alike.
func FuzzFeedBatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(7), uint8(0))
	f.Add(int64(99), uint8(200), uint8(1), uint8(1))
	f.Add(int64(-12), uint8(255), uint8(64), uint8(2))
	f.Add(int64(7777), uint8(16), uint8(255), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, window uint8, sel uint8) {
		count := 1 + int(n)
		arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
			Class:   workload.Uniform,
			P:       8,
			Process: workload.Poisson,
			Rate:    1 + float64(sel%8),
		}, count, seed)
		if err != nil {
			t.Skip()
		}
		opts := Options{}
		switch sel % 3 {
		case 1:
			m, err := speedup.ParseModel("powerlaw:0.8")
			if err != nil {
				t.Fatal(err)
			}
			opts.Model = m
		case 2:
			m, err := speedup.ParseModel("platform:8@0,3@10,8@25")
			if err != nil {
				t.Fatal(err)
			}
			opts.Model = m
		}
		stB, stI, resB, resI, sinkB, sinkI := feedBatchPair(t, opts)
		w := 1 + int(window)
		for lo := 0; lo < len(arrivals); lo += w {
			hi := min(lo+w, len(arrivals))
			nB, err := stB.FeedBatch(arrivals[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			nI := feedInterleaved(t, stI, arrivals[lo:hi])
			if nB != nI {
				t.Fatalf("window %d..%d: FeedBatch processed %d events, interleave %d", lo, hi, nB, nI)
			}
			assertRestStateEqual(t, stB, stI)
		}
		drainAndFinish(t, stB)
		drainAndFinish(t, stI)
		if !aggregateEqual(resB, resI) {
			t.Fatalf("batched run diverges:\n%+v\nvs\n%+v", resB, resI)
		}
		if len(sinkB.rows) != len(sinkI.rows) {
			t.Fatalf("row counts differ: %d vs %d", len(sinkB.rows), len(sinkI.rows))
		}
		for i := range sinkI.rows {
			if sinkB.rows[i] != sinkI.rows[i] {
				t.Fatalf("row %d differs: %+v vs %+v", i, sinkB.rows[i], sinkI.rows[i])
			}
		}
	})
}
