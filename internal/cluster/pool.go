package cluster

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/malleable-sched/malleable/internal/engine"
)

// pool is the coordinator's persistent worker pool: workers goroutines, each
// statically owning the shards congruent to its index, woken together for
// one "window" of concurrent shard advancement and joined at a barrier
// before the router runs again. The static partition means a shard is only
// ever touched by one goroutine, so the engine's single-threaded steppers
// need no locking and every shard's event sequence is exactly the sequence
// the sequential coordinator would have produced.
//
// The barrier is an epoch counter plus a completion count, both atomic, with
// spin-yield waiting (runtime.Gosched) on both sides: windows are short —
// often a handful of events — so a channel round-trip per window would cost
// more than the window. Atomic operations carry the happens-before edges:
// the coordinator publishes the window's work before bumping the epoch, and
// each worker publishes its error slot before bumping done, so the race
// detector sees a clean handoff. The pool lives for one cluster run;
// close() retires the goroutines.
type pool struct {
	workers int
	owned   [][]int // worker -> statically owned shard indices
	work    func(shard int) error

	epoch   atomic.Uint64
	done    atomic.Int64
	stopped atomic.Bool
	errs    []error
	wg      sync.WaitGroup
}

// newPool starts workers goroutines over shards shards. workers must be in
// [2, shards].
func newPool(workers, shards int) *pool {
	p := &pool{
		workers: workers,
		owned:   make([][]int, workers),
		errs:    make([]error, workers),
	}
	for s := 0; s < shards; s++ {
		w := s % workers
		p.owned[w] = append(p.owned[w], s)
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.loop(w)
	}
	return p
}

func (p *pool) loop(w int) {
	defer p.wg.Done()
	seen := uint64(0)
	for {
		e := p.epoch.Load()
		if e == seen {
			if p.stopped.Load() {
				return
			}
			runtime.Gosched()
			continue
		}
		seen = e
		p.errs[w] = p.window(w)
		p.done.Add(1)
	}
}

// window runs the current work function over this worker's shards,
// converting a panic in policy or model code into an error so the
// coordinator fails the run instead of crashing the process.
func (p *pool) window(w int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("cluster: worker %d: panic: %v", w, rec)
		}
	}()
	for _, s := range p.owned[w] {
		if e := p.work(s); e != nil {
			return e
		}
	}
	return nil
}

// run executes one window: every worker applies work to its shards; run
// returns once all of them have reached the barrier, with the first (lowest
// worker index) error if any shard failed.
func (p *pool) run(work func(shard int) error) error {
	p.work = work
	p.done.Store(0)
	p.epoch.Add(1)
	for p.done.Load() < int64(p.workers) {
		runtime.Gosched()
	}
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// close retires the worker goroutines. Safe to call once, after the last
// window has returned.
func (p *pool) close() {
	p.stopped.Store(true)
	p.wg.Wait()
}

// taggedRow is one buffered shared-sink observation plus the global dispatch
// window it belongs to (see sinkBuffer).
type taggedRow struct {
	m      engine.TaskMetrics
	window int
}

// sinkBuffer stands in for the shared Config.Sink on one shard during
// batched execution: it records completions instead of forwarding them, so
// workers never touch the shared sink concurrently, and the coordinator
// replays the buffers into the real sink at the next barrier in exactly the
// order the sequential coordinator would have produced.
//
// That order is reconstructed from a per-row sort key. Sequentially, a row
// emitted at virtual time t by shard s is observed during the advance for
// global dispatch k, where k is the first dispatch whose release covers t
// AND that follows the feed that made the row's event schedulable on s —
// k = max(lastFeed_s+1, min{j : release_j >= t}) — and within one advance
// rows are interleaved by (time, shard index), lowest first. Both
// ingredients are computable shard-locally: the worker bumps floor past each
// arrival it feeds, and releases (the batch's global release sequence,
// shared read-only) gives the covering dispatch by binary search. Rows
// retiring after the batch's last dispatch take window len(releases), i.e.
// they sort after every dispatched window, which is where the sequential
// drain emits them.
type sinkBuffer struct {
	rows     []taggedRow
	releases []float64 // global releases of the current batch, shared read-only
	floor    int       // 1 + batch index of the last arrival fed to this shard
}

// Observe buffers one completion with its reconstructed dispatch window.
func (b *sinkBuffer) Observe(m engine.TaskMetrics) {
	k := sort.SearchFloat64s(b.releases, m.Completion)
	if k < b.floor {
		k = b.floor
	}
	b.rows = append(b.rows, taggedRow{m: m, window: k})
}

// reset prepares the buffer for the next batch.
func (b *sinkBuffer) reset(releases []float64) {
	b.rows = b.rows[:0]
	b.releases = releases
	b.floor = 0
}

// flushBuffers merges the per-shard buffers into the shared sink in the
// sequential coordinator's global order: ascending (window, completion time,
// shard index), within-shard order preserved. Each buffer is already sorted
// by that key (a shard's windows and times are non-decreasing), so an
// n-way head scan suffices; n is the shard count, a handful, so the scan
// beats a merge heap. head is caller-owned scratch of length len(bufs) so a
// flush per dispatch window stays allocation-free.
func flushBuffers(bufs []*sinkBuffer, sink engine.MetricSink, head []int) {
	for i := range head {
		head[i] = 0
	}
	for {
		best := -1
		var bestW int
		var bestT float64
		for s, b := range bufs {
			if head[s] >= len(b.rows) {
				continue
			}
			r := b.rows[head[s]]
			if best < 0 || r.window < bestW || (r.window == bestW && r.m.Completion < bestT) {
				best, bestW, bestT = s, r.window, r.m.Completion
			}
		}
		if best < 0 {
			return
		}
		sink.Observe(bufs[best].rows[head[best]].m)
		head[best]++
	}
}
