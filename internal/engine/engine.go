// Package engine is the single scheduling kernel of the library: a
// discrete-event loop that accepts a stream of task arrivals (release dates),
// maintains the alive set incrementally, re-invokes a scheduling policy only
// at events (arrivals, completions, platform-capacity changes), and records
// per-task flow-time metrics plus aggregate throughput.
//
// The kernel advances time exclusively through a speedup.Model — the mapping
// from an allocation of processors to an instantaneous processing rate. The
// paper's work-preserving model (linear speedup up to the per-task degree
// bound δ) is the default; concave power-law and Amdahl speedups, and
// step-function time-varying platform capacities, are drop-in Options.Model
// values rather than forks of the loop. Static instances — every task
// released at time zero, the setting of the paper's offline analyses — are
// replayed on the same kernel through RunStatic, which can also reconstruct
// the column-based schedule from the decision trace. The multi-shard driver
// in shard.go runs many independent engines concurrently and merges their
// statistics deterministically.
package engine

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/speedup"
)

// Arrival is one task of an online workload: the task itself, the time it
// becomes available, and the tenant that submitted it. It lives in the data
// model (internal/schedule) so that load generators do not depend on the
// engine; this alias is the name the rest of the library uses.
type Arrival = schedule.Arrival

// TaskState is what an online policy observes about an alive task. The
// Remaining field is clairvoyant information: non-clairvoyant policies must
// never read it — implement the Clairvoyant marker if a policy does, so the
// invariant tests (and readers) can tell the two classes apart.
type TaskState struct {
	// ID is the index of the task in the arrival stream.
	ID int
	// Tenant is the submitting tenant.
	Tenant int
	// Release is the task's arrival time.
	Release float64
	// Weight and Delta are the task's weight and effective degree bound
	// (already capped at the capacity available right now, so under a
	// time-varying platform Delta may shrink during an outage).
	Weight, Delta float64
	// Curve is the task's speedup-curve parameter (schedule.Task.Curve),
	// interpreted by the run's speedup model; 0 means the model default.
	Curve float64
	// Processed is the volume processed so far (observable in reality).
	Processed float64
	// Remaining is the remaining volume. Only clairvoyant baselines such as
	// SmithRatioPolicy may use it.
	Remaining float64
}

// shape projects the state down to what the speedup model may read.
func (t TaskState) shape() speedup.TaskShape {
	return speedup.TaskShape{Delta: t.Delta, Curve: t.Curve}
}

// Policy is an online allocation policy. Allocate follows the append-into-dst
// convention of the zero-allocation hot path: the engine passes a reusable
// buffer re-sliced to length zero, the policy appends one entry per alive
// task and returns the extended slice, aligned with alive. Entries must be
// non-negative, at most the task's Delta, and sum to at most p (the capacity
// available at this event). The engine validates these conditions and aborts
// the run if a policy violates them.
//
// Policies must be safe for concurrent use by multiple engine shards; all
// bundled policies are stateless values. A policy that needs internal scratch
// buffers should stay stateless and additionally implement RunCloner: the
// engine then clones it once per run and hands the scratch-holding clone to
// that run only.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Allocate appends the allocation of the alive tasks to dst and returns
	// the extended slice.
	Allocate(p float64, alive []TaskState, dst []float64) []float64
}

// RunCloner is an optional interface for policies that keep internal scratch:
// CloneForRun returns a fresh policy value with its own buffers, which the
// engine uses for exactly one run at a time. The original value therefore
// stays safe to share across concurrent shards even though its clones are
// stateful.
type RunCloner interface {
	CloneForRun() Policy
}

// PolicyEqualer is an optional interface for policies whose values are not
// comparable with == (typically because they hold a slice, such as a rank
// list). The Runner uses it to decide whether a cached per-run clone may be
// reused; without it an uncomparable policy is freshly cloned on every run,
// which costs a handful of allocations and would break the zero-allocation
// steady state of repeated runs.
type PolicyEqualer interface {
	// EqualPolicy reports whether other denotes the same policy
	// configuration as the receiver.
	EqualPolicy(other Policy) bool
}

// Clairvoyant is an optional marker interface for policies that read
// TaskState.Remaining. The paper's model is non-clairvoyant — volumes are
// unknown until a task completes — so every bundled policy except the
// smith-ratio baseline leaves this unimplemented, and the engine's invariant
// tests verify that unmarked policies are insensitive to the Remaining field.
type Clairvoyant interface {
	// Clairvoyant is a marker; it is never called.
	Clairvoyant()
}

// EqualShareCertifier is an optional Policy interface that certifies the
// engine's virtual-clock fast path. A policy implementing it promises: at any
// event where no alive task is degree-pinned — w_i·p/W ≤ Delta_i for every
// alive i, with w_i = EqualShareWeight(weight_i) and W = Σ w_j — Allocate
// hands every task exactly its proportional share w_i·p/W of the full
// capacity p. Under a linear speedup model the engine then advances such
// segments on a global attained-service clock without invoking the policy at
// all (see the event-core notes on Stepper), which is what turns the
// per-event O(alive) sweep into O(log alive).
//
// The certificate is about shares only; it grants the policy no information.
// The engine never passes task state here — a certified policy stays exactly
// as non-clairvoyant as its Allocate. WDEQ certifies with the task weight,
// DEQ with 1; priority/greedy policies are not equal-share and must not
// implement this.
type EqualShareCertifier interface {
	// EqualShareWeight maps a task's weight to its proportional-share weight.
	EqualShareWeight(weight float64) float64
}

// Decision records one policy invocation of a run.
type Decision struct {
	// Time is when the decision was taken.
	Time float64
	// Alive lists the IDs of the tasks alive at that time.
	Alive []int
	// Alloc gives the allocation of each alive task, aligned with Alive.
	Alloc []float64
}

// TaskMetrics is the per-task outcome of an online run.
type TaskMetrics struct {
	// ID is the index of the task in the arrival stream.
	ID int `json:"id"`
	// Tenant is the submitting tenant.
	Tenant int `json:"tenant"`
	// Weight is the task's weight.
	Weight float64 `json:"weight"`
	// Release and Completion bound the task's residence in the system.
	Release    float64 `json:"release"`
	Completion float64 `json:"completion"`
	// Flow is Completion - Release, the task's flow (response) time.
	Flow float64 `json:"flow"`
	// Processed is the volume the engine integrated for the task by the time
	// it retired; it equals the task's volume up to the completion tolerance
	// (the work-conservation invariant, asserted across models in tests).
	Processed float64 `json:"processed"`
}

// TenantMetrics aggregates the tasks of one tenant.
type TenantMetrics struct {
	// Tenant is the tenant index.
	Tenant int `json:"tenant"`
	// Tasks is the number of completed tasks.
	Tasks int `json:"tasks"`
	// WeightedFlow is Σ w_i·F_i over the tenant's tasks.
	WeightedFlow float64 `json:"weightedFlow"`
	// MeanFlow, StdFlow and MaxFlow summarize the tenant's flow times.
	MeanFlow float64 `json:"meanFlow"`
	StdFlow  float64 `json:"stdFlow"`
	MaxFlow  float64 `json:"maxFlow"`
}

// Result is the outcome of an online run.
type Result struct {
	// Policy is the name of the policy that produced the run.
	Policy string `json:"policy"`
	// P is the (nominal) platform capacity.
	P float64 `json:"p"`
	// Model is the name of the speedup model the run used.
	Model string `json:"model,omitempty"`
	// Tasks holds the per-task metrics, indexed by arrival-stream position.
	// Only the slice entry points (Run, RunInto — the full-retention
	// compatibility path) populate it; streaming runs leave it empty and
	// deliver per-task rows to the run's MetricSink instead, so a run's
	// memory stays O(alive tasks).
	Tasks []TaskMetrics `json:"tasks,omitempty"`
	// Completed is the number of tasks that completed. It equals len(Tasks)
	// on the retention path and is the only per-task count a streaming run
	// keeps.
	Completed int `json:"completed"`
	// Events is the number of policy invocations.
	Events int `json:"events"`
	// MaxAlive is the largest alive-set size observed (the peak backlog).
	MaxAlive int `json:"maxAlive"`
	// Makespan is the completion time of the last task.
	Makespan float64 `json:"makespan"`
	// WeightedFlow is Σ w_i·(C_i - r_i), the weighted flow time.
	WeightedFlow float64 `json:"weightedFlow"`
	// WeightedCompletion is Σ w_i·C_i, the objective of the offline paper.
	WeightedCompletion float64 `json:"weightedCompletion"`
	// TotalFlow is Σ (C_i - r_i).
	TotalFlow float64 `json:"totalFlow"`
	// Decisions is the recorded decision trace (only with
	// Options.TraceDecisions).
	Decisions []Decision `json:"-"`
}

// Throughput returns completed tasks per unit of (virtual) time.
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Makespan
}

// MeanFlow returns the mean flow time.
func (r *Result) MeanFlow() float64 {
	if r.Completed == 0 {
		return 0
	}
	return r.TotalFlow / float64(r.Completed)
}

// FlowTimes returns the flow time of every task, in arrival-stream order. It
// reads the retained Tasks table, so it is empty for streaming runs — use a
// SketchSink for flow quantiles there.
func (r *Result) FlowTimes() []float64 {
	out := make([]float64, len(r.Tasks))
	for i, t := range r.Tasks {
		out[i] = t.Flow
	}
	return out
}

// PerTenant aggregates the retained per-task metrics by tenant, sorted by
// tenant index. Streaming runs aggregate through an AggregateSink instead.
func (r *Result) PerTenant() []TenantMetrics {
	agg := NewAggregateSink()
	agg.ObserveResult(r)
	return agg.PerTenant()
}

// Options tunes a run.
type Options struct {
	// Model is the speedup model the kernel advances time with; nil means the
	// paper's work-preserving speedup.LinearCap. Models carrying a
	// speedup.Budgeter (time-varying capacity) additionally cap the policy's
	// budget and trigger an event at every capacity step.
	Model speedup.Model
	// TraceDecisions keeps the full decision trace in the result. It is off
	// by default — and that default matters: each traced event copies the
	// alive set and the allocation to the heap, so under sustained load the
	// trace both dominates memory and breaks the zero-allocation steady
	// state. Turn it on only for debugging or small replays.
	TraceDecisions bool
	// MaxEvents bounds the number of policy invocations; 0 means the default
	// safety bound 4n+64 (a correct run needs at most 3n+1), plus the model's
	// budget-change event bound when the model is time-varying.
	MaxEvents int
	// Probe, when non-nil, observes the run at its rest state — the engine
	// hands it an alloc-free Snapshot after each event that crosses a probe
	// interval (see ProbeEveryEvents and ProbeInterval; with both zero, every
	// event). The final event always fires with Snapshot.Done set. Probes are
	// called from the engine goroutine and must not block; see Probe.
	Probe Probe
	// ProbeEveryEvents fires the probe every k policy events (k > 0). It can
	// be combined with ProbeInterval; the probe fires when either threshold
	// is crossed.
	ProbeEveryEvents int
	// ProbeInterval fires the probe at the first event at or after each
	// multiple of the interval in virtual time (d > 0). The engine never
	// injects extra events for probing, so sampling cannot perturb the run:
	// an interval finer than the event spacing simply observes every event.
	ProbeInterval float64
	// EventCore selects the data structures behind the event loop's
	// completion search (see the EventCore doc in eventqueue.go). The default
	// CoreAuto is the indexed-heap core; CoreNaive is the linear-scan
	// reference. Results are identical under both — the knob exists for the
	// equivalence tests and for measuring the structures themselves.
	EventCore EventCore
}

// model resolves the configured speedup model, defaulting to the paper's.
func (o Options) model() speedup.Model {
	if o.Model == nil {
		return speedup.LinearCap{}
	}
	return o.Model
}

// liveTask is one alive task's slot in the Runner scratch: the arrival it
// was admitted from plus its integration state. The kernel holds exactly one
// liveTask per alive task and nothing per retired or pending task — that is
// the O(alive) memory contract of the streaming refactor.
//
// remaining/processed are authoritative only on the fallback path; on a
// virtual segment the task's whole integration state is the static key (see
// the event-core notes on Stepper) and remaining is materialized lazily when
// the segment ends or the task completes.
type liveTask struct {
	// The arrival fields the loop reads (the task name is never needed).
	release, weight, volume, delta, curve float64
	tenant                                int
	id                                    int
	remaining, processed                  float64

	// Virtual-clock state, valid while the run's policy certifies
	// equal-share (EqualShareCertifier): w is the certified share weight
	// and key is the virtual completion time vnow_assign + remaining/w
	// (valid while virtual). dratio and ktol derive from them.
	w, key float64
}

// dratio is the eligibility key min(Delta, p)/w: the virtual fast path
// engages while p/W ≤ min dratio, i.e. while no task is degree-pinned.
func (lt *liveTask) dratio(p float64) float64 { return math.Min(lt.delta, p) / lt.w }

// ktol is the fallback path's completion tolerance (remaining ≤
// 1e-9·max(1, volume)) mapped into key space.
func (lt *liveTask) ktol() float64 { return 1e-9 * math.Max(1, lt.volume) / lt.w }

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// Runner owns the reusable scratch of the engine event loop: the alive-task
// slots, the policy's view of the alive set, the allocation output buffer,
// the per-event rate vector, and (for the slice path) the arrival order.
// After a first run has grown the buffers, subsequent runs of similar
// backlog perform zero heap allocations per event in steady state (and zero
// per run when combined with RunInto).
//
// Scratch scales with the peak alive-set size, not the stream length: a
// ten-million-task streaming run with a bounded backlog reuses the same few
// slots for the whole run.
//
// A Runner is NOT safe for concurrent use; create one per goroutine (the
// sharded driver does exactly that). The zero value is ready to use.
type Runner struct {
	order  []int
	live   []liveTask
	states []TaskState
	alloc  []float64
	rates  []float64
	sorter arrivalSorter

	// Event-core scratch (CoreAuto): the (key, id) slot heap over virtual
	// completion keys, the delta-ratio eligibility heap, and a key buffer for
	// bulk rebuilds. All of it is rebuilt from r.live on demand (validity
	// flags).
	vq         keyHeap
	drh        idxHeap
	keyScratch []float64

	// Reusable source and sink adapters of the two entry points.
	slice   sliceSource
	checked checkedStream
	tasks   resultSink

	// step is the embedded resumable state machine of the event loop; one
	// Runner drives one stepper at a time, and embedding it keeps
	// StartStream/StartFeed allocation-free on reuse.
	step Stepper

	// policySrc/policyRun cache the per-run clone of scratch-holding
	// policies (RunCloner), so repeated runs with the same policy value skip
	// the clone allocation too.
	policySrc Policy
	policyRun Policy
}

// NewRunner returns an empty Runner. The zero value works too; the
// constructor exists for symmetry with the rest of the library.
func NewRunner() *Runner { return &Runner{} }

// instantiate resolves the policy value used for one run: scratch-holding
// policies are cloned via RunCloner (cached while the same policy value is
// passed again), stateless policies are used as-is.
func (r *Runner) instantiate(policy Policy) Policy {
	c, ok := policy.(RunCloner)
	if !ok {
		return policy
	}
	if r.policyRun != nil && samePolicy(policy, r.policySrc) {
		return r.policyRun
	}
	r.policySrc = policy
	r.policyRun = c.CloneForRun()
	return r.policyRun
}

// samePolicy reports whether two policy values are the same for the purpose
// of reusing a cached per-run clone. Policies implementing PolicyEqualer
// (uncomparable values holding slices) answer themselves without reflection,
// so the cache check stays allocation-free; otherwise Go equality is used
// after a value-level comparability check — a policy struct whose type is
// comparable can still wrap an uncomparable dynamic value, and == would
// panic on it.
func samePolicy(a, b Policy) bool {
	if eq, ok := a.(PolicyEqualer); ok {
		return eq.EqualPolicy(b)
	}
	return reflect.ValueOf(a).Comparable() && reflect.ValueOf(b).Comparable() && a == b
}

// RunInto executes the policy on the arrival stream, writing the outcome into
// res. Any previous contents of res are discarded, but its Tasks (and
// Decisions) storage is reused, so a warmed Runner driving the same res
// performs no heap allocation at all for untraced runs.
//
// This is the full-retention compatibility path: the whole slice is
// validated up front, sorted by release date if needed (ties broken by slice
// position, and task IDs always keep their slice positions), and every
// per-task row lands in res.Tasks. Callers that can consume arrivals lazily
// should use RunStreamInto with a MetricSink instead and keep memory
// O(alive tasks).
func (r *Runner) RunInto(res *Result, p float64, policy Policy, arrivals []Arrival, opts Options) error {
	n := len(arrivals)
	if n == 0 {
		return fmt.Errorf("engine: empty arrival stream")
	}
	for i, a := range arrivals {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("engine: arrival %d: %w", i, err)
		}
	}

	// Process arrivals in release order; ties broken by stream position so
	// runs are deterministic. Generators emit sorted streams, so the sort is
	// skipped entirely in the common case.
	presorted := true
	for i := 1; i < n; i++ {
		if arrivals[i].Release < arrivals[i-1].Release {
			presorted = false
			break
		}
	}
	var order []int
	if !presorted {
		r.order = r.order[:0]
		for i := 0; i < n; i++ {
			r.order = append(r.order, i)
		}
		// The comparator is a total order (ties fall back to the stream
		// position), so the unstable sort is deterministic.
		r.sorter = arrivalSorter{order: r.order, arrivals: arrivals}
		sort.Sort(&r.sorter)
		r.sorter.arrivals = nil
		order = r.order
	}
	r.slice = sliceSource{arrivals: arrivals, order: order}

	// Reset the result's task table, keeping the storage it already owns.
	tasks := res.Tasks
	if cap(tasks) < n {
		tasks = make([]TaskMetrics, n)
	} else {
		tasks = tasks[:n]
		for i := range tasks {
			tasks[i] = TaskMetrics{}
		}
	}
	r.tasks.tasks = tasks
	st, err := r.start(res, p, policy, &r.slice, &r.tasks, opts, tasks, false)
	if err == nil {
		err = st.drain()
	}
	r.slice = sliceSource{}
	r.tasks.tasks = nil
	return err
}

// RunStreamInto is the streaming entry point of the kernel: arrivals are
// pulled lazily from the stream (one look-ahead, validated and
// order-checked at the boundary), only alive tasks occupy scratch, and each
// completed task is handed to sink exactly once instead of being retained —
// so the memory of a run is O(peak alive tasks + sink size), independent of
// the stream length. res receives the aggregate metrics (Completed, Events,
// Makespan, flow sums); res.Tasks stays empty. sink may be nil to keep only
// the aggregates.
//
// Like RunInto, a warmed Runner driving a reused res (with sinks that do not
// allocate in steady state, like a warmed AggregateSink or SketchSink)
// performs no heap allocation per event.
//
// RunStreamInto is a thin drive-to-completion loop over the resumable
// Stepper; callers that need to suspend between events (or interleave many
// engines in one virtual timeline, like internal/cluster) use StartStream or
// StartFeed and drive the Stepper themselves.
func (r *Runner) RunStreamInto(res *Result, p float64, policy Policy, stream ArrivalStream, sink MetricSink, opts Options) error {
	st, err := r.StartStream(res, p, policy, stream, sink, opts)
	if err == nil {
		err = st.drain()
	}
	r.checked = checkedStream{}
	return err
}

// Stepper is the kernel event loop in resumable form: an explicit state
// machine that advances the run one event at a time and can be suspended
// between events. Its rest state is always "all events at times <= Now()
// have been processed and an allocation has been decided for the current
// alive set"; the integration toward the next event happens lazily at the
// start of the next Step. That lazy advance is what makes a suspended
// stepper composable: between two Step calls the clock has not committed
// past Now(), so a coordinator may still Feed an arrival with a release
// date before the shard's next internal event and the stepper will land on
// it exactly — the same arithmetic the monolithic loop used for its
// one-arrival look-ahead.
//
// A Stepper is obtained from StartStream (arrivals pulled from an
// ArrivalStream; end of stream ends the run) or StartFeed (arrivals handed
// in by Feed until CloseFeed; the coordinator form). It borrows its
// Runner's scratch buffers: one Runner drives one stepper at a time, and
// Step performs no heap allocation in steady state, exactly like the
// monolithic loop it replaces.
type Stepper struct {
	r      *Runner
	res    *Result
	policy Policy
	src    arrivalSource
	sink   MetricSink

	model       speedup.Model
	budgeter    speedup.Budgeter
	budgetBound int
	maxEvents   int
	eventBound  int
	trace       bool
	p           float64

	now      float64
	admitted int

	// One look-ahead into the source: `pending` is the next arrival not yet
	// released. Everything before it has been admitted; everything after it
	// has not been pulled — that look-ahead is the entire input-side memory.
	pending     Arrival
	pendingID   int
	havePending bool

	// Feed-mode state: arrivals queue here between Feed and the admit loop.
	// The queue stays tiny (a coordinator feeds at dispatch time and the
	// stepper consumes at its next event) and its storage is reused across
	// runs of the same Runner.
	feedable bool
	closed   bool
	feedQ    []Arrival
	feedHead int
	pulled   int
	fed      int
	lastFed  float64

	// decided marks the rest state: rates are valid for the current alive
	// set and dtComp holds the earliest completion delta. allocated is the
	// capacity the policy handed out at that decision (the router-visible
	// load signal).
	decided   bool
	dtComp    float64
	allocated float64

	// Event-core state. `certified` is fixed per run: the policy implements
	// EqualShareCertifier, the model is linear, and neither a time-varying
	// budget nor a decision trace is in play. On certified runs the stepper
	// switches per event between two segment modes:
	//
	//   - virtual (the fast path, taken while p/wsum ≤ min dratio, i.e. no
	//     alive task is degree-pinned): every task processes at rate
	//     w_i·p/W, so attained service per unit weight is global. vnow
	//     integrates it (vnow += vrate·dt with vrate = p/wsum) and each
	//     task's completion is the static key assigned when it entered the
	//     segment — no decrement sweep, no policy call; the next completion
	//     is the (key, id)-least slot of the key heap.
	//   - fallback (everything else): the pre-existing arithmetic, verbatim
	//     — eager decrement sweep, policy invocation, completion search by a
	//     scan over remaining/rate quotients under both cores.
	//
	// Mode transitions materialize or re-key the alive set in O(alive);
	// stats counts events on each path and the transitions between them.
	core      EventCore
	certified bool
	weigher   EqualShareCertifier
	virtual   bool
	vnow      float64
	vrate     float64
	wsum      float64
	stats     QueueStats

	// Probe state: the configured observer, its interval thresholds, and
	// the firing bookkeeping (events at last firing, next virtual-time grid
	// point, whether the final Done snapshot has been delivered).
	probe            Probe
	probeEveryEvents int
	probeInterval    float64
	probeLastEvents  int
	probeNext        float64
	probeFinal       bool

	done bool
	err  error
}

// start initializes the Runner's embedded stepper for one run. It performs
// the up-front validation the monolithic loop did (capacity, model probe,
// empty stream) so Step never has to re-check per event.
func (r *Runner) start(res *Result, p float64, policy Policy, src arrivalSource, sink MetricSink, opts Options, tasks []TaskMetrics, feedable bool) (*Stepper, error) {
	if !(p > 0) || !finite(p) {
		return nil, fmt.Errorf("engine: platform capacity must be positive and finite, got %g", p)
	}
	model := opts.model()
	if opts.Model != nil {
		// Probe non-default models once per run: a model violating the Rate
		// contract (negative, decreasing, non-zero at zero) would otherwise
		// produce plausible-looking nonsense or hang the dt search. The
		// default LinearCap is exempt — it is the contract's reference point
		// and the probe would tax the hot path for nothing.
		if err := speedup.Validate(opts.Model); err != nil {
			return nil, err
		}
	}
	budgeter, _ := model.(speedup.Budgeter)
	budgetBound := 0
	if budgeter != nil {
		// Each capacity step is crossed at most once (time strictly
		// increases between events), so the bound stays finite.
		budgetBound = budgeter.BudgetEventBound()
	}
	if !opts.EventCore.valid() {
		return nil, fmt.Errorf("engine: unknown event core %d (want CoreAuto or CoreNaive)", int(opts.EventCore))
	}

	*res = Result{Policy: policy.Name(), P: p, Model: model.Name(), Tasks: tasks, Decisions: res.Decisions[:0]}

	st := &r.step
	*st = Stepper{
		r:           r,
		res:         res,
		policy:      r.instantiate(policy),
		src:         src,
		sink:        sink,
		model:       model,
		budgeter:    budgeter,
		budgetBound: budgetBound,
		maxEvents:   opts.MaxEvents,
		trace:       opts.TraceDecisions,
		p:           p,
		feedable:    feedable,
		feedQ:       st.feedQ[:0],

		probe:            opts.Probe,
		probeEveryEvents: opts.ProbeEveryEvents,
		probeInterval:    opts.ProbeInterval,

		core: opts.EventCore,
	}
	// Certify the virtual-clock fast path for this run: equal-share policy,
	// linear speedup, full capacity always available, no decision trace (the
	// trace records policy invocations, and virtual segments make none).
	st.weigher, _ = st.policy.(EqualShareCertifier)
	st.certified = st.weigher != nil && budgeter == nil && !opts.TraceDecisions &&
		speedup.IsLinear(model)
	if st.certified && st.core == CoreAuto {
		r.drh.reset(0)
	} else {
		r.drh.valid = false
	}
	r.vq.valid = false
	// The event safety bound starts at its zero-admissions value and grows
	// incrementally at admit time (+4 per task), so process() never has to
	// recompute it per event.
	st.eventBound = opts.MaxEvents
	if st.eventBound <= 0 {
		st.eventBound = 64 + budgetBound
	}
	r.live = r.live[:0]
	if !feedable {
		if err := st.pull(); err != nil {
			return nil, err
		}
		if !st.havePending {
			return nil, fmt.Errorf("engine: empty arrival stream")
		}
	}
	return st, nil
}

// StartStream begins a resumable streaming run over a pulled arrival stream
// (validated and order-checked at the boundary, exactly like RunStreamInto).
// The returned Stepper is embedded in the Runner — one active stepper per
// Runner — and stays valid until the Runner starts another run.
func (r *Runner) StartStream(res *Result, p float64, policy Policy, stream ArrivalStream, sink MetricSink, opts Options) (*Stepper, error) {
	if stream == nil {
		return nil, fmt.Errorf("engine: nil arrival stream")
	}
	r.checked = checkedStream{stream: stream}
	st, err := r.start(res, p, policy, &r.checked, sink, opts, res.Tasks[:0], false)
	if err != nil {
		r.checked = checkedStream{}
		return nil, err
	}
	return st, nil
}

// StartFeed begins a resumable run whose arrivals are handed in one at a
// time via Feed instead of pulled from a stream — the entry point of the
// cluster coordinator, which routes one global arrival stream across many
// steppers. The run does not end when the stepper drains: it suspends
// (Step returns false with Done() still false) until more arrivals are fed
// or CloseFeed declares the stream over.
func (r *Runner) StartFeed(res *Result, p float64, policy Policy, sink MetricSink, opts Options) (*Stepper, error) {
	return r.start(res, p, policy, nil, sink, opts, res.Tasks[:0], true)
}

// pull advances the one-arrival look-ahead from the source (stream mode) or
// the fed queue (feed mode).
func (st *Stepper) pull() error {
	if st.feedable {
		if st.feedHead < len(st.feedQ) {
			st.pending = st.feedQ[st.feedHead]
			st.feedHead++
			if st.feedHead == len(st.feedQ) {
				// Queue drained: rewind so the backing array is reused.
				st.feedQ = st.feedQ[:0]
				st.feedHead = 0
			}
			st.pendingID = st.pulled
			st.pulled++
			st.havePending = true
		} else {
			st.havePending = false
		}
		return nil
	}
	a, id, ok, err := st.src.next()
	if err != nil {
		return err
	}
	st.pending, st.pendingID, st.havePending = a, id, ok
	return nil
}

// Feed hands one arrival to a feed-mode stepper. Arrivals must be fed in
// non-decreasing release order and never before the stepper's current time
// (a coordinator dispatches at the arrival's release, so both hold by
// construction there). Task IDs number arrivals in feed order.
func (st *Stepper) Feed(a Arrival) error {
	if !st.feedable {
		return fmt.Errorf("engine: Feed on a stream-driven stepper (use StartFeed)")
	}
	if st.closed {
		return fmt.Errorf("engine: Feed after CloseFeed")
	}
	if st.err != nil {
		return st.err
	}
	if err := a.Validate(); err != nil {
		return fmt.Errorf("engine: fed arrival %d: %w", st.fed, err)
	}
	if st.fed > 0 && a.Release < st.lastFed {
		return fmt.Errorf("engine: fed arrival %d: release %g precedes %g — arrivals must be fed in non-decreasing release order", st.fed, a.Release, st.lastFed)
	}
	if a.Release < st.now {
		return fmt.Errorf("engine: fed arrival %d: release %g is in the stepper's past (now %g)", st.fed, a.Release, st.now)
	}
	st.lastFed = a.Release
	st.fed++
	if !st.havePending && st.feedHead == len(st.feedQ) {
		st.pending = a
		st.pendingID = st.pulled
		st.pulled++
		st.havePending = true
		return nil
	}
	st.feedQ = append(st.feedQ, a)
	return nil
}

// FeedBatch feeds a release-sorted run of arrivals, advancing the stepper
// through every event at or before each arrival's release before that
// arrival is handed over. It is equivalent — event for event, bit for bit —
// to the per-arrival interleave
//
//	for _, a := range batch {
//		st.StepUntil(a.Release)
//		st.Feed(a)
//	}
//
// with Feed's per-call entry checks and validation hoisted out of the loop:
// the whole batch is validated up front (with the same position-labelled
// errors Feed produces, and before any event is processed), and the fused
// loop then pays one advance-and-enqueue per arrival instead of re-checking
// the stepper's mode, closure and error state each time. The batched cluster
// coordinator is the intended caller — one FeedBatch per shard per dispatch
// window. An empty batch is a no-op. The returned count is the number of
// events processed while advancing.
func (st *Stepper) FeedBatch(batch []Arrival) (int, error) {
	if !st.feedable {
		return 0, fmt.Errorf("engine: FeedBatch on a stream-driven stepper (use StartFeed)")
	}
	if st.closed {
		return 0, fmt.Errorf("engine: FeedBatch after CloseFeed")
	}
	if st.err != nil {
		return 0, st.err
	}
	last := st.lastFed
	for i := range batch {
		a := &batch[i]
		if err := a.Validate(); err != nil {
			return 0, fmt.Errorf("engine: fed arrival %d: %w", st.fed+i, err)
		}
		if st.fed+i > 0 && a.Release < last {
			return 0, fmt.Errorf("engine: fed arrival %d: release %g precedes %g — arrivals must be fed in non-decreasing release order", st.fed+i, a.Release, last)
		}
		last = a.Release
	}
	// Checking the first release against now covers the whole batch: the
	// advance below never steps past the release it is advancing toward, and
	// the batch is non-decreasing, so no later arrival can fall behind the
	// clock either.
	if len(batch) > 0 && batch[0].Release < st.now {
		return 0, fmt.Errorf("engine: fed arrival %d: release %g is in the stepper's past (now %g)", st.fed, batch[0].Release, st.now)
	}
	steps := 0
	for _, a := range batch {
		n, err := st.StepUntil(a.Release)
		steps += n
		if err != nil {
			return steps, err
		}
		st.lastFed = a.Release
		st.fed++
		if !st.havePending && st.feedHead == len(st.feedQ) {
			st.pending = a
			st.pendingID = st.pulled
			st.pulled++
			st.havePending = true
			continue
		}
		st.feedQ = append(st.feedQ, a)
	}
	return steps, nil
}

// CloseFeed declares the fed stream over: once the queue and the alive set
// drain, the run completes instead of suspending.
func (st *Stepper) CloseFeed() { st.closed = true }

// Now returns the stepper's current virtual time: every event at or before
// it has been processed.
func (st *Stepper) Now() float64 { return st.now }

// Backlog returns the number of alive tasks — the live load signal routers
// observe at dispatch time. It is exact at any instant up to the stepper's
// next event, because the alive set only changes at events.
func (st *Stepper) Backlog() int { return len(st.r.live) }

// Allocated returns the capacity the policy handed out at the current
// decision (0 when the stepper is idle) — the second router-visible load
// signal: a shard may have a deep backlog yet allocate little of its
// capacity when every alive task is degree-bound.
func (st *Stepper) Allocated() float64 {
	if !st.decided {
		return 0
	}
	return st.allocated
}

// Completed returns the number of tasks retired so far.
func (st *Stepper) Completed() int { return st.res.Completed }

// Done reports whether the run has completed. A feed-mode stepper whose
// Step returned false with Done() still false is merely blocked waiting for
// more arrivals (or a CloseFeed).
func (st *Stepper) Done() bool { return st.done }

// Err returns the run's terminal error, if any.
func (st *Stepper) Err() error { return st.err }

// nextDelta computes the delta to the stepper's next event from its rest
// state: the earliest completion under the decided rates (dtComp), the
// pending arrival, or the next capacity change, whichever comes first.
// Arrival and capacity events are known by their absolute times; `snap`
// remembers the winning one so the clock lands on it exactly — now +
// (c - now) can round to just below c, and without the snap the same
// breakpoint would be crossed twice (a duplicate near-zero-dt event).
// Completions were folded into dtComp first, so snap only reflects the
// later absolute-time candidates.
func (st *Stepper) nextDelta() (dt, snap float64) {
	dt = st.dtComp
	snap = math.NaN()
	if st.havePending {
		if rel := st.pending.Release; rel-st.now < dt {
			dt = rel - st.now
			snap = rel
		}
	}
	if st.budgeter != nil {
		// NextBudgetChange returns a time strictly after now, so dt stays
		// positive and every capacity step is crossed at most once.
		if c := st.budgeter.NextBudgetChange(st.now); c-st.now < dt {
			dt = c - st.now
			snap = c
		}
	}
	return dt, snap
}

// NextEventTime returns the absolute virtual time of the stepper's next
// event, or +Inf when none is scheduled (run done, or a feed-mode stepper
// blocked until more arrivals are fed). It is pure: a coordinator may call
// it repeatedly between Steps to order many steppers on one timeline.
func (st *Stepper) NextEventTime() float64 {
	if st.done || st.err != nil {
		return math.Inf(1)
	}
	if !st.decided {
		if st.havePending {
			return st.pending.Release
		}
		return math.Inf(1)
	}
	dt, snap := st.nextDelta()
	if !math.IsNaN(snap) {
		return snap
	}
	if math.IsInf(dt, 1) {
		return math.Inf(1)
	}
	return st.now + dt
}

// Step advances the run by one event: integrate to the next event time
// (using the rates decided at the previous event), then admit every arrival
// released by then, retire every exhausted task, and re-invoke the policy
// once — simultaneous arrivals and completions at the same instant are
// coalesced, the event granularity of the paper's model. Between events
// every alive task i processes Model.Rate(shape_i, alloc_i)·dt units of
// work; under the default LinearCap model that is exactly the paper's
// alloc_i·dt.
//
// Step returns true while the run can make progress. It returns false when
// the run has completed (Done() true), failed (the error is returned and
// sticky), or — feed mode only — when the stepper is blocked waiting for
// more arrivals.
func (st *Stepper) Step() (bool, error) {
	ok, err := st.stepOnce()
	// Probe at the rest state the event left behind. A suspended feed-mode
	// stepper (ok false, not done) processed nothing, so nothing fires; nor
	// do further Step calls after the final Done snapshot was delivered.
	if st.probe != nil && err == nil && (ok || (st.done && !st.probeFinal)) {
		st.observeProbe()
	}
	return ok, err
}

// StepUntil advances the run through every event at or before horizon and
// returns the number of events processed. It is the coordinator's bulk drive
// primitive: one call replaces a NextEventTime/Step loop (each Step would
// otherwise recompute the delta NextEventTime just computed) and leaves the
// stepper at its rest state with NextEventTime() > horizon — done, blocked,
// or waiting on a strictly later event. A +Inf horizon drains every
// scheduled event.
func (st *Stepper) StepUntil(horizon float64) (int, error) {
	steps := 0
	for {
		t := st.NextEventTime()
		if math.IsInf(t, 1) || t > horizon {
			return steps, nil
		}
		ok, err := st.Step()
		if err != nil {
			return steps, err
		}
		steps++
		if !ok {
			return steps, nil
		}
	}
}

// stepOnce is Step without the probe hook — the state machine itself.
func (st *Stepper) stepOnce() (bool, error) {
	if st.err != nil {
		return false, st.err
	}
	if st.done {
		return false, nil
	}
	if st.decided {
		dt, snap := st.nextDelta()
		if math.IsInf(dt, 1) {
			if st.feedable && !st.closed {
				// Every alive task is starved and nothing is queued, but the
				// feed is still open: a later arrival may change the
				// allocation, so suspend instead of failing.
				return false, nil
			}
			st.err = fmt.Errorf("engine: policy %q starves all remaining tasks at time %g with no pending arrivals", st.policy.Name(), st.now)
			return false, st.err
		}
		if st.virtual {
			// Virtual segment: the whole alive set advances through one
			// clock update — the per-task integration state is the static
			// completion key, so there is nothing per-task to sweep.
			st.vnow += st.vrate * dt
		} else {
			r := st.r
			for k := range r.live {
				if r.rates[k] <= 0 {
					continue
				}
				r.live[k].remaining -= r.rates[k] * dt
				r.live[k].processed += r.rates[k] * dt
			}
		}
		st.now += dt
		if !math.IsNaN(snap) {
			st.now = snap
		}
		st.decided = false
		if !finite(st.now) || !finite(st.vnow) {
			// Past an overflowed clock every key is within tolerance and
			// every retirement reads ∞ − ∞: fail instead of retiring tasks
			// with a NaN or infinite Processed.
			st.err = fmt.Errorf("engine: policy %q: the clock overflows at time %g (virtual clock %g)", st.policy.Name(), st.now, st.vnow)
			return false, st.err
		}
	} else if len(st.r.live) == 0 {
		// Idle (or initial) state: nothing alive, so the next event is the
		// pending arrival — or the end of the run.
		if !st.havePending {
			if st.feedable && !st.closed {
				return false, nil // blocked until Feed or CloseFeed
			}
			st.done = true
			return false, nil
		}
		if st.pending.Release > st.now {
			st.now = st.pending.Release
		}
	}
	return st.process()
}

// process runs the event at the current time: admit, retire, decide. It
// leaves the stepper in its rest state (decided, idle, or done).
func (st *Stepper) process() (bool, error) {
	r := st.r
	res := st.res
	// Admit every arrival released by now, then retire every task whose
	// volume is exhausted (including zero-volume tasks that were just
	// admitted). Doing both before the policy call coalesces simultaneous
	// arrivals and completions into one event.
	for st.havePending && st.pending.Release <= st.now {
		a := &st.pending
		lt := liveTask{release: a.Release, weight: a.Task.Weight, volume: a.Task.Volume,
			delta: a.Task.Delta, curve: a.Task.Curve, tenant: a.Tenant,
			id: st.pendingID, remaining: a.Task.Volume}
		if st.certified {
			lt.w = st.weigher.EqualShareWeight(lt.weight)
			if !finite(lt.ktol()) {
				// A tolerance of +Inf retires the task at the first virtual
				// event whatever work it got: refuse the task instead of
				// breaking work conservation.
				st.err = fmt.Errorf("engine: policy %q: task %d: completion tolerance overflows (volume %g over share weight %g)",
					st.policy.Name(), lt.id, lt.volume, lt.w)
				return false, st.err
			}
			st.wsum += lt.w
			if st.virtual {
				lt.key = st.vnow + lt.remaining/lt.w
			}
		}
		slot := len(r.live)
		r.live = append(r.live, lt)
		if st.core == CoreAuto {
			if r.drh.valid {
				r.drh.push(slot, lt.dratio(st.p))
			}
			if st.virtual && r.vq.valid {
				r.vq.push(r.live, slot)
			}
		}
		st.admitted++
		if st.maxEvents <= 0 {
			// The safety bound grows with the admitted prefix (a correct run
			// needs at most 3 events per admitted task), so it needs no
			// advance knowledge of the stream length.
			st.eventBound += 4
		}
		if err := st.pull(); err != nil {
			st.err = err
			return false, err
		}
	}
	if st.virtual {
		st.retireVirtual()
	} else {
		for k := 0; k < len(r.live); {
			lt := &r.live[k]
			if lt.remaining > 1e-9*math.Max(1, lt.volume) {
				k++
				continue
			}
			st.emitRetired(lt, lt.processed)
			// Retire by swap-delete: order within the slots is not meaningful
			// (policies rank tasks themselves), so compaction is O(1) per
			// completion instead of an O(alive) rebuild.
			st.removeSlot(k)
		}
	}
	if len(r.live) > res.MaxAlive {
		res.MaxAlive = len(r.live)
	}
	if len(r.live) == 0 {
		st.decided = false
		// Re-anchor the certified bookkeeping at every idle point: wsum
		// collects FP residue from the += / -= pairs, and resetting the
		// virtual clock keeps keys small over arbitrarily long streams.
		st.virtual = false
		st.vnow = 0
		st.wsum = 0
		r.vq.valid = false
		if !st.havePending && !(st.feedable && !st.closed) {
			st.done = true
			return false, nil
		}
		// Idle: the next Step jumps to the pending arrival (or suspends, in
		// feed mode, until one is fed).
		return true, nil
	}

	// The capacity the policy may hand out right now: the nominal p,
	// further capped by the model's time-varying budget if it has one.
	budget := st.p
	if st.budgeter != nil {
		budget = st.budgeter.BudgetAt(st.p, st.now)
		if budget < 0 || math.IsNaN(budget) {
			budget = 0
		}
	}

	res.Events++
	if res.Events > st.eventBound {
		st.err = fmt.Errorf("engine: policy %q did not finish after %d events (%d of %d admitted tasks done at time %g)",
			st.policy.Name(), res.Events, res.Completed, st.admitted, st.now)
		return false, st.err
	}

	// Certified equal-share segment: while no alive task is degree-pinned
	// (p/W ≤ min dratio ⟺ w_i·p/W ≤ Delta_i for all i), the policy's answer
	// is known to be the proportional split of the full capacity, so skip
	// the invocation entirely and decide on the virtual clock.
	if st.certified && st.wsum > 0 && st.p/st.wsum <= st.minDratio() {
		if !st.virtual {
			st.enterVirtual()
		}
		st.stats.VirtualEvents++
		st.vrate = st.p / st.wsum
		st.allocated = st.p
		slot, _ := st.minKeySlot()
		st.dtComp = (r.live[slot].key - st.vnow) / st.vrate
		st.decided = true
		return true, nil
	}
	if st.virtual {
		st.leaveVirtual()
	}
	st.stats.FallbackEvents++

	r.states = r.states[:0]
	for i := range r.live {
		lt := &r.live[i]
		r.states = append(r.states, TaskState{
			ID:        lt.id,
			Tenant:    lt.tenant,
			Release:   lt.release,
			Weight:    lt.weight,
			Delta:     math.Min(lt.delta, budget),
			Curve:     lt.curve,
			Processed: lt.processed,
			Remaining: lt.remaining,
		})
	}
	r.alloc = st.policy.Allocate(budget, r.states, r.alloc[:0])
	alloc := r.alloc
	total, err := validateAllocation(budget, r.states, alloc)
	if err != nil {
		st.err = fmt.Errorf("engine: policy %q: %w", st.policy.Name(), err)
		return false, st.err
	}
	st.allocated = total
	if st.trace {
		d := Decision{Time: st.now, Alloc: append([]float64(nil), alloc...)}
		for i := range r.live {
			d.Alive = append(d.Alive, r.live[i].id)
		}
		res.Decisions = append(res.Decisions, d)
	}

	// Decide the rates and the earliest completion delta; the actual clock
	// advance happens lazily at the start of the next Step, after any
	// intervening Feed has had its chance to bound it. Both cores scan: every
	// running task's quotient can change at every fallback event, so no index
	// beats the plain minimum, and a parked task (rate 0) has no quotient.
	dt := math.Inf(1)
	r.rates = r.rates[:0]
	for k := range r.live {
		rate := 0.0
		if alloc[k] > 0 {
			rate = st.model.Rate(r.states[k].shape(), alloc[k])
		}
		r.rates = append(r.rates, rate)
		if rate <= 0 {
			continue
		}
		if d := r.live[k].remaining / rate; d < dt {
			dt = d
		}
	}
	st.dtComp = dt
	st.decided = true
	return true, nil
}

// emitRetired records one completed task at the current time: the sink row
// and every aggregate the result keeps.
func (st *Stepper) emitRetired(lt *liveTask, processed float64) {
	res := st.res
	m := TaskMetrics{
		ID:         lt.id,
		Tenant:     lt.tenant,
		Weight:     lt.weight,
		Release:    lt.release,
		Completion: st.now,
		Flow:       st.now - lt.release,
		Processed:  processed,
	}
	if st.sink != nil {
		st.sink.Observe(m)
	}
	res.WeightedFlow += m.Weight * m.Flow
	res.WeightedCompletion += m.Weight * st.now
	res.TotalFlow += m.Flow
	if st.now > res.Makespan {
		res.Makespan = st.now
	}
	res.Completed++
}

// removeSlot retires live slot k by swap-delete and keeps the certified
// bookkeeping and every valid index structure coherent with the move.
func (st *Stepper) removeSlot(k int) {
	r := st.r
	if st.certified {
		st.wsum -= r.live[k].w
	}
	if st.core == CoreAuto {
		if r.drh.valid {
			r.drh.removeSlot(k)
		}
		if r.vq.valid {
			r.vq.removeSlot(r.live, k)
		}
	}
	last := len(r.live) - 1
	if k != last {
		r.live[k] = r.live[last]
		if st.core == CoreAuto {
			if r.drh.valid {
				r.drh.renumber(last, k)
			}
			if r.vq.valid {
				r.vq.renumber(last, k)
			}
		}
	}
	r.live = r.live[:last]
}

// retireVirtual pops completions off the virtual queue in (key, id) order
// while the head key is within its completion tolerance of the clock. The
// remaining keys are then strictly ahead of vnow, so the next decided dt is
// strictly positive.
func (st *Stepper) retireVirtual() {
	r := st.r
	for len(r.live) > 0 {
		slot, ok := st.minKeySlot()
		if !ok {
			return
		}
		lt := &r.live[slot]
		if lt.key > st.vnow+lt.ktol() {
			return
		}
		rem := lt.w * (lt.key - st.vnow)
		st.emitRetired(lt, lt.volume-rem)
		st.removeSlot(slot)
	}
}

// minKeySlot returns the slot holding the (key, id)-least virtual completion
// key: the key heap under CoreAuto (rebuilt from the live slots if a run
// start or transition invalidated it), the reference scan under CoreNaive.
func (st *Stepper) minKeySlot() (int, bool) {
	r := st.r
	if len(r.live) == 0 {
		return 0, false
	}
	if st.core == CoreAuto {
		if !r.vq.valid {
			r.vq.rebuild(r.live)
		}
		return r.vq.peekMin()
	}
	best := 0
	for i := 1; i < len(r.live); i++ {
		if r.live[i].key < r.live[best].key ||
			(r.live[i].key == r.live[best].key && r.live[i].id < r.live[best].id) {
			best = i
		}
	}
	return best, true
}

// minDratio returns the least delta-ratio of the alive set — the eligibility
// bound of the virtual fast path.
func (st *Stepper) minDratio() float64 {
	r := st.r
	if st.core == CoreAuto {
		if !r.drh.valid {
			r.keyScratch = growFloat(r.keyScratch, len(r.live))
			for i := range r.live {
				r.keyScratch[i] = r.live[i].dratio(st.p)
			}
			r.drh.rebuild(r.keyScratch[:len(r.live)])
		}
		return r.drh.min()
	}
	min := math.Inf(1)
	for i := range r.live {
		if d := r.live[i].dratio(st.p); d < min {
			min = d
		}
	}
	return min
}

// enterVirtual starts a virtual segment: every alive task's completion is
// frozen into a key on the attained-service clock (key = vnow + remaining/w,
// using the remaining the fallback path just integrated), and the key heap is
// bulk-loaded from those keys.
func (st *Stepper) enterVirtual() {
	r := st.r
	st.stats.Transitions++
	st.virtual = true
	for i := range r.live {
		lt := &r.live[i]
		lt.key = st.vnow + lt.remaining/lt.w
	}
	if st.core == CoreAuto {
		r.vq.rebuild(r.live)
	}
}

// leaveVirtual ends a virtual segment: remaining/processed are materialized
// from the keys (remaining = w·(key − vnow); retirement already popped every
// key within tolerance of vnow, so the result is strictly positive), after
// which the fallback path owns the integration state again.
func (st *Stepper) leaveVirtual() {
	r := st.r
	st.stats.Transitions++
	st.virtual = false
	for i := range r.live {
		lt := &r.live[i]
		rem := lt.w * (lt.key - st.vnow)
		lt.remaining = rem
		lt.processed = lt.volume - rem
	}
	r.vq.valid = false
}

// LastQueueStats returns the event-core counters of the Runner's most recent
// (or in-progress) run — the observable record of which path decided the
// run's events.
func (r *Runner) LastQueueStats() QueueStats { return r.step.stats }

// drain drives the stepper to completion — the monolithic run loop.
func (st *Stepper) drain() error {
	for {
		ok, err := st.Step()
		if err != nil {
			return err
		}
		if !ok {
			return st.Finish()
		}
	}
}

// Finish reports the run's terminal state: nil after a clean completion,
// the sticky error after a failure, and a distinct error when the run is
// still in progress (Step would still advance it, or a feed-mode stepper is
// blocked on its feed).
func (st *Stepper) Finish() error {
	if st.err != nil {
		return st.err
	}
	if !st.done {
		return fmt.Errorf("engine: run not finished (%d tasks alive at time %g)", len(st.r.live), st.now)
	}
	return nil
}

// arrivalSorter orders the index slice by (release date, stream position). It
// lives in the Runner so sorting reuses one sort.Interface value instead of a
// fresh closure per run.
type arrivalSorter struct {
	order    []int
	arrivals []Arrival
}

func (s *arrivalSorter) Len() int      { return len(s.order) }
func (s *arrivalSorter) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *arrivalSorter) Less(i, j int) bool {
	a, b := s.order[i], s.order[j]
	if s.arrivals[a].Release != s.arrivals[b].Release {
		return s.arrivals[a].Release < s.arrivals[b].Release
	}
	return a < b
}

// validateAllocation checks a policy's output against the engine contract
// and returns the allocated total (the Stepper's Allocated() snapshot).
func validateAllocation(p float64, states []TaskState, alloc []float64) (float64, error) {
	if len(alloc) != len(states) {
		return 0, fmt.Errorf("allocation has %d entries for %d alive tasks", len(alloc), len(states))
	}
	var total float64
	for k, a := range alloc {
		if a < -1e-9 || math.IsNaN(a) {
			return 0, fmt.Errorf("negative allocation %g for task %d", a, states[k].ID)
		}
		if a > states[k].Delta+1e-6 {
			return 0, fmt.Errorf("allocation %g for task %d exceeds its degree bound %g", a, states[k].ID, states[k].Delta)
		}
		total += a
	}
	if total > p+1e-6 {
		return 0, fmt.Errorf("allocation total %g exceeds the platform capacity %g", total, p)
	}
	return total, nil
}
