package engine

import (
	"github.com/malleable-sched/malleable/internal/schedule"
	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/stepfunc"
)

// StaticResult is the outcome of a static run: the engine result of the
// time-zero arrival stream plus, under volume-conserving linear models, the
// column-based schedule reconstructed from the decision trace.
type StaticResult struct {
	Result
	// Schedule is the run rendered as a valid column-based schedule of the
	// instance. It is nil when the run used a non-linear speedup model: a
	// ColumnSchedule's allocation profiles must integrate to the task
	// volumes, which only holds when rate equals allocation.
	Schedule *schedule.ColumnSchedule
}

// StaticArrivals converts a static instance into the equivalent arrival
// stream: every task released at time zero, in instance order.
func StaticArrivals(inst *schedule.Instance) []Arrival {
	arrivals := make([]Arrival, inst.N())
	for i := range arrivals {
		arrivals[i] = Arrival{Task: inst.Tasks[i]}
	}
	return arrivals
}

// RunStatic replays a static instance — the offline setting of the paper,
// all tasks available at time zero — on the online kernel. This is the
// library's only execution loop: the former internal/sim simulator is
// expressed as RunStatic with the identity options.
//
// Under a linear model (Options.Model nil or speedup.LinearCap) the decision
// trace is additionally folded into per-task allocation step functions and
// returned as a validated ColumnSchedule; with non-linear models the
// Schedule field stays nil and only the engine metrics are meaningful.
func RunStatic(inst *schedule.Instance, policy Policy, opts Options) (*StaticResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	buildSchedule := speedup.IsLinear(opts.Model)
	runOpts := opts
	if buildSchedule {
		// The schedule is reconstructed from the trace, so force it on.
		runOpts.TraceDecisions = true
	}
	res := &Result{}
	if err := NewRunner().RunInto(res, inst.P, policy, StaticArrivals(inst), runOpts); err != nil {
		return nil, err
	}
	out := &StaticResult{Result: *res}
	if !buildSchedule {
		return out, nil
	}
	s, err := scheduleFromTrace(inst, res)
	if err != nil {
		return nil, err
	}
	out.Schedule = s
	if !opts.TraceDecisions {
		// The caller did not ask for the trace; drop the forced copy.
		out.Decisions = nil
	}
	return out, nil
}

// scheduleFromTrace rebuilds the per-task allocation profiles from the
// decision trace of a completed run. Decisions bracket every completion (a
// completion is an event), so each task's profile is piecewise constant
// between consecutive decision times, and the last decision's interval ends
// at the makespan.
func scheduleFromTrace(inst *schedule.Instance, res *Result) (*schedule.ColumnSchedule, error) {
	n := inst.N()
	profiles := make([]*stepfunc.StepFunc, n)
	completions := make([]float64, n)
	for i := 0; i < n; i++ {
		profiles[i] = stepfunc.Constant(0)
		completions[i] = res.Tasks[i].Completion
	}
	for j, d := range res.Decisions {
		end := res.Makespan
		if j+1 < len(res.Decisions) {
			end = res.Decisions[j+1].Time
		}
		for k, id := range d.Alive {
			if d.Alloc[k] > 0 {
				profiles[id].AddOn(d.Time, end, d.Alloc[k])
			}
		}
	}
	return schedule.FromAllocationFunctions(inst, completions, profiles)
}
