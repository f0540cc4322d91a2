package engine

import (
	"math"
	"testing"

	"github.com/malleable-sched/malleable/internal/speedup"
	"github.com/malleable-sched/malleable/internal/stepfunc"
)

// invariantModels is the model matrix the kernel invariants are checked
// against: the paper's default plus every bundled extension.
func invariantModels(t *testing.T) map[string]speedup.Model {
	t.Helper()
	profile, err := stepfunc.FromSteps([]float64{0, 10, 20, 30}, []float64{8, 3, 0, 8})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]speedup.Model{
		"linear":   speedup.LinearCap{},
		"powerlaw": speedup.PowerLaw{Alpha: 0.6},
		"amdahl":   speedup.Amdahl{Sigma: 0.2},
		"platform": speedup.Platform{Profile: profile},
	}
}

// invariantPolicies is the policy matrix: every bundled policy, including a
// priority policy (not reachable through PolicyByName).
func invariantPolicies(t *testing.T, n int) map[string]Policy {
	t.Helper()
	priority := make([]int, n)
	for i := range priority {
		priority[i] = (i * 7) % n
	}
	out := map[string]Policy{"priority": PriorityPolicy{Priority: priority}}
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = p
	}
	return out
}

// Work conservation: whatever the policy and the speedup model, the volume
// the kernel integrates for a task between its release and its completion
// must equal the task's volume (within the completion tolerance). This is
// the invariant that guards the model-threaded advance step — a rate/dt
// mismatch anywhere would show up here.
func TestInvariantWorkConservation(t *testing.T) {
	arrivals := allocArrivals(t, 192, 23)
	for modelName, model := range invariantModels(t) {
		for policyName, policy := range invariantPolicies(t, len(arrivals)) {
			res := &Result{}
			if err := NewRunner().RunInto(res, 8, policy, arrivals, Options{Model: model}); err != nil {
				t.Fatalf("%s/%s: %v", modelName, policyName, err)
			}
			for i, tm := range res.Tasks {
				v := arrivals[i].Task.Volume
				tol := 1e-6 * math.Max(1, v)
				if math.Abs(tm.Processed-v) > tol {
					t.Fatalf("%s/%s: task %d processed %g of volume %g (|Δ| > %g)",
						modelName, policyName, i, tm.Processed, v, tol)
				}
				if tm.Completion < tm.Release {
					t.Fatalf("%s/%s: task %d completes at %g before its release %g",
						modelName, policyName, i, tm.Completion, tm.Release)
				}
			}
		}
	}
}

// remainingPoisoner hands the wrapped policy a copy of the alive set whose
// Remaining fields are garbage. A non-clairvoyant policy must be oblivious;
// any read of Remaining changes its allocations and fails the comparison in
// TestInvariantNonClairvoyance.
type remainingPoisoner struct {
	inner Policy
}

func (p remainingPoisoner) Name() string { return p.inner.Name() }

func (p remainingPoisoner) Allocate(capacity float64, alive []TaskState, dst []float64) []float64 {
	poisoned := make([]TaskState, len(alive))
	for i, s := range alive {
		s.Remaining = 1e300 + float64(s.ID)*1e290 // garbage, but distinct per task
		poisoned[i] = s
	}
	return p.inner.Allocate(capacity, poisoned, dst)
}

// certifiedPoisoner additionally forwards the wrapped policy's equal-share
// certificate (a function of the task weight only, so the wrapper cannot leak
// Remaining through it). Without the forward, honest and poisoned runs of a
// certified policy would take different event cores — virtual-clock vs
// fallback — and the comparison would measure the wrapper, not the policy.
// poisonPolicy picks the wrapper so uncertified policies stay uncertified
// when wrapped.
type certifiedPoisoner struct {
	remainingPoisoner
	cert EqualShareCertifier
}

func (p certifiedPoisoner) EqualShareWeight(weight float64) float64 {
	return p.cert.EqualShareWeight(weight)
}

func poisonPolicy(inner Policy) Policy {
	if c, ok := inner.(EqualShareCertifier); ok {
		return certifiedPoisoner{remainingPoisoner{inner: inner}, c}
	}
	return remainingPoisoner{inner: inner}
}

// Non-clairvoyance: every bundled policy that does not carry the Clairvoyant
// marker must produce the identical run when the Remaining field it is not
// supposed to read is replaced by garbage. The marker itself is part of the
// contract: smith-ratio must carry it.
func TestInvariantNonClairvoyance(t *testing.T) {
	arrivals := allocArrivals(t, 192, 29)
	if _, ok := Policy(SmithRatioPolicy{}).(Clairvoyant); !ok {
		t.Fatalf("smith-ratio must be marked Clairvoyant")
	}
	for modelName, model := range invariantModels(t) {
		for policyName, policy := range invariantPolicies(t, len(arrivals)) {
			if _, clairvoyant := policy.(Clairvoyant); clairvoyant {
				continue
			}
			honest := &Result{}
			if err := NewRunner().RunInto(honest, 8, policy, arrivals, Options{Model: model}); err != nil {
				t.Fatalf("%s/%s: %v", modelName, policyName, err)
			}
			poisoned := &Result{}
			if err := NewRunner().RunInto(poisoned, 8, poisonPolicy(policy), arrivals, Options{Model: model}); err != nil {
				t.Fatalf("%s/%s (poisoned): %v", modelName, policyName, err)
			}
			if honest.WeightedFlow != poisoned.WeightedFlow || honest.Makespan != poisoned.Makespan ||
				honest.Events != poisoned.Events {
				t.Fatalf("%s/%s: policy observes remaining volume: wf %g vs %g, mk %g vs %g, events %d vs %d",
					modelName, policyName, honest.WeightedFlow, poisoned.WeightedFlow,
					honest.Makespan, poisoned.Makespan, honest.Events, poisoned.Events)
			}
			for i := range honest.Tasks {
				if honest.Tasks[i] != poisoned.Tasks[i] {
					t.Fatalf("%s/%s: task %d diverges under poisoned Remaining: %+v vs %+v",
						modelName, policyName, i, honest.Tasks[i], poisoned.Tasks[i])
				}
			}
		}
	}
}

// The clairvoyant baseline must actually use its extra information: poisoning
// Remaining has to change a smith-ratio run (otherwise the marker is
// meaningless and the baseline measures nothing).
func TestSmithRatioUsesRemaining(t *testing.T) {
	arrivals := allocArrivals(t, 192, 31)
	honest := &Result{}
	if err := NewRunner().RunInto(honest, 8, SmithRatioPolicy{}, arrivals, Options{}); err != nil {
		t.Fatal(err)
	}
	poisoned := &Result{}
	if err := NewRunner().RunInto(poisoned, 8, remainingPoisoner{inner: SmithRatioPolicy{}}, arrivals, Options{}); err != nil {
		t.Fatal(err)
	}
	if honest.WeightedFlow == poisoned.WeightedFlow {
		t.Errorf("smith-ratio run unchanged under poisoned Remaining — is it reading volumes at all?")
	}
}
