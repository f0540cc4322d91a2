package speedup

import (
	"math"
	"strings"
	"testing"

	"github.com/malleable-sched/malleable/internal/stepfunc"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestLinearCapRates(t *testing.T) {
	m := LinearCap{}
	shape := TaskShape{Delta: 3}
	if got := m.Rate(shape, 2); got != 2 {
		t.Errorf("Rate(2) = %g, want 2", got)
	}
	if got := m.Rate(shape, 5); got != 3 {
		t.Errorf("Rate(5) = %g, want 3 (capped at delta)", got)
	}
	if got := m.Rate(shape, 0); got != 0 {
		t.Errorf("Rate(0) = %g, want 0", got)
	}
	if got := m.TimeToProcess(shape, 2, 6); got != 3 {
		t.Errorf("TimeToProcess = %g, want 3", got)
	}
	if got := m.TimeToProcess(shape, 0, 1); !math.IsInf(got, 1) {
		t.Errorf("TimeToProcess at zero rate = %g, want +Inf", got)
	}
	if got := m.TimeToProcess(shape, 0, 0); got != 0 {
		t.Errorf("TimeToProcess of zero volume = %g, want 0", got)
	}
	if got := m.MaxUseful(shape); got != 3 {
		t.Errorf("MaxUseful = %g, want delta", got)
	}
}

func TestPowerLawRates(t *testing.T) {
	m := PowerLaw{Alpha: 0.5}
	shape := TaskShape{Delta: 16}
	if got := m.Rate(shape, 4); !almost(got, 2) {
		t.Errorf("Rate(4) = %g, want 2 (4^0.5)", got)
	}
	// Allocation beyond delta is wasted: rate caps at delta^alpha.
	if got := m.Rate(shape, 64); !almost(got, 4) {
		t.Errorf("Rate(64) = %g, want 4 (16^0.5)", got)
	}
	// Per-task curve overrides the model default.
	if got := m.Rate(TaskShape{Delta: 16, Curve: 1}, 4); !almost(got, 4) {
		t.Errorf("Rate with curve=1 = %g, want 4 (linear)", got)
	}
	// Alpha = 1 degenerates to LinearCap on any shape/allocation.
	lin, one := LinearCap{}, PowerLaw{Alpha: 1}
	for _, q := range []float64{0.25, 1, 3, 7, 20} {
		if a, b := one.Rate(shape, q), lin.Rate(shape, q); !almost(a, b) {
			t.Errorf("PowerLaw{1}.Rate(%g) = %g, LinearCap %g", q, a, b)
		}
	}
	// The zero value uses DefaultAlpha.
	if got := (PowerLaw{}).Rate(shape, 4); !almost(got, math.Pow(4, DefaultAlpha)) {
		t.Errorf("zero-value rate = %g, want 4^%g", got, DefaultAlpha)
	}
}

func TestAmdahlRates(t *testing.T) {
	m := Amdahl{Sigma: 0.25}
	shape := TaskShape{Delta: 1000}
	// One processor always gives rate 1.
	if got := m.Rate(shape, 1); !almost(got, 1) {
		t.Errorf("Rate(1) = %g, want 1", got)
	}
	// rate(q) = q / (sigma q + 1 - sigma): rate(3) = 3/1.5 = 2.
	if got := m.Rate(shape, 3); !almost(got, 2) {
		t.Errorf("Rate(3) = %g, want 2", got)
	}
	// The asymptote is 1/sigma.
	if got := m.Rate(shape, 1000); got >= 4 || got < 3.9 {
		t.Errorf("Rate(1000) = %g, want just under the asymptote 4", got)
	}
	// Per-task curve overrides the serial fraction.
	if got := (Amdahl{Sigma: 0.5}).Rate(TaskShape{Delta: 1000, Curve: 0.25}, 3); !almost(got, 2) {
		t.Errorf("Rate with curve override = %g, want 2", got)
	}
}

func TestAllBundledModelsValidate(t *testing.T) {
	profile, err := stepfunc.FromSteps([]float64{0, 5}, []float64{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{
		LinearCap{},
		PowerLaw{},
		PowerLaw{Alpha: 0.5},
		Amdahl{},
		Amdahl{Sigma: 0.3},
		Platform{Profile: profile},
		Platform{Profile: profile, Inner: PowerLaw{Alpha: 0.6}},
	} {
		if err := Validate(m); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

type brokenModel struct{ LinearCap }

func (brokenModel) Rate(t TaskShape, procs float64) float64 { return 1 } // non-zero at 0

func TestValidateRejectsBrokenModel(t *testing.T) {
	if err := Validate(brokenModel{}); err == nil {
		t.Errorf("broken model validated")
	}
}

func TestPlatformBudget(t *testing.T) {
	profile, err := stepfunc.FromSteps([]float64{0, 10, 20}, []float64{8, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	m := Platform{Profile: profile}
	if got := m.BudgetAt(8, 0); got != 8 {
		t.Errorf("BudgetAt(0) = %g, want 8", got)
	}
	if got := m.BudgetAt(8, 15); got != 3 {
		t.Errorf("BudgetAt(15) = %g, want 3", got)
	}
	// The nominal capacity stays an upper bound.
	if got := m.BudgetAt(4, 25); got != 4 {
		t.Errorf("BudgetAt with nominal 4 = %g, want 4", got)
	}
	if got := m.NextBudgetChange(0); got != 10 {
		t.Errorf("NextBudgetChange(0) = %g, want 10", got)
	}
	if got := m.NextBudgetChange(10); got != 20 {
		t.Errorf("NextBudgetChange(10) = %g, want 20", got)
	}
	if got := m.NextBudgetChange(20); !math.IsInf(got, 1) {
		t.Errorf("NextBudgetChange(20) = %g, want +Inf", got)
	}
	if got := m.BudgetEventBound(); got != 3 {
		t.Errorf("BudgetEventBound = %d, want 3", got)
	}
	// A nil-profile Platform behaves like a constant platform.
	empty := Platform{}
	if got := empty.BudgetAt(8, 99); got != 8 {
		t.Errorf("nil-profile BudgetAt = %g, want 8", got)
	}
	if got := empty.NextBudgetChange(0); !math.IsInf(got, 1) {
		t.Errorf("nil-profile NextBudgetChange = %g, want +Inf", got)
	}
}

func TestIsLinear(t *testing.T) {
	if !IsLinear(nil) || !IsLinear(LinearCap{}) {
		t.Errorf("nil and LinearCap must count as linear")
	}
	if IsLinear(PowerLaw{}) || IsLinear(Platform{}) {
		t.Errorf("non-linear models must not count as linear")
	}
}

func TestParseModel(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"", "linear"},
		{"linear", "linear"},
		{"LINEAR", "linear"},
		{"powerlaw", "powerlaw"},
		{"powerlaw:0.5", "powerlaw"},
		{"amdahl", "amdahl"},
		{"amdahl:0.2", "amdahl"},
		{"platform:8@0,4@10", "platform"},
	}
	for _, c := range cases {
		m, err := ParseModel(c.spec)
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if m.Name() != c.name {
			t.Errorf("%q parsed to %q, want %q", c.spec, m.Name(), c.name)
		}
		if err := Validate(m); err != nil {
			t.Errorf("%q: parsed model fails validation: %v", c.spec, err)
		}
	}
	if m, _ := ParseModel("powerlaw:0.5"); m.(PowerLaw).Alpha != 0.5 {
		t.Errorf("powerlaw exponent not parsed: %+v", m)
	}
	if m, _ := ParseModel("amdahl:0.2"); m.(Amdahl).Sigma != 0.2 {
		t.Errorf("amdahl sigma not parsed: %+v", m)
	}
	if m, _ := ParseModel("platform:8@0,4@10"); m.(Platform).Profile.Value(12) != 4 {
		t.Errorf("platform profile not parsed: %+v", m)
	}
	for _, bad := range []string{
		"nope", "linear:1", "powerlaw:0", "powerlaw:2", "powerlaw:x",
		"amdahl:1", "amdahl:-0.1", "platform", "platform:", "platform:8",
		"platform:8@5,4@10", "platform:8@0,4@0", "platform:-1@0", "platform:8@-1",
		"platform:NaN@0", "platform:8@0,nan@5",
	} {
		if _, err := ParseModel(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if _, err := ParseModel("bogus"); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("unknown model error missing: %v", err)
	}
}

// No bundled model may beat the work-preserving linear rate: concavity means
// parallel overheads, and fractional allocations are time-shares of one
// processor. A model faster than linear anywhere would let a "slower"
// scenario finish earlier than the paper's baseline.
func TestModelsNeverExceedLinear(t *testing.T) {
	lin := LinearCap{}
	shape := TaskShape{Delta: 6}
	for _, m := range []Model{PowerLaw{Alpha: 0.5}, PowerLaw{}, Amdahl{Sigma: 0.3}, Amdahl{}} {
		for _, q := range []float64{0.1, 0.5, 0.99, 1, 1.5, 2, 4, 6, 10} {
			if got, cap := m.Rate(shape, q), lin.Rate(shape, q); got > cap+1e-12 {
				t.Errorf("%s: Rate(%g) = %g exceeds linear %g", m.Name(), q, got, cap)
			}
		}
		// Sub-unit allocations are exactly linear (time-sharing).
		if got := m.Rate(shape, 0.5); got != 0.5 {
			t.Errorf("%s: Rate(0.5) = %g, want 0.5", m.Name(), got)
		}
	}
}

// The fully-serial Amdahl edge case (sigma clamped to 1) has a flat rate
// beyond one processor, so MaxUseful must report 1, not the degree bound.
func TestAmdahlMaxUsefulSerialEdge(t *testing.T) {
	if got := (Amdahl{Sigma: 0.3}).MaxUseful(TaskShape{Delta: 4}); got != 4 {
		t.Errorf("MaxUseful = %g, want delta for sigma < 1", got)
	}
	if got := (Amdahl{}).MaxUseful(TaskShape{Delta: 4, Curve: 1}); got != 1 {
		t.Errorf("MaxUseful = %g, want 1 for a fully serial task", got)
	}
	if got := (Amdahl{}).MaxUseful(TaskShape{Delta: 0.5, Curve: 1}); got != 0.5 {
		t.Errorf("MaxUseful = %g, want min(delta, 1)", got)
	}
}

// ValidateCurves must reject curve ranges the model would silently clamp
// into degeneracy, and pass ranges inside the model's domain.
func TestValidateCurves(t *testing.T) {
	profile, err := stepfunc.FromSteps([]float64{0}, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	ok := []struct {
		m      Model
		lo, hi float64
	}{
		{LinearCap{}, 0, 0},
		{LinearCap{}, 5, 10}, // linear ignores curves entirely
		{PowerLaw{}, 0.5, 1},
		{Amdahl{}, 0.01, 0.99},
		{Platform{Profile: profile}, 2, 3}, // linear inner ignores curves
		{PowerLaw{}, 0, 0},                 // disabled
	}
	for _, c := range ok {
		if err := ValidateCurves(c.m, c.lo, c.hi); err != nil {
			t.Errorf("%s [%g,%g]: %v", c.m.Name(), c.lo, c.hi, err)
		}
	}
	bad := []struct {
		m      Model
		lo, hi float64
	}{
		{PowerLaw{}, 0.5, 1.5},
		{Amdahl{}, 0.5, 1},
		{Platform{Profile: profile, Inner: Amdahl{}}, 0.5, 2},
	}
	for _, c := range bad {
		if err := ValidateCurves(c.m, c.lo, c.hi); err == nil {
			t.Errorf("%s [%g,%g]: accepted", c.m.Name(), c.lo, c.hi)
		}
	}
}
