package speedup

import (
	"math"
	"testing"
)

// FuzzParseModel drives the speedup-model spec boundary (the -speedup flag of
// mwct and the serve request field) with arbitrary strings: each must give a
// model or an error, never a panic, and a model it gives must pass Validate
// and, for a time-varying platform, report budgets within [0, p].
func FuzzParseModel(f *testing.F) {
	for _, spec := range []string{
		"", "linear", "LINEAR", "powerlaw", "powerlaw:0.5", "amdahl:0.2", "platform:8@0,4@10",
		"linear:1", "powerlaw:NaN", "amdahl:1e-400", "platform:", "platform:8@5,4@10",
		"platform:-1@0", "platform:NaN@0", "platform:Inf@0,2@Inf", " platform : 8@0 ,, ",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseModel(spec)
		if (m == nil) == (err == nil) {
			t.Fatalf("ParseModel(%q) = %v, %v: want exactly one of a model and an error", spec, m, err)
		}
		if err != nil {
			return
		}
		if err := Validate(m); err != nil {
			t.Fatalf("ParseModel(%q) gave a model that fails validation: %v", spec, err)
		}
		b, ok := m.(Budgeter)
		if !ok {
			return
		}
		const p = 8
		for _, now := range []float64{0, 0.5, 1, 10, 1e9, math.Inf(1)} {
			if got := b.BudgetAt(p, now); !(got >= 0 && got <= p) {
				t.Fatalf("ParseModel(%q) budget at %g = %g, want within [0, %d]", spec, now, got, p)
			}
			if next := b.NextBudgetChange(now); !(next > now) && !math.IsInf(now, 1) {
				t.Fatalf("ParseModel(%q) next budget change after %g is %g", spec, now, next)
			}
		}
	})
}
