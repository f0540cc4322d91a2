package stepfunc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/malleable-sched/malleable/internal/numeric"
)

func mustFromSteps(t *testing.T, times, values []float64) *StepFunc {
	t.Helper()
	f, err := FromSteps(times, values)
	if err != nil {
		t.Fatalf("FromSteps: %v", err)
	}
	return f
}

func TestConstantAndValue(t *testing.T) {
	f := Constant(4)
	for _, x := range []float64{0, 0.5, 1e6} {
		if f.Value(x) != 4 {
			t.Errorf("Constant(4)(%g) = %g", x, f.Value(x))
		}
	}
}

func TestFromStepsValidation(t *testing.T) {
	if _, err := FromSteps(nil, nil); err == nil {
		t.Errorf("empty accepted")
	}
	if _, err := FromSteps([]float64{1, 2}, []float64{1, 1}); err == nil {
		t.Errorf("non-zero start accepted")
	}
	if _, err := FromSteps([]float64{0, 2, 2}, []float64{1, 1, 1}); err == nil {
		t.Errorf("non-increasing accepted")
	}
	if _, err := FromSteps([]float64{0, 1}, []float64{1}); err == nil {
		t.Errorf("length mismatch accepted")
	}
}

func TestValueAtBreakpoints(t *testing.T) {
	f := mustFromSteps(t, []float64{0, 1, 3}, []float64{5, 2, 0})
	cases := []struct{ t, want float64 }{
		{0, 5}, {0.999, 5}, {1, 2}, {2.5, 2}, {3, 0}, {100, 0},
	}
	for _, c := range cases {
		if got := f.Value(c.t); got != c.want {
			t.Errorf("f(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestAddOnAndSetOn(t *testing.T) {
	f := Constant(10)
	f.AddOn(1, 3, -4)
	if f.Value(0) != 10 || f.Value(1) != 6 || f.Value(2.9) != 6 || f.Value(3) != 10 {
		t.Errorf("AddOn wrong: %v", f)
	}
	f.SetOn(2, 4, 1)
	if f.Value(1.5) != 6 || f.Value(2) != 1 || f.Value(3.9) != 1 || f.Value(4) != 10 {
		t.Errorf("SetOn wrong: %v", f)
	}
	// Add on a tail interval.
	g := Constant(2)
	g.AddOn(5, math.Inf(1), 3)
	if g.Value(4.9) != 2 || g.Value(5) != 5 || g.Value(1e9) != 5 {
		t.Errorf("AddOn to infinity wrong: %v", g)
	}
}

func TestAddOnNoOpAndPanics(t *testing.T) {
	f := Constant(1)
	f.AddOn(2, 2, 5) // empty interval is a no-op
	if f.NumPieces() != 1 {
		t.Errorf("empty AddOn changed pieces")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for to < from")
		}
	}()
	f.AddOn(3, 2, 1)
}

func TestCompact(t *testing.T) {
	f := Constant(1)
	f.AddOn(1, 2, 0) // creates breakpoints without changing values
	f.ensureBreakpoint(5)
	f.Compact()
	if f.NumPieces() != 1 {
		t.Errorf("Compact left %d pieces: %v", f.NumPieces(), f)
	}
}

func TestIntegrate(t *testing.T) {
	f := mustFromSteps(t, []float64{0, 2, 5}, []float64{3, 1, 0})
	cases := []struct{ a, b, want float64 }{
		{0, 2, 6},
		{0, 5, 9},
		{1, 3, 4},
		{4, 10, 1},
		{5, 100, 0},
		{0, math.Inf(1), 9},
		{2.5, 2.5, 0},
	}
	for _, c := range cases {
		if got := f.Integrate(c.a, c.b); !numeric.ApproxEqual(got, c.want) {
			t.Errorf("Integrate(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestIntegrateDivergesPanics(t *testing.T) {
	f := Constant(1)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for divergent integral")
		}
	}()
	f.Integrate(0, math.Inf(1))
}

func TestTimeToProcess(t *testing.T) {
	f := mustFromSteps(t, []float64{0, 2, 5}, []float64{3, 1, 0})
	// cap 2: rate 2 on [0,2), rate 1 on [2,5): volume 5 reached at t=3.
	got, ok := f.TimeToProcess(0, 2, 5)
	if !ok || !numeric.ApproxEqual(got, 3) {
		t.Errorf("TimeToProcess = %g, %v; want 3, true", got, ok)
	}
	// volume bigger than the whole area with zero tail: impossible.
	if _, ok := f.TimeToProcess(0, 10, 100); ok {
		t.Errorf("TimeToProcess should be impossible")
	}
	// zero volume returns the start time.
	got, ok = f.TimeToProcess(1.5, 2, 0)
	if !ok || got != 1.5 {
		t.Errorf("zero volume: got %g, %v", got, ok)
	}
	// positive tail always succeeds.
	g := Constant(2)
	got, ok = g.TimeToProcess(1, 1, 4)
	if !ok || !numeric.ApproxEqual(got, 5) {
		t.Errorf("tail processing: got %g, %v; want 5", got, ok)
	}
}

func TestConsumeMin(t *testing.T) {
	f := Constant(4)
	consumed := f.ConsumeMin(0, 3, 3)
	if !numeric.ApproxEqual(consumed, 9) {
		t.Errorf("consumed = %g, want 9", consumed)
	}
	if f.Value(0) != 1 || f.Value(2.9) != 1 || f.Value(3) != 4 {
		t.Errorf("profile after consume wrong: %v", f)
	}
	// Consuming from an exhausted interval yields zero.
	g := Constant(0)
	if c := g.ConsumeMin(0, 5, 2); c != 0 {
		t.Errorf("consumed from empty = %g", c)
	}
}

// ConsumeMin takes min(cap, f) where f is positive and nothing where it is
// negative, and returns the amount it took.
func TestConsumeMinCappedAndNegative(t *testing.T) {
	f := mustFromSteps(t, []float64{0, 2, 5}, []float64{3, 1, 0})
	if got := f.Clone().ConsumeMin(0, 5, 2); !numeric.ApproxEqual(got, 2*2+1*3) {
		t.Errorf("ConsumeMin cap=2 = %g, want 7", got)
	}
	if got := f.Clone().ConsumeMin(0, 5, 10); !numeric.ApproxEqual(got, 9) {
		t.Errorf("ConsumeMin cap=10 = %g, want 9", got)
	}
	g := mustFromSteps(t, []float64{0, 1}, []float64{-2, 4})
	if got := g.ConsumeMin(0, 2, 3); !numeric.ApproxEqual(got, 3) {
		t.Errorf("ConsumeMin with negative piece = %g, want 3", got)
	}
	if g.Value(0.5) != -2 || g.Value(1.5) != 1 || g.Value(2) != 4 {
		t.Errorf("profile after consume = %v, want [0,1):-2 [1,2):1 [2,inf):4", g)
	}
}

func TestMinPointwise(t *testing.T) {
	f := mustFromSteps(t, []float64{0, 2}, []float64{1, 5})
	g := mustFromSteps(t, []float64{0, 3}, []float64{4, 0})
	mn := Min(f, g)
	points := []float64{0, 1, 2, 2.5, 3, 10}
	for _, p := range points {
		if mn.Value(p) != math.Min(f.Value(p), g.Value(p)) {
			t.Errorf("Min wrong at %g", p)
		}
	}
}

func TestString(t *testing.T) {
	g := Constant(2)
	g.AddOn(1, 2, 0)
	g.AddOn(1, 2, 1)
	want := "[0,1):2 [1,2):3 [2,inf):2"
	if g.String() != want {
		t.Errorf("String = %q, want %q", g.String(), want)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	f := Constant(1)
	g := f.Clone()
	g.AddOn(0, 1, 5)
	if f.Value(0.5) != 1 {
		t.Errorf("Clone not independent")
	}
}

// randomProfile builds a random availability-like profile with small integer
// values and breakpoints, which keeps float arithmetic exact enough for
// property tests.
func randomProfile(rng *rand.Rand) *StepFunc {
	f := Constant(float64(rng.Intn(8)))
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		from := float64(rng.Intn(10))
		to := from + float64(1+rng.Intn(5))
		f.AddOn(from, to, float64(rng.Intn(7)-3))
	}
	return f
}

// Property: integrating over adjacent intervals is additive.
func TestQuickIntegralAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng)
		a := rng.Float64() * 5
		b := a + rng.Float64()*5
		c := b + rng.Float64()*5
		whole := p.Integrate(a, c)
		parts := p.Integrate(a, b) + p.Integrate(b, c)
		return numeric.ApproxEqual(whole, parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: TimeToProcess is consistent with ConsumeMin — the volume
// processed up to the returned completion time equals the requested volume.
func TestQuickTimeToProcessConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng)
		// Keep the profile nonnegative and give it a positive tail so the
		// processing always terminates.
		p = combine(p, Constant(0), math.Max)
		p.AddOn(p.times[len(p.times)-1], math.Inf(1), 1)
		capacity := 1 + rng.Float64()*4
		V := rng.Float64() * 20
		from := rng.Float64() * 3
		c, ok := p.TimeToProcess(from, capacity, V)
		if !ok {
			return false
		}
		got := p.Clone().ConsumeMin(from, c, capacity)
		return numeric.ApproxEqualTol(got, V, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ConsumeMin removes exactly the volume it reports, i.e. the
// integral of the profile decreases by the consumed amount.
func TestQuickConsumeMinConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := combine(randomProfile(rng), Constant(0), math.Max)
		capacity := rng.Float64() * 5
		from := rng.Float64() * 3
		to := from + rng.Float64()*5
		horizon := math.Max(p.times[len(p.times)-1], to) + 1
		before := p.Integrate(0, horizon)
		consumed := p.ConsumeMin(from, to, capacity)
		after := p.Integrate(0, horizon)
		return numeric.ApproxEqualTol(before-after, consumed, 1e-6) && consumed >= -numeric.Eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNextBreakpointAfter(t *testing.T) {
	f, err := FromSteps([]float64{0, 2, 5}, []float64{1, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{0, 2}, {1.5, 2}, {2, 5}, {4.99, 5},
	}
	for _, c := range cases {
		if got := f.NextBreakpointAfter(c.t); got != c.want {
			t.Errorf("NextBreakpointAfter(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if got := f.NextBreakpointAfter(5); !math.IsInf(got, 1) {
		t.Errorf("NextBreakpointAfter(5) = %g, want +Inf", got)
	}
	if got := f.NextBreakpointAfter(100); !math.IsInf(got, 1) {
		t.Errorf("NextBreakpointAfter(100) = %g, want +Inf", got)
	}
}
