package lp

import (
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/malleable-sched/malleable/internal/numeric"
)

// solveBoth solves the model with both backends and checks they agree.
func solveBoth(t *testing.T, m *Model) (*Solution, *ExactSolution) {
	t.Helper()
	fs, errF := m.Solve()
	es, errE := m.SolveExact()
	if (errF == nil) != (errE == nil) {
		t.Fatalf("backend disagreement: float err=%v exact err=%v", errF, errE)
	}
	if errF != nil {
		return fs, es
	}
	if !numeric.ApproxEqualTol(fs.Objective, es.ObjectiveFloat(), 1e-6) {
		t.Fatalf("objective disagreement: float %v exact %v", fs.Objective, es.ObjectiveFloat())
	}
	return fs, es
}

func TestSimpleMaximization(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic example, opt 36 at (2,6))
	m := NewModel(Maximize)
	x := m.AddVariable("x", 3)
	y := m.AddVariable("y", 5)
	m.AddConstraint("c1", map[int]float64{x: 1}, LE, 4)
	m.AddConstraint("c2", map[int]float64{y: 2}, LE, 12)
	m.AddConstraint("c3", map[int]float64{x: 3, y: 2}, LE, 18)
	sol, exact := solveBoth(t, m)
	if !numeric.ApproxEqual(sol.Objective, 36) {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
	if !numeric.ApproxEqual(sol.Value(x), 2) || !numeric.ApproxEqual(sol.Value(y), 6) {
		t.Errorf("solution = (%v, %v), want (2, 6)", sol.Value(x), sol.Value(y))
	}
	if exact.Objective.Cmp(big.NewRat(36, 1)) != 0 {
		t.Errorf("exact objective = %v, want 36", exact.Objective)
	}
}

func TestSimpleMinimizationWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x + 2y >= 6, opt at (2,2) = 10.
	m := NewModel(Minimize)
	x := m.AddVariable("x", 2)
	y := m.AddVariable("y", 3)
	m.AddConstraint("c1", map[int]float64{x: 1, y: 1}, GE, 4)
	m.AddConstraint("c2", map[int]float64{x: 1, y: 2}, GE, 6)
	sol, _ := solveBoth(t, m)
	if !numeric.ApproxEqual(sol.Objective, 10) {
		t.Errorf("objective = %v, want 10", sol.Objective)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + y s.t. x + 2y = 4, 3x + 2y = 8 -> x=2, y=1, obj 3.
	m := NewModel(Minimize)
	x := m.AddVariable("x", 1)
	y := m.AddVariable("y", 1)
	m.AddConstraint("e1", map[int]float64{x: 1, y: 2}, EQ, 4)
	m.AddConstraint("e2", map[int]float64{x: 3, y: 2}, EQ, 8)
	sol, _ := solveBoth(t, m)
	if !numeric.ApproxEqual(sol.Objective, 3) {
		t.Errorf("objective = %v, want 3", sol.Objective)
	}
	if !numeric.ApproxEqual(sol.Value(x), 2) || !numeric.ApproxEqual(sol.Value(y), 1) {
		t.Errorf("solution = (%v, %v), want (2, 1)", sol.Value(x), sol.Value(y))
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// Constraint written with a negative right-hand side: -x - y <= -4 is x + y >= 4.
	m := NewModel(Minimize)
	x := m.AddVariable("x", 1)
	y := m.AddVariable("y", 2)
	m.AddConstraint("c", map[int]float64{x: -1, y: -1}, LE, -4)
	sol, _ := solveBoth(t, m)
	if !numeric.ApproxEqual(sol.Objective, 4) {
		t.Errorf("objective = %v, want 4 (all weight on x)", sol.Objective)
	}
	if !numeric.ApproxEqual(sol.Value(x), 4) {
		t.Errorf("x = %v, want 4", sol.Value(x))
	}
}

func TestInfeasibleModel(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVariable("x", 1)
	m.AddConstraint("c1", map[int]float64{x: 1}, LE, 1)
	m.AddConstraint("c2", map[int]float64{x: 1}, GE, 2)
	sol, err := m.Solve()
	if err == nil || sol.Status != Infeasible {
		t.Errorf("expected infeasible, got status %v err %v", sol.Status, err)
	}
	if !errors.Is(err, ErrNotOptimal) {
		t.Errorf("error should wrap ErrNotOptimal")
	}
	es, err := m.SolveExact()
	if err == nil || es.Status != Infeasible {
		t.Errorf("exact: expected infeasible, got status %v err %v", es.Status, err)
	}
}

func TestUnboundedModel(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVariable("x", 1)
	m.AddConstraint("c", map[int]float64{x: -1}, LE, 0) // -x <= 0, always true
	sol, err := m.Solve()
	if err == nil || sol.Status != Unbounded {
		t.Errorf("expected unbounded, got status %v err %v", sol.Status, err)
	}
}

func TestDegenerateProblemTerminates(t *testing.T) {
	// A classic degenerate LP (Beale's example adapted): Bland's rule must not cycle.
	m := NewModel(Minimize)
	x1 := m.AddVariable("x1", -0.75)
	x2 := m.AddVariable("x2", 150)
	x3 := m.AddVariable("x3", -0.02)
	x4 := m.AddVariable("x4", 6)
	m.AddConstraint("c1", map[int]float64{x1: 0.25, x2: -60, x3: -0.04, x4: 9}, LE, 0)
	m.AddConstraint("c2", map[int]float64{x1: 0.5, x2: -90, x3: -0.02, x4: 3}, LE, 0)
	m.AddConstraint("c3", map[int]float64{x3: 1}, LE, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("degenerate LP failed: %v", err)
	}
	if !numeric.ApproxEqualTol(sol.Objective, -0.05, 1e-6) {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate equality constraints produce a redundant row whose artificial
	// variable cannot be driven out; the solver must still succeed.
	m := NewModel(Minimize)
	x := m.AddVariable("x", 1)
	y := m.AddVariable("y", 1)
	m.AddConstraint("e1", map[int]float64{x: 1, y: 1}, EQ, 2)
	m.AddConstraint("e2", map[int]float64{x: 1, y: 1}, EQ, 2)
	m.AddConstraint("e3", map[int]float64{x: 2, y: 2}, EQ, 4)
	sol, _ := solveBoth(t, m)
	if !numeric.ApproxEqual(sol.Objective, 2) {
		t.Errorf("objective = %v, want 2", sol.Objective)
	}
}

func TestZeroObjective(t *testing.T) {
	// Pure feasibility problem.
	m := NewModel(Minimize)
	x := m.AddVariable("x", 0)
	m.AddConstraint("c", map[int]float64{x: 1}, GE, 3)
	sol, _ := solveBoth(t, m)
	if sol.Status != Optimal || sol.Value(x) < 3-1e-9 {
		t.Errorf("feasibility solve failed: %+v", sol)
	}
}

func TestValidate(t *testing.T) {
	m := NewModel(Minimize)
	if err := m.Validate(); err == nil {
		t.Errorf("empty model should not validate")
	}
	x := m.AddVariable("x", 1)
	m.AddConstraint("c", map[int]float64{x: 1}, LE, 1)
	if err := m.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestModelStringAndNames(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVariable("width", 2)
	m.AddConstraint("cap", map[int]float64{x: 1}, LE, 5)
	s := m.String()
	if !strings.Contains(s, "width") || !strings.Contains(s, "[cap]") {
		t.Errorf("String() = %q misses the variable or constraint name", s)
	}
	if m.NumVariables() != 1 || len(m.cons) != 1 {
		t.Errorf("counts wrong")
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Errorf("Op strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterationLimit.String() != "iteration-limit" {
		t.Errorf("Status strings wrong")
	}
}

// knapsackLPOptimum computes the optimum of the LP relaxation of a knapsack
// problem directly (greedy by density), to cross-check the simplex.
func knapsackLPOptimum(values, weights []float64, capacity float64) float64 {
	type item struct{ v, w float64 }
	items := make([]item, len(values))
	for i := range values {
		items[i] = item{values[i], weights[i]}
	}
	// insertion sort by density descending (n is tiny)
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].v/items[j].w > items[j-1].v/items[j-1].w; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	total := 0.0
	for _, it := range items {
		if capacity <= 0 {
			break
		}
		take := it.w
		if take > capacity {
			take = capacity
		}
		total += it.v * take / it.w
		capacity -= take
	}
	return total
}

// Property: the simplex agrees with the analytic optimum of random fractional
// knapsack instances, in both backends.
func TestQuickFractionalKnapsack(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = float64(1 + rng.Intn(20))
			weights[i] = float64(1 + rng.Intn(10))
		}
		capacity := float64(1 + rng.Intn(25))

		m := NewModel(Maximize)
		vars := make([]int, n)
		capRow := map[int]float64{}
		for i := range values {
			vars[i] = m.AddVariable("x", values[i])
			capRow[vars[i]] = weights[i]
			m.AddConstraint("ub", map[int]float64{vars[i]: weights[i]}, LE, weights[i]) // x_i <= 1 scaled
		}
		m.AddConstraint("cap", capRow, LE, capacity)
		want := knapsackLPOptimum(values, weights, capacity)
		sol, err := m.Solve()
		if err != nil {
			return false
		}
		exact, err := m.SolveExact()
		if err != nil {
			return false
		}
		return numeric.ApproxEqualTol(sol.Objective, want, 1e-6) &&
			numeric.ApproxEqualTol(exact.ObjectiveFloat(), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: float and exact backends agree on random feasible LPs built so
// that feasibility is guaranteed (constraints of the form sum a_i x_i <= b
// with a_i, b >= 0).
func TestQuickBackendsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		mcons := 1 + rng.Intn(4)
		m := NewModel(Maximize)
		vars := make([]int, n)
		for i := range vars {
			vars[i] = m.AddVariable("x", float64(rng.Intn(10)))
		}
		bounded := false
		for c := 0; c < mcons; c++ {
			row := map[int]float64{}
			allPos := true
			for i := range vars {
				a := float64(rng.Intn(5))
				if a > 0 {
					row[vars[i]] = a
				} else {
					allPos = false
				}
			}
			if len(row) == 0 {
				continue
			}
			bounded = bounded || allPos
			m.AddConstraint("c", row, LE, float64(1+rng.Intn(20)))
		}
		if !bounded {
			// Ensure the LP is bounded so that both backends return Optimal.
			row := map[int]float64{}
			for i := range vars {
				row[vars[i]] = 1
			}
			m.AddConstraint("bound", row, LE, 50)
		}
		sol, errF := m.Solve()
		exact, errE := m.SolveExact()
		if errF != nil || errE != nil {
			return errF != nil && errE != nil
		}
		return numeric.ApproxEqualTol(sol.Objective, exact.ObjectiveFloat(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestExactSolutionConversions(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVariable("x", 3)
	m.AddConstraint("c", map[int]float64{x: 2}, GE, 1)
	es, err := m.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	if es.X[x].Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("exact x = %v, want 1/2", es.X[x])
	}
	if !numeric.ApproxEqual(es.Value(x), 0.5) {
		t.Errorf("Value(x) = %v", es.Value(x))
	}
	if !numeric.ApproxEqual(es.ObjectiveFloat(), 1.5) {
		t.Errorf("ObjectiveFloat = %v, want 1.5", es.ObjectiveFloat())
	}
}
