// Package lp provides a small, self-contained linear-programming solver used
// to compute optimal malleable schedules for a fixed completion-time order
// (Corollary 1 of the paper). It implements a dense two-phase primal simplex
// with two interchangeable arithmetic backends: fast float64 and exact
// math/big.Rat. All decision variables are non-negative, which matches the
// scheduling LPs (column lengths and per-column allocations are non-negative
// by construction).
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects minimization or maximization of the objective.
type Sense int

const (
	// Minimize the objective function.
	Minimize Sense = iota
	// Maximize the objective function.
	Maximize
)

// Op is a constraint comparison operator.
type Op int

const (
	// LE is "less than or equal".
	LE Op = iota
	// GE is "greater than or equal".
	GE
	// EQ is "equal".
	EQ
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can be improved without bound.
	Unbounded
	// IterationLimit means the solver stopped before converging.
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrNotOptimal is wrapped by errors returned when a solve terminates without
// an optimal solution.
var ErrNotOptimal = errors.New("lp: no optimal solution")

type constraint struct {
	coeffs map[int]float64
	op     Op
	rhs    float64
}

// Model is a linear program under construction. All variables are implicitly
// constrained to be non-negative. The zero value is not usable; use NewModel.
type Model struct {
	sense    Sense
	obj      []float64
	names    []string
	cons     []constraint
	conNames []string
}

// NewModel returns an empty model with the given optimization sense.
func NewModel(sense Sense) *Model {
	return &Model{sense: sense}
}

// NumVariables returns the number of variables added so far.
func (m *Model) NumVariables() int { return len(m.obj) }

// AddVariable adds a non-negative variable with the given objective
// coefficient and returns its index. The name is used only for diagnostics.
func (m *Model) AddVariable(name string, objCoeff float64) int {
	m.obj = append(m.obj, objCoeff)
	m.names = append(m.names, name)
	return len(m.obj) - 1
}

// AddConstraint adds the constraint sum_i coeffs[i]*x_i (op) rhs. The coeffs
// map is copied. Variables absent from the map have coefficient zero.
func (m *Model) AddConstraint(name string, coeffs map[int]float64, op Op, rhs float64) {
	cp := make(map[int]float64, len(coeffs))
	for v, c := range coeffs {
		m.mustVar(v)
		if c != 0 {
			cp[v] = c
		}
	}
	m.cons = append(m.cons, constraint{coeffs: cp, op: op, rhs: rhs})
	m.conNames = append(m.conNames, name)
}

func (m *Model) mustVar(v int) {
	if v < 0 || v >= len(m.obj) {
		panic(fmt.Sprintf("lp: variable index %d out of range [0,%d)", v, len(m.obj)))
	}
}

// Solution is the result of solving a model with the float64 backend.
type Solution struct {
	// Status reports whether the solve found an optimum.
	Status Status
	// Objective is the optimal objective value (in the model's sense).
	Objective float64
	// X holds the value of each model variable.
	X []float64
}

// Value returns the value of variable v in the solution.
func (s *Solution) Value(v int) float64 { return s.X[v] }

// Solve optimizes the model with the float64 simplex backend.
func (m *Model) Solve() (*Solution, error) {
	std := m.standardForm()
	res, status := runSimplex[float64](floatArith{}, std)
	if status != Optimal {
		return &Solution{Status: status}, fmt.Errorf("%w: %s", ErrNotOptimal, status)
	}
	obj := res.objective
	if m.sense == Maximize {
		obj = -obj
	}
	return &Solution{Status: Optimal, Objective: obj, X: res.x[:m.NumVariables()]}, nil
}

// SolveExact optimizes the model with the exact rational backend and returns
// the solution rounded to float64 along with the exact objective value kept in
// the returned ExactSolution.
func (m *Model) SolveExact() (*ExactSolution, error) {
	std := m.standardForm()
	ar := ratArith{}
	res, status := runSimplex[ratValue](ar, std)
	if status != Optimal {
		return &ExactSolution{Status: status}, fmt.Errorf("%w: %s", ErrNotOptimal, status)
	}
	return newExactSolution(m, res), nil
}

// standardForm converts the model into "minimize c.x subject to A.x (op) b,
// x >= 0" with the objective negated if the model maximizes.
type standardProblem struct {
	numVars int
	obj     []float64
	rows    [][]float64
	ops     []Op
	rhs     []float64
}

func (m *Model) standardForm() *standardProblem {
	n := m.NumVariables()
	obj := make([]float64, n)
	copy(obj, m.obj)
	if m.sense == Maximize {
		for i := range obj {
			obj[i] = -obj[i]
		}
	}
	p := &standardProblem{numVars: n, obj: obj}
	for _, c := range m.cons {
		row := make([]float64, n)
		for v, coeff := range c.coeffs {
			row[v] = coeff
		}
		p.rows = append(p.rows, row)
		p.ops = append(p.ops, c.op)
		p.rhs = append(p.rhs, c.rhs)
	}
	return p
}

// String renders the model in a small LP-format-like text form, useful in
// error messages and debugging.
func (m *Model) String() string {
	s := "min"
	if m.sense == Maximize {
		s = "max"
	}
	out := s + " "
	for v, c := range m.obj {
		if c == 0 {
			continue
		}
		out += fmt.Sprintf("%+g*%s ", c, m.names[v])
	}
	out += "\n"
	for i, c := range m.cons {
		out += fmt.Sprintf("  [%s] ", m.conNames[i])
		for v := 0; v < len(m.obj); v++ {
			if coeff, ok := c.coeffs[v]; ok {
				out += fmt.Sprintf("%+g*%s ", coeff, m.names[v])
			}
		}
		out += fmt.Sprintf("%s %g\n", c.op, c.rhs)
	}
	return out
}

// Validate checks the model for structural problems (no variables, NaN or Inf
// coefficients) before solving.
func (m *Model) Validate() error {
	if m.NumVariables() == 0 {
		return errors.New("lp: model has no variables")
	}
	for v, c := range m.obj {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: objective coefficient of %s is not finite", m.names[v])
		}
	}
	for i, c := range m.cons {
		if math.IsNaN(c.rhs) || math.IsInf(c.rhs, 0) {
			return fmt.Errorf("lp: right-hand side of constraint %s is not finite", m.conNames[i])
		}
		for v, coeff := range c.coeffs {
			if math.IsNaN(coeff) || math.IsInf(coeff, 0) {
				return fmt.Errorf("lp: coefficient of %s in constraint %s is not finite", m.names[v], m.conNames[i])
			}
		}
	}
	return nil
}
