package lp

import "math/big"

// ExactSolution is the result of solving a model with the exact rational
// backend. It keeps the full-precision values so callers can compare
// objectives of different schedules without any floating-point ambiguity.
type ExactSolution struct {
	// Status reports whether the solve found an optimum.
	Status Status
	// Objective is the exact optimal objective value (in the model's sense).
	Objective *big.Rat
	// X holds the exact value of each model variable.
	X []*big.Rat
}

// Value returns the float64 value of variable v.
func (s *ExactSolution) Value(v int) float64 {
	f, _ := s.X[v].Float64()
	return f
}

// ObjectiveFloat returns the objective value rounded to float64.
func (s *ExactSolution) ObjectiveFloat() float64 {
	f, _ := s.Objective.Float64()
	return f
}

func newExactSolution(m *Model, res *simplexResult[ratValue]) *ExactSolution {
	n := m.NumVariables()
	out := &ExactSolution{
		Status: Optimal,
		X:      make([]*big.Rat, n),
	}
	for i := 0; i < n; i++ {
		out.X[i] = new(big.Rat).Set(res.exactX[i].r)
	}
	obj := new(big.Rat).Set(res.exactObj.r)
	if m.sense == Maximize {
		obj.Neg(obj)
	}
	out.Objective = obj
	return out
}
