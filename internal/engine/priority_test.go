package engine

// priorityPolicy allocates the platform greedily following a fixed priority
// list: the highest-priority alive task receives min(δ, what is left), then
// the next, and so on. With priorities sorted by weight it is an online
// analogue of a greedy schedule. It is non-clairvoyant. It holds a slice, so
// its value is not ==-comparable: the tests use it to drive the Runner's
// PolicyEqualer path and the rank-ordered greedyRun.
type priorityPolicy struct {
	// Priority maps task ID to its rank (lower rank = served first). Tasks
	// beyond the list rank by their own ID.
	Priority []int
	// Label is returned by Name.
	Label string
}

// Name implements Policy.
func (p priorityPolicy) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "priority"
}

func (p priorityPolicy) rank(t TaskState) int {
	if t.ID < len(p.Priority) {
		return p.Priority[t.ID]
	}
	return t.ID
}

func (p priorityPolicy) less(a, b TaskState) bool {
	if ra, rb := p.rank(a), p.rank(b); ra != rb {
		return ra < rb
	}
	return a.ID < b.ID
}

// Allocate implements Policy. This stateless form allocates rank scratch per
// call; the engine's run loop uses the scratch-holding clone from CloneForRun
// instead, which is allocation-free in steady state.
func (p priorityPolicy) Allocate(capacity float64, alive []TaskState, dst []float64) []float64 {
	g := greedyRun{name: p.Name(), less: p.less}
	return g.Allocate(capacity, alive, dst)
}

// CloneForRun implements RunCloner: the clone owns the rank-index scratch, so
// a whole run allocates nothing per event.
func (p priorityPolicy) CloneForRun() Policy {
	return &greedyRun{name: p.Name(), less: p.less}
}

// EqualPolicy implements PolicyEqualer: priorityPolicy holds a slice and is
// therefore not ==-comparable, so it identifies itself by label and by the
// identity (not contents) of the rank list — mutating a shared rank slice
// between runs is not supported, re-slicing it is a different policy.
func (p priorityPolicy) EqualPolicy(other Policy) bool {
	o, ok := other.(priorityPolicy)
	if !ok || o.Label != p.Label || len(o.Priority) != len(p.Priority) {
		return false
	}
	return len(p.Priority) == 0 || &o.Priority[0] == &p.Priority[0]
}
