package numeric

// Permutations enumerates every permutation of {0, 1, ..., n-1} and calls
// visit with each one. The slice passed to visit is reused between calls and
// must not be retained or modified. If visit returns false the enumeration
// stops early. The enumeration uses Heap's algorithm and therefore runs in
// O(n!) time with O(n) extra space.
func Permutations(n int, visit func(perm []int) bool) {
	if n < 0 {
		return
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if n == 0 {
		visit(perm)
		return
	}
	// Heap's algorithm, iterative form.
	c := make([]int, n)
	if !visit(perm) {
		return
	}
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			if !visit(perm) {
				return
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// Factorial returns n! for small n. It panics for negative n and saturates
// correctness only up to n = 20 (the largest factorial representable in
// int64), which is far beyond any exhaustive enumeration this library runs.
func Factorial(n int) int64 {
	if n < 0 {
		panic("numeric: negative factorial")
	}
	if n > 20 {
		panic("numeric: factorial overflow")
	}
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

// IdentityPermutation returns the identity permutation of size n.
func IdentityPermutation(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// ReversePermutation returns perm reversed (a new slice).
func ReversePermutation(perm []int) []int {
	r := make([]int, len(perm))
	for i, v := range perm {
		r[len(perm)-1-i] = v
	}
	return r
}

// IsPermutation reports whether p is a permutation of {0, ..., len(p)-1}.
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
