package numeric

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-12, true},
		{1, 1 + 1e-6, false},
		{1e12, 1e12 * (1 + 1e-12), true},
		{1e12, 1e12 * (1 + 1e-6), false},
		{0, 1e-12, true},
		{0, 1e-6, false},
		{-5, -5 - 1e-12, true},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b); got != c.want {
			t.Errorf("ApproxEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 {
		t.Errorf("Clamp above")
	}
	if Clamp(-1, 0, 3) != 0 {
		t.Errorf("Clamp below")
	}
	if Clamp(2, 0, 3) != 2 {
		t.Errorf("Clamp inside")
	}
}

func TestKahanSumCancellation(t *testing.T) {
	// Sum many small values next to a large one; naive summation loses them.
	var k KahanSum
	k.Add(1e16)
	for i := 0; i < 1000; i++ {
		k.Add(1.0)
	}
	k.Add(-1e16)
	if got := k.Value(); got != 1000 {
		t.Errorf("KahanSum = %v, want 1000", got)
	}
}

// kahanSum returns the compensated sum of xs.
func kahanSum(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Value()
}

func TestSumMatchesNaiveOnBenignData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100)
	naive := 0.0
	for i := range xs {
		xs[i] = rng.Float64()
		naive += xs[i]
	}
	if got := kahanSum(xs); !ApproxEqual(got, naive) {
		t.Errorf("KahanSum = %v, naive = %v", got, naive)
	}
}

func TestPermutationsCountsAndValidity(t *testing.T) {
	for n := 0; n <= 6; n++ {
		count := 0
		seen := map[string]bool{}
		Permutations(n, func(p []int) bool {
			if !IsPermutation(p) {
				t.Fatalf("n=%d: not a permutation: %v", n, p)
			}
			key := ""
			for _, v := range p {
				key += string(rune('a' + v))
			}
			if seen[key] {
				t.Fatalf("n=%d: duplicate permutation %v", n, p)
			}
			seen[key] = true
			count++
			return true
		})
		if int64(count) != Factorial(n) {
			t.Errorf("n=%d: got %d permutations, want %d", n, count, Factorial(n))
		}
	}
}

func TestPermutationsEarlyStop(t *testing.T) {
	count := 0
	Permutations(5, func(p []int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop: visited %d, want 10", count)
	}
}

func TestFactorial(t *testing.T) {
	want := []int64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		if Factorial(n) != w {
			t.Errorf("Factorial(%d) = %d, want %d", n, Factorial(n), w)
		}
	}
	if Factorial(20) != 2432902008176640000 {
		t.Errorf("Factorial(20) wrong")
	}
}

func TestReverseAndIdentityPermutation(t *testing.T) {
	p := []int{2, 0, 3, 1}
	r := ReversePermutation(p)
	want := []int{1, 3, 0, 2}
	for i := range r {
		if r[i] != want[i] {
			t.Errorf("reverse = %v, want %v", r, want)
		}
	}
	id := IdentityPermutation(4)
	for i, v := range id {
		if i != v {
			t.Errorf("identity wrong")
		}
	}
}

func TestIsPermutationRejectsBadSlices(t *testing.T) {
	if IsPermutation([]int{0, 0, 1}) {
		t.Errorf("duplicate accepted")
	}
	if IsPermutation([]int{0, 3}) {
		t.Errorf("out of range accepted")
	}
	if !IsPermutation(nil) {
		t.Errorf("empty rejected")
	}
}

// Property: Kahan summation of shuffled data matches the exact rational sum.
func TestQuickKahanMatchesRational(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		exact := new(big.Rat)
		for i := range xs {
			xs[i] = float64(rng.Intn(1000)) / 8 // exactly representable
			exact.Add(exact, new(big.Rat).SetFloat64(xs[i]))
		}
		got, _ := new(big.Float).SetRat(exact).Float64()
		return ApproxEqual(kahanSum(xs), got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
