package workload

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// The scanner's number conversion must agree with strconv.ParseFloat bit for
// bit on every JSON number: shortest and longer renderings of random
// float64s across the whole exponent range, random decimals of up to 22
// digits, and decimals a hair from the half-way point between two floats,
// where a truncated power of ten could round the wrong way.
func TestScannerFloatMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(s string) {
		t.Helper()
		want, err := strconv.ParseFloat(s, 64)
		sc := lineScanner{b: []byte(s)}
		got, ok := sc.float()
		if err != nil {
			if ok {
				t.Fatalf("%s: scanner gave %g, ParseFloat fails: %v", s, got, err)
			}
			return
		}
		if !ok || sc.i != len(s) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: scanner gave %g (ok=%v, %d of %d bytes), ParseFloat %g", s, got, ok, sc.i, len(s), want)
		}
	}
	for _, s := range []string{
		"0", "-0", "0.0", "-0.000", "1", "-1", "9007199254740992", "9007199254740993",
		"9007199254740993.0000001", "18446744073709551615", "18446744073709551616",
		"1e22", "1e23", "1e-22", "1e-23", "5e-324", "2.2250738585072011e-308",
		"2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623159e308",
		"1e309", "-1e309", "1e-400", "0.1", "0.3", "2.5", "0.000001", "1e-7",
		"123456789012345678901234567890", "0.0000000000000000000000000001234",
		"1e64", "1e65", "1e-64", "1e-65", "1E+2", "1e0000000000000000000000002",
	} {
		check(s)
	}
	formats := []struct {
		fmt  byte
		prec int
	}{{'g', -1}, {'e', -1}, {'f', -1}, {'e', 15}, {'e', 16}, {'e', 17}, {'e', 18}, {'e', 20}}
	for i := 0; i < 100000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		if i%2 == 0 {
			// Half the draws at the magnitudes traces record.
			f = math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		}
		fm := formats[i%len(formats)]
		if fm.fmt == 'f' && math.Abs(f) > 1e30 {
			continue
		}
		check(strconv.FormatFloat(f, fm.fmt, fm.prec, 64))
	}
	for i := 0; i < 100000; i++ {
		digits := make([]byte, 1+rng.Intn(22))
		for j := range digits {
			digits[j] = byte('0' + rng.Intn(10))
		}
		if digits[0] == '0' {
			digits[0] = '1'
		}
		s := string(digits)
		if p := rng.Intn(len(digits) + 1); p < len(digits) && p > 0 {
			s = s[:p] + "." + s[p:]
		}
		check(s + "e" + strconv.Itoa(rng.Intn(140)-70))
	}
	for i := 0; i < 50000; i++ {
		// The exact midpoint of f and its successor, rounded to 16–19
		// significant digits.
		f := math.Ldexp(1+rng.Float64(), rng.Intn(200)-100)
		mid := new(big.Float).SetPrec(200).SetFloat64(f)
		mid.Add(mid, new(big.Float).SetPrec(200).SetFloat64(math.Nextafter(f, math.Inf(1))))
		mid.Quo(mid, big.NewFloat(2))
		check(mid.Text('e', 15+rng.Intn(4)))
	}
}
