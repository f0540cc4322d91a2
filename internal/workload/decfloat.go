package workload

import (
	"math"
	"math/big"
	"math/bits"
)

// Decimal-to-float64 conversion for the trace decoder's fast path. A JSON
// number with at most 19 significant digits reaches it as mant·10^exp10, so
// its digits are read once, by the scanner, instead of a second time by
// strconv.ParseFloat (whose digit loop was 40% of a trace line's decode).
// strconv.ParseFloat rounds to the nearest float64, ties to even, and so does
// every result returned here with ok=true, so the two agree bit for bit; any
// input this code cannot decide goes to strconv.ParseFloat.

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The exponent range of pow10Mant: values from about 1e-45 to 1e83, far
// beyond what a trace records; numbers outside it go to strconv.ParseFloat.
const (
	minPow10Exp = -64
	maxPow10Exp = 64
)

// pow10Mant holds, for each q in [minPow10Exp, maxPow10Exp], the 128 leading
// bits of 10^q rounded down, as {low, high} words with the top bit of high
// set. The binary exponent is implied: floor(q·log2(10)) = 217706·q>>16.
var pow10Mant = func() (t [maxPow10Exp - minPow10Exp + 1][2]uint64) {
	low64 := new(big.Int).SetUint64(math.MaxUint64)
	for q := minPow10Exp; q <= maxPow10Exp; q++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		m := new(big.Int)
		switch {
		case q < 0:
			// 10^-q is not a power of two, so 2^(127+len)/10^-q lies
			// strictly between 2^127 and 2^128.
			m.Quo(m.Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		case p.BitLen() > 128:
			m.Rsh(p, uint(p.BitLen()-128))
		default:
			m.Lsh(p, uint(128-p.BitLen()))
		}
		t[q-minPow10Exp] = [2]uint64{new(big.Int).And(m, low64).Uint64(), m.Rsh(m, 64).Uint64()}
	}
	return t
}()

// decimalToFloat returns the float64 nearest to mant·10^exp10, negated when
// neg; ok=false means the caller must use strconv.ParseFloat.
func decimalToFloat(mant uint64, exp10 int, neg bool) (float64, bool) {
	// Exact operands, one IEEE operation: rounded once, correctly.
	if mant>>53 == 0 && -22 <= exp10 && exp10 <= 22 {
		f := float64(mant)
		if neg {
			f = -f
		}
		if exp10 >= 0 {
			return f * exactPow10[exp10], true
		}
		return f / exactPow10[-exp10], true
	}
	return eiselLemire(mant, exp10, neg)
}

// eiselLemire is the Eisel–Lemire algorithm (Lemire, "Number Parsing at a
// Gigabyte per Second", 2021), as strconv implements it: multiply the
// normalized mantissa by the truncated 128-bit power of ten, and give up
// whenever the truncation could change the rounding, or the result is
// subnormal, infinite or outside the table.
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10Exp || exp10 > maxPow10Exp {
		return 0, false
	}
	pow := pow10Mant[exp10-minPow10Exp]
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	hi, lo := bits.Mul64(mant, pow[1])
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		// The low bits are all ones: the high 128 bits of the product with
		// the lower word of the power may carry into them.
		yHi, yLo := bits.Mul64(mant, pow[0])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	// Keep 54 bits, then round to 53.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		// Exactly half-way between two floats after truncation: undecided.
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		// Subnormal, zero, or overflow to infinity.
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
