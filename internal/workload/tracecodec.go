package workload

import (
	"math"
	"strconv"

	"github.com/malleable-sched/malleable/internal/schedule"
)

// The fast half of the JSONL trace codec. Both directions handle only a
// narrow grammar that covers every line a TraceWriter produces and decline
// everything else, so the caller can hand the line to encoding/json instead:
//
//   - decodeArrival accepts one object per line with the top-level keys
//     task, release and tenant, and inside task the keys name, weight,
//     volume, delta, due and curve; keys in any order, with any JSON
//     whitespace, each at most once and in exact case. Numbers must match
//     the JSON number grammar; decimalToFloat converts those of up to 19
//     significant digits and strconv.ParseFloat (encoding/json's conversion)
//     the rest, and both round to nearest, so the floats are bitwise equal.
//     A tenant must be an integer literal that fits an int, and a name must
//     be printable ASCII without quote or backslash. Any escape, null,
//     nested or unknown value, key in another case, duplicate key, number
//     ParseFloat rejects, or trailing byte is a miss.
//   - appendArrival encodes what json.Marshal would, byte for byte, for an
//     arrival whose floats are finite and whose name needs no escaping.
//
// Within the grammar both produce exactly what encoding/json produces; the
// equivalence is pinned by FuzzTraceDecodeEquivalence and FuzzTraceRoundTrip.

// maxInternedNames bounds a reader's table of task names. Traces name their
// tasks after a handful of tenants, so the table warms in a few lines and the
// decode allocates nothing after; a trace with more distinct names than this
// pays one allocation per uninterned name instead of growing the table.
const maxInternedNames = 256

// nameTable interns the task names a reader has decoded.
type nameTable map[string]string

func (t nameTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t) < maxInternedNames {
		t[s] = s
	}
	return s
}

// lineScanner walks one trace line. Every method reports false on the first
// byte outside the fast grammar.
type lineScanner struct {
	b []byte
	i int
}

func (s *lineScanner) skipSpace() {
	// Every JSON whitespace byte is at most ' '; compact lines have none.
	for s.i < len(s.b) && s.b[s.i] <= ' ' {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *lineScanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// plainString returns the bytes of a string token that decodes to itself:
// printable ASCII with no quote or backslash.
func (s *lineScanner) plainString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// jsonNumber is a scanned number token. When it has at most
// maxMantDigits significant digits, its value is (-1)^neg·mant·10^exp10.
type jsonNumber struct {
	tok    []byte
	mant   uint64
	exp10  int
	digits int // significant digits, leading zeros excluded
	neg    bool
}

// maxMantDigits is the most decimal digits a uint64 mantissa always holds.
const maxMantDigits = 19

// mantissaDigits consumes the digits of b from i, folding the first
// maxMantDigits significant ones into mant and counting all of them in nd.
func mantissaDigits(b []byte, i int, mant uint64, nd int) (int, uint64, int) {
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		if mant != 0 || d != 0 {
			if nd < maxMantDigits {
				mant = mant*10 + uint64(d)
			}
			nd++
		}
	}
	return i, mant, nd
}

// number scans a token matching the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *lineScanner) number() (n jsonNumber, ok bool) {
	s.skipSpace()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, n.mant, n.digits = mantissaDigits(b, i, 0, 0)
	default:
		return n, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return n, false
		}
		frac := i
		i, n.mant, n.digits = mantissaDigits(b, i, n.mant, n.digits)
		n.exp10 = frac - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		negExp := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return n, false
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1e6 { // far outside any float64; saturate
				e = e*10 + int(b[i]-'0')
			}
		}
		if negExp {
			e = -e
		}
		n.exp10 += e
	}
	s.i = i
	n.tok = b[start:i]
	return n, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (s *lineScanner) float() (float64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	if n.digits <= maxMantDigits {
		if f, ok := decimalToFloat(n.mant, n.exp10, n.neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(n.tok), 64)
	return f, err == nil
}

// int scans an integer literal; ParseInt rejects a fraction or an exponent.
func (s *lineScanner) int() (int, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(n.tok), 10, strconv.IntSize)
	return int(v), err == nil
}

// object scans an object whose members field decodes. field returns a bit
// naming the key (0 for an unknown key) and whether its value scanned; a key
// seen twice is a miss.
func (s *lineScanner) object(field func(key []byte) (uint8, bool)) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := s.plainString()
		if !ok || !s.consume(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

func (s *lineScanner) task(t *schedule.Task, names nameTable) bool {
	return s.object(func(key []byte) (bit uint8, ok bool) {
		switch string(key) {
		case "name":
			var b []byte
			if b, ok = s.plainString(); ok {
				t.Name = names.intern(b)
			}
			return 1, ok
		case "weight":
			t.Weight, ok = s.float()
			return 2, ok
		case "volume":
			t.Volume, ok = s.float()
			return 4, ok
		case "delta":
			t.Delta, ok = s.float()
			return 8, ok
		case "due":
			t.Due, ok = s.float()
			return 16, ok
		case "curve":
			t.Curve, ok = s.float()
			return 32, ok
		}
		return 0, false
	})
}

// decodeArrival decodes one trace line within the fast grammar; ok=false
// means the line is outside it and must go to encoding/json.
func decodeArrival(line []byte, names nameTable) (a schedule.Arrival, ok bool) {
	s := lineScanner{b: line}
	ok = s.object(func(key []byte) (bit uint8, ok bool) {
		switch string(key) {
		case "task":
			return 1, s.task(&a.Task, names)
		case "release":
			a.Release, ok = s.float()
			return 2, ok
		case "tenant":
			a.Tenant, ok = s.int()
			return 4, ok
		}
		return 0, false
	})
	s.skipSpace()
	if !ok || s.i != len(s.b) {
		return schedule.Arrival{}, false
	}
	return a, true
}

// appendArrival appends json.Marshal's encoding of a to dst; ok=false means a
// has a non-finite float or a name json.Marshal would escape, and dst is
// returned unchanged.
func appendArrival(dst []byte, a schedule.Arrival) ([]byte, bool) {
	t := a.Task
	for _, f := range [...]float64{t.Weight, t.Volume, t.Delta, t.Due, t.Curve, a.Release} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, false
		}
	}
	for i := 0; i < len(t.Name); i++ {
		switch c := t.Name[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return dst, false
		}
	}
	b := append(dst, `{"task":{`...)
	if t.Name != "" {
		b = append(b, `"name":"`...)
		b = append(b, t.Name...)
		b = append(b, `",`...)
	}
	b = appendJSONFloat(append(b, `"weight":`...), t.Weight)
	b = appendJSONFloat(append(b, `,"volume":`...), t.Volume)
	b = appendJSONFloat(append(b, `,"delta":`...), t.Delta)
	if t.Due != 0 {
		b = appendJSONFloat(append(b, `,"due":`...), t.Due)
	}
	if t.Curve != 0 {
		b = appendJSONFloat(append(b, `,"curve":`...), t.Curve)
	}
	b = appendJSONFloat(append(b, `},"release":`...), a.Release)
	if a.Tenant != 0 {
		b = strconv.AppendInt(append(b, `,"tenant":`...), int64(a.Tenant), 10)
	}
	return append(b, '}'), true
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest representation, in exponent form below 1e-6 or from 1e21 on, with
// a two-digit negative exponent trimmed to one (e-07 becomes e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
