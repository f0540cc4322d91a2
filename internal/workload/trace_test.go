package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/malleable-sched/malleable/internal/schedule"
)

// A generated stream must round-trip through the JSONL codec exactly: Go's
// JSON encoder emits the shortest float64 representation that parses back to
// the same bits, so record/replay is lossless.
func TestTraceRoundTripExact(t *testing.T) {
	cfg := ArrivalConfig{
		Class: Uniform, P: 8, Process: Bursty, Rate: 8, MeanBurst: 4,
		Tenants:  []TenantSpec{{Name: "gold", Weight: 4, Share: 0.3}, {Name: "bronze", Weight: 1, Share: 0.7}},
		CurveMin: 0.5, CurveMax: 0.9,
	}
	arrivals, err := GenerateArrivals(cfg, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, arrivals); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(arrivals) {
		t.Fatalf("trace has %d lines for %d arrivals", lines, len(arrivals))
	}
	back, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(arrivals) {
		t.Fatalf("read %d arrivals, want %d", len(back), len(arrivals))
	}
	for i := range back {
		if back[i] != arrivals[i] {
			t.Fatalf("arrival %d not bit-identical: %+v vs %+v", i, back[i], arrivals[i])
		}
	}
}

// The reader must skip blank lines, report malformed lines with their line
// number, and the writer must refuse arrivals that would not replay.
func TestTraceCodecEdges(t *testing.T) {
	src := "\n{\"task\":{\"weight\":1,\"volume\":2,\"delta\":1},\"release\":0.5}\n\n" +
		"{\"task\":{\"weight\":2,\"volume\":1,\"delta\":2},\"release\":1,\"tenant\":3}\n"
	back, err := readTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Release != 0.5 || back[1].Tenant != 3 {
		t.Fatalf("parsed %+v", back)
	}

	if _, err := readTrace(strings.NewReader("{\"task\":{}}\nnot json\n")); err == nil {
		t.Error("malformed line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %v does not name line 2", err)
	}

	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	// Zero weight fails schedule.Arrival.Validate: nothing unreplayable may
	// enter a trace file.
	if err := tw.Write(schedule.Arrival{Task: schedule.Task{Weight: 0, Volume: 1, Delta: 1}}); err == nil {
		t.Error("invalid arrival written to trace")
	}
	if tw.Count() != 0 {
		t.Errorf("count = %d after rejected write", tw.Count())
	}
}

// Corrupt-input error paths of the streaming reader: every failure must name
// the offending line so a damaged multi-gigabyte trace is debuggable, and a
// truncated final line (the classic torn tail of a killed recorder) must
// fail the replay rather than silently shortening the workload.
func TestTraceReaderCorruptInput(t *testing.T) {
	goodLine := `{"task":{"weight":1,"volume":2,"delta":1},"release":0.5}`

	t.Run("truncated final line", func(t *testing.T) {
		// Two good arrivals, then a tail cut mid-object — no trailing
		// newline, as a torn write would leave it.
		src := goodLine + "\n" + goodLine + "\n" + `{"task":{"weight":1,"vol`
		tr := NewTraceReader(strings.NewReader(src))
		for i := 0; i < 2; i++ {
			if _, ok, err := tr.Next(); err != nil || !ok {
				t.Fatalf("arrival %d: ok=%v err=%v", i, ok, err)
			}
		}
		_, ok, err := tr.Next()
		if ok || err == nil {
			t.Fatalf("truncated tail: ok=%v err=%v, want a line-3 error", ok, err)
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("error %v does not name line 3", err)
		}
	})

	t.Run("blank lines do not shift numbering", func(t *testing.T) {
		src := "\n\n" + goodLine + "\n\nnot json\n"
		tr := NewTraceReader(strings.NewReader(src))
		if _, ok, err := tr.Next(); err != nil || !ok {
			t.Fatalf("good arrival: ok=%v err=%v", ok, err)
		}
		_, _, err := tr.Next()
		// "not json" is the 5th physical line: blank lines count.
		if err == nil || !strings.Contains(err.Error(), "line 5") {
			t.Errorf("error %v does not name line 5", err)
		}
	})

	t.Run("oversized line", func(t *testing.T) {
		huge := `{"task":{"weight":1,"volume":2,"delta":1},"name":"` + strings.Repeat("x", maxTraceLine) + `"}`
		tr := NewTraceReader(strings.NewReader(goodLine + "\n" + huge + "\n"))
		if _, ok, err := tr.Next(); err != nil || !ok {
			t.Fatalf("good arrival: ok=%v err=%v", ok, err)
		}
		_, ok, err := tr.Next()
		if ok || err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("oversized line: ok=%v err=%v, want a line-2 error", ok, err)
		}
	})

	t.Run("reader failure carries position", func(t *testing.T) {
		failing := io.MultiReader(strings.NewReader(goodLine+"\n"), iotest.ErrReader(errBoom))
		tr := NewTraceReader(failing)
		if _, ok, err := tr.Next(); err != nil || !ok {
			t.Fatalf("good arrival: ok=%v err=%v", ok, err)
		}
		_, ok, err := tr.Next()
		if ok || err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("failing reader: ok=%v err=%v, want a line-2 error", ok, err)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Errorf("error %v lost the underlying cause", err)
		}
	})

	t.Run("error is terminal after a good prefix replays", func(t *testing.T) {
		// readTrace surfaces the same line-numbered error as the streaming
		// loop would, discarding the partial prefix.
		if _, err := readTrace(strings.NewReader(goodLine + "\n{")); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("readTrace error = %v, want line-2 failure", err)
		}
	})
}

var errBoom = errors.New("boom")

// taskArrival is the arrival {"task":{"weight":w,"volume":v,"delta":d},"release":r}.
func taskArrival(w, v, d, r float64) schedule.Arrival {
	return schedule.Arrival{Task: schedule.Task{Weight: w, Volume: v, Delta: d}, Release: r}
}

// traceBoundaryCases are the extreme-value and off-grammar lines of the trace
// decoder, run by TestTraceBoundaryCases and checked in, one file per case,
// as the seeds of FuzzTraceDecodeEquivalence under testdata/fuzz. fast marks the lines inside the
// fast scanner's grammar; every other line is decoded by encoding/json, so
// want and err are what encoding/json makes of it.
var traceBoundaryCases = []struct {
	name string
	line string
	fast bool
	want schedule.Arrival
	err  string // substring of the error; "" when the line decodes
}{
	{name: "bare NaN", line: `{"task":{"weight":NaN,"volume":2,"delta":1},"release":0.5}`,
		err: "invalid character 'N' looking for beginning of value"},
	{name: "bare Infinity", line: `{"task":{"weight":1,"volume":Infinity,"delta":1},"release":0.5}`,
		err: "invalid character 'I' looking for beginning of value"},
	{name: "bare -Infinity", line: `{"task":{"weight":1,"volume":2,"delta":1},"release":-Infinity}`,
		err: "invalid character 'I' in numeric literal"},
	{name: "smallest subnormal", line: `{"task":{"weight":5e-324,"volume":2,"delta":1},"release":0.5}`,
		fast: true, want: taskArrival(math.SmallestNonzeroFloat64, 2, 1, 0.5)},
	{name: "largest subnormal", line: `{"task":{"weight":1,"volume":2.225073858507201e-308,"delta":1},"release":0.5}`,
		fast: true, want: taskArrival(1, 2.225073858507201e-308, 1, 0.5)},
	{name: "underflow to zero", line: `{"task":{"weight":1,"volume":1e-400,"delta":1},"release":0.5}`,
		fast: true, want: taskArrival(1, 0, 1, 0.5)},
	{name: "1e308", line: `{"task":{"weight":1,"volume":2,"delta":1e308},"release":0.5}`,
		fast: true, want: taskArrival(1, 2, 1e308, 0.5)},
	{name: "1e309 overflows", line: `{"task":{"weight":1,"volume":2,"delta":1e309},"release":0.5}`,
		err: "cannot unmarshal number 1e309"},
	{name: "negative zero", line: `{"task":{"weight":1,"volume":-0,"delta":1},"release":-0.0}`,
		fast: true, want: taskArrival(1, math.Copysign(0, -1), 1, math.Copysign(0, -1))},
	{name: "upper-case exponent", line: `{"task":{"weight":1E+2,"volume":2E-1,"delta":1e0},"release":0.5}`,
		fast: true, want: taskArrival(100, 0.2, 1, 0.5)},
	{name: "leading zero", line: `{"task":{"weight":01,"volume":2,"delta":1},"release":0.5}`,
		err: "invalid character '1' after object key:value pair"},
	{name: "trailing dot", line: `{"task":{"weight":1.,"volume":2,"delta":1},"release":0.5}`,
		err: "invalid character ',' after decimal point in numeric literal"},
	{name: "leading dot", line: `{"task":{"weight":.5,"volume":2,"delta":1},"release":0.5}`,
		err: "invalid character '.' looking for beginning of value"},
	{name: "plus sign", line: `{"task":{"weight":+1,"volume":2,"delta":1},"release":0.5}`,
		err: "invalid character '+' looking for beginning of value"},
	{name: "hex float", line: `{"task":{"weight":0x1p3,"volume":2,"delta":1},"release":0.5}`,
		err: "invalid character 'x' after object key:value pair"},
	{name: "digit separator", line: `{"task":{"weight":1_0,"volume":2,"delta":1},"release":0.5}`,
		err: "invalid character '_' after object key:value pair"},
	{name: "key in another case", line: `{"task":{"Weight":3,"volume":2,"delta":1},"release":0.5}`,
		want: taskArrival(3, 2, 1, 0.5)},
	{name: "duplicate key", line: `{"task":{"weight":1,"volume":2,"delta":1,"weight":3},"release":0.5}`,
		want: taskArrival(3, 2, 1, 0.5)},
	{name: "null value", line: `{"task":{"weight":1,"volume":null,"delta":1},"release":0.5}`,
		want: taskArrival(1, 0, 1, 0.5)},
	{name: "null task", line: `{"task":null,"release":0.5}`, want: taskArrival(0, 0, 0, 0.5)},
	{name: "null line", line: `null`},
	{name: "unknown nested key", line: `{"task":{"weight":1,"volume":2,"delta":1,"extra":{"a":[1,{"b":null}]}},"release":0.5}`,
		want: taskArrival(1, 2, 1, 0.5)},
	{name: "escaped name", line: `{"task":{"name":"t\u0030","weight":1,"volume":2,"delta":1},"release":0.5}`,
		want: schedule.Arrival{Task: schedule.Task{Name: "t0", Weight: 1, Volume: 2, Delta: 1}, Release: 0.5}},
	{name: "non-ASCII name", line: `{"task":{"name":"té","weight":1,"volume":2,"delta":1},"release":0.5}`,
		want: schedule.Arrival{Task: schedule.Task{Name: "té", Weight: 1, Volume: 2, Delta: 1}, Release: 0.5}},
	{name: "invalid UTF-8 name", line: "{\"task\":{\"name\":\"t\xff\",\"weight\":1,\"volume\":2,\"delta\":1},\"release\":0.5}",
		want: schedule.Arrival{Task: schedule.Task{Name: "t\ufffd", Weight: 1, Volume: 2, Delta: 1}, Release: 0.5}},
	{name: "control byte in name", line: "{\"task\":{\"name\":\"t\x01\",\"weight\":1,\"volume\":2,\"delta\":1},\"release\":0.5}",
		err: "invalid character '\\x01' in string literal"},
	{name: "plain name and tenant", line: `{"task":{"name":"t3","weight":1,"volume":2,"delta":1,"due":4,"curve":0.5},"release":0.5,"tenant":3}`,
		fast: true, want: schedule.Arrival{Task: schedule.Task{Name: "t3", Weight: 1, Volume: 2, Delta: 1, Due: 4, Curve: 0.5}, Release: 0.5, Tenant: 3}},
	{name: "any order and whitespace", line: "{ \"tenant\" :\t-0 ,\"release\":0.5,\r\"task\":{\"delta\":1 ,\"volume\":2,\"weight\":1 } }",
		fast: true, want: taskArrival(1, 2, 1, 0.5)},
	{name: "empty object", line: `{}`, fast: true},
	{name: "fractional tenant", line: `{"task":{"weight":1,"volume":2,"delta":1},"release":0.5,"tenant":1.5}`,
		err: "cannot unmarshal number 1.5"},
	{name: "tenant overflow", line: `{"task":{"weight":1,"volume":2,"delta":1},"release":0.5,"tenant":9223372036854775808}`,
		err: "cannot unmarshal number 9223372036854775808"},
	{name: "array line", line: `[1,2]`, err: "cannot unmarshal array"},
	{name: "trailing garbage", line: `{"task":{"weight":1,"volume":2,"delta":1},"release":0.5} x`,
		err: "invalid character 'x' after top-level value"},
	{name: "torn last line", line: `{"task":{"weight":1,"vol`, err: "unexpected end of JSON input"},
}

// writeTrace records a whole arrival slice through a TraceWriter.
func writeTrace(w io.Writer, arrivals []schedule.Arrival) error {
	tw := NewTraceWriter(w)
	for _, a := range arrivals {
		if err := tw.Write(a); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// readTrace decodes a whole JSONL trace through a TraceReader.
func readTrace(r io.Reader) ([]schedule.Arrival, error) {
	tr := NewTraceReader(r)
	var out []schedule.Arrival
	for {
		a, ok, err := tr.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, a)
	}
}

// referenceReadTrace is the reader as it was before the fast scanner: every
// line through json.Unmarshal. It defines the results and error texts the
// fast path must keep.
func referenceReadTrace(r io.Reader) ([]schedule.Arrival, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	var out []schedule.Arrival
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var a schedule.Arrival
		if err := json.Unmarshal(raw, &a); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		out = append(out, a)
	}
	return out, sc.Err()
}

// Every boundary case, placed after a good line with no newline after it (so
// the torn case is a torn tail), must read as the json-only reader reads it:
// the same arrivals bit for bit, or the same line-2 error text.
func TestTraceBoundaryCases(t *testing.T) {
	const good = `{"task":{"name":"t0","weight":1,"volume":2,"delta":1},"release":0.25}`
	for _, c := range traceBoundaryCases {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := decodeArrival([]byte(c.line), make(nameTable)); ok != c.fast {
				t.Errorf("fast scanner accepted=%v, want %v", ok, c.fast)
			}
			src := good + "\n" + c.line
			got, err := readTrace(strings.NewReader(src))
			want, wantErr := referenceReadTrace(strings.NewReader(src))
			if c.err != "" {
				if err == nil {
					t.Fatalf("decoded %+v, want an error containing %q", got, c.err)
				}
				if wantErr == nil || err.Error() != wantErr.Error() {
					t.Fatalf("error %q, json-only reader: %v", err, wantErr)
				}
				if !strings.HasPrefix(err.Error(), "workload: trace line 2: ") || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("error %q does not name line 2 and %q", err, c.err)
				}
				return
			}
			if err != nil || wantErr != nil {
				t.Fatalf("error %v, json-only reader error %v", err, wantErr)
			}
			if len(got) != 2 || len(want) != 2 {
				t.Fatalf("read %d arrivals, json-only reader %d, want 2", len(got), len(want))
			}
			if !sameArrivalBits(got[1], c.want) || !sameArrivalBits(want[1], c.want) {
				t.Fatalf("decoded %+v, json-only reader %+v, want %+v", got[1], want[1], c.want)
			}
		})
	}
}

// replayTrace encodes n arrivals shaped like the benchmark's replay: the
// uniform class at load 0.9 on P=8, eight named tenants at skew 1.5.
func replayTrace(tb testing.TB, n int) []byte {
	tb.Helper()
	tenants, err := ParseTenants("t0:4:1,t1:2:1,t2:1:1,t3:1:1,t4:1:1,t5:1:1,t6:1:1,t7:1:1")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := ArrivalConfig{Class: Uniform, P: 8, Process: Poisson, Rate: 14.4, Tenants: tenants, TenantSkew: 1.5}
	arrivals, err := GenerateArrivals(cfg, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, arrivals); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A warmed reader over a replay-shaped trace decodes without allocating:
// names come from the reader's intern table and numbers are parsed in place.
func TestTraceReaderZeroAllocsPerArrival(t *testing.T) {
	tr := NewTraceReader(bytes.NewReader(replayTrace(t, 2048)))
	next := func() {
		if _, ok, err := tr.Next(); !ok || err != nil {
			t.Fatalf("trace ended early: ok=%v err=%v", ok, err)
		}
	}
	for i := 0; i < 256; i++ {
		next()
	}
	if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
		t.Errorf("TraceReader.Next allocated %.3g times per arrival, want 0", allocs)
	}
}

// A trace naming every task differently fills the reader's name table to
// its bound and no further, and still decodes every name.
func TestTraceReaderNameTableBounded(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 3*maxInternedNames; i++ {
		fmt.Fprintf(&src, `{"task":{"name":"n%d","weight":1,"volume":1,"delta":1},"release":0}`+"\n", i)
	}
	tr := NewTraceReader(strings.NewReader(src.String()))
	for i := 0; i < 3*maxInternedNames; i++ {
		a, ok, err := tr.Next()
		if !ok || err != nil || a.Task.Name != fmt.Sprintf("n%d", i) {
			t.Fatalf("line %d: %+v ok=%v err=%v", i+1, a, ok, err)
		}
	}
	if len(tr.names) != maxInternedNames {
		t.Errorf("name table holds %d names, want the bound %d", len(tr.names), maxInternedNames)
	}
}

func BenchmarkTraceReaderNext(b *testing.B) {
	trace := replayTrace(b, 32768)
	b.SetBytes(int64(len(trace) / 32768))
	b.ReportAllocs()
	tr := NewTraceReader(bytes.NewReader(trace))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := tr.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			tr = NewTraceReader(bytes.NewReader(trace))
		}
	}
}
