package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/malleable-sched/malleable/internal/schedule"
)

// FuzzTraceRoundTrip drives the JSONL trace codec from both ends:
//
//   - forward: any arrival the writer accepts must be encoded exactly as
//     json.Marshal encodes it, and read back bit-identical (the
//     record/replay contract of `mwct loadtest -trace-out/-trace-in`);
//   - backward: arbitrary bytes fed to the reader must either parse into
//     arrivals or fail with an error — never panic, never hang, and
//     re-encoding whatever parsed must round-trip stably.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(1.0, 2.0, 1.0, 0.5, 0.0, 1, "gold", []byte("{}"))
	f.Add(0.25, 1e-9, 8.0, 0.0, 0.75, 0, "", []byte("{\"task\":{\"weight\":1,\"volume\":2,\"delta\":1},\"release\":3}\n"))
	f.Add(-1.0, 0.0, 0.0, -5.0, 2.0, -3, "x\n", []byte("not json at all"))
	f.Add(1e300, 1e-300, 1e15, 1e9, 0.1, 1<<20, "w", []byte("\n\n\n"))
	f.Add(3e-7, 1e21, 2.5, 1e-6, 0.0, -2, "<a&b>", []byte(`{"task":{"name":"t0","weight":1,"volume":2,"delta":1},"release":0.5}`))
	f.Fuzz(func(t *testing.T, weight, volume, delta, release, curve float64, tenant int, name string, raw []byte) {
		// Forward: encode one fuzzed arrival, decode it, compare.
		a := schedule.Arrival{
			Task:    schedule.Task{Name: name, Weight: weight, Volume: volume, Delta: delta, Curve: curve},
			Release: release,
			Tenant:  tenant,
		}
		var buf bytes.Buffer
		tw := NewTraceWriter(&buf)
		if err := tw.Write(a); err == nil {
			// Names containing newlines would corrupt the line framing; the
			// JSON encoder escapes them, so even those must round-trip.
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(a)
			if err != nil {
				t.Fatalf("writer accepted %+v, json.Marshal rejects it: %v", a, err)
			}
			if got := buf.Bytes(); !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("writer encoded %+v as %q, json.Marshal as %q", a, got, want)
			}
			back, err := readTrace(&buf)
			if err != nil {
				t.Fatalf("wrote %+v but read failed: %v", a, err)
			}
			if len(back) != 1 {
				t.Fatalf("round trip yielded %d arrivals, want 1", len(back))
			}
			if !utf8.ValidString(name) {
				// JSON coerces invalid UTF-8 in the name label to U+FFFD;
				// only the numeric payload is contractual then.
				back[0].Task.Name = a.Task.Name
			}
			if back[0] != a {
				t.Fatalf("round trip changed the arrival: %+v -> %+v", a, back)
			}
		} else if a.Validate() == nil {
			t.Fatalf("writer rejected a valid arrival %+v: %v", a, err)
		}

		// Backward: arbitrary bytes must never panic the reader, and
		// anything it accepts must re-encode to a parseable trace.
		parsed, err := readTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var re bytes.Buffer
		rw := NewTraceWriter(&re)
		for _, p := range parsed {
			// Parsed arrivals may still be invalid (the reader does not
			// validate; the engine boundary does) — the writer rejects those.
			if err := rw.Write(p); err != nil {
				if p.Validate() == nil {
					t.Fatalf("writer rejected valid parsed arrival %+v: %v", p, err)
				}
				return
			}
		}
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := readTrace(strings.NewReader(re.String()))
		if err != nil {
			t.Fatalf("re-encoded trace unreadable: %v", err)
		}
		if len(again) != len(parsed) {
			t.Fatalf("re-encode changed arrival count: %d -> %d", len(parsed), len(again))
		}
	})
}

// FuzzTraceDecodeEquivalence pins the fast trace decoder to encoding/json on
// arbitrary line bytes: where the fast scanner accepts a line, json.Unmarshal
// must accept it too and yield the same arrival, floats compared bit for bit
// (so -0 and subnormals count); and the reader's per-line decode, fast path
// or fallback, must yield json.Unmarshal's arrival or its error. Its seeds
// under testdata/fuzz are the lines of traceBoundaryCases.
func FuzzTraceDecodeEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var want schedule.Arrival
		wantErr := json.Unmarshal(line, &want)
		if fast, ok := decodeArrival(line, make(nameTable)); ok {
			if wantErr != nil {
				t.Fatalf("fast decoder accepted %q, encoding/json rejects it: %v", line, wantErr)
			}
			if !sameArrivalBits(fast, want) {
				t.Fatalf("decoders differ on %q: fast %+v, encoding/json %+v", line, fast, want)
			}
		}
		got, err := decodeLine(line, make(nameTable))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decode of %q: error %v, encoding/json error %v", line, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("decode of %q: error %q, encoding/json error %q", line, err, wantErr)
		case err == nil && !sameArrivalBits(got, want):
			t.Fatalf("decode of %q: %+v, encoding/json %+v", line, got, want)
		}
	})
}

// sameArrivalBits compares two arrivals with floats compared bit for bit.
func sameArrivalBits(a, b schedule.Arrival) bool {
	fa := [...]float64{a.Task.Weight, a.Task.Volume, a.Task.Delta, a.Task.Due, a.Task.Curve, a.Release}
	fb := [...]float64{b.Task.Weight, b.Task.Volume, b.Task.Delta, b.Task.Due, b.Task.Curve, b.Release}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Task.Name == b.Task.Name && a.Tenant == b.Tenant
}
