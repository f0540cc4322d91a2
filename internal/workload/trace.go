package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/malleable-sched/malleable/internal/schedule"
)

// The JSONL trace codec: one schedule.Arrival JSON object per line, e.g.
//
//	{"task":{"weight":1,"volume":0.5,"delta":2},"release":0.25,"tenant":1}
//
// A trace file records an arrival stream so a workload observed once (or
// captured from production) can be replayed byte-deterministically through
// the engine without regenerating it. Both ends are streaming: TraceWriter
// encodes arrivals as they are produced, TraceReader decodes them as the
// engine pulls, so recording or replaying a ten-million-task day costs
// constant memory on top of the file itself.

// maxTraceLine bounds one encoded arrival. Real lines are ~150 bytes; the
// megabyte ceiling only guards the reader against unbounded garbage input.
const maxTraceLine = 1 << 20

// TraceWriter encodes arrivals to JSONL. Writes are buffered; call Flush
// before closing the underlying writer.
type TraceWriter struct {
	bw    *bufio.Writer
	count int
	line  []byte // encoding scratch, reused across writes
}

// NewTraceWriter wraps w in a buffered JSONL arrival encoder.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{bw: bufio.NewWriter(w)}
}

// Write appends one arrival as a JSON line. Invalid arrivals are rejected —
// a recorded trace must replay cleanly through the engine's boundary
// validation, so nothing unreplayable may enter the file.
func (t *TraceWriter) Write(a schedule.Arrival) error {
	if err := a.Validate(); err != nil {
		return fmt.Errorf("workload: trace arrival %d: %w", t.count, err)
	}
	line, ok := appendArrival(t.line[:0], a)
	if ok {
		t.line = line
	} else {
		var err error
		if line, err = json.Marshal(a); err != nil {
			return fmt.Errorf("workload: trace arrival %d: %w", t.count, err)
		}
	}
	if _, err := t.bw.Write(line); err != nil {
		return err
	}
	if err := t.bw.WriteByte('\n'); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns the number of arrivals written so far.
func (t *TraceWriter) Count() int { return t.count }

// Flush writes any buffered data to the underlying writer.
func (t *TraceWriter) Flush() error { return t.bw.Flush() }

// TraceReader decodes a JSONL arrival trace as a pull stream. Its Next method
// satisfies the engine's ArrivalStream contract, so a trace file plugs
// directly into a streaming run; the engine re-validates every arrival and
// the release-order invariant at its boundary, so a hand-edited or corrupted
// trace fails the run with a line-numbered error instead of poisoning it.
type TraceReader struct {
	sc    *bufio.Scanner
	line  int
	names nameTable
}

// NewTraceReader wraps r in a JSONL arrival decoder. Blank lines are
// skipped, so traces may be concatenated with separating newlines.
func NewTraceReader(r io.Reader) *TraceReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	return &TraceReader{sc: sc, names: make(nameTable)}
}

// Next decodes the next arrival; ok=false reports a clean end of trace. A
// line outside the fast grammar (see decodeArrival) is decoded by
// encoding/json instead, so its result and error are json.Unmarshal's.
func (t *TraceReader) Next() (schedule.Arrival, bool, error) {
	for t.sc.Scan() {
		t.line++
		raw := bytes.TrimSpace(t.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		a, err := decodeLine(raw, t.names)
		if err != nil {
			return schedule.Arrival{}, false, fmt.Errorf("workload: trace line %d: %w", t.line, err)
		}
		return a, true, nil
	}
	if err := t.sc.Err(); err != nil {
		return schedule.Arrival{}, false, fmt.Errorf("workload: trace line %d: %w", t.line+1, err)
	}
	return schedule.Arrival{}, false, nil
}

// decodeLine decodes one trimmed, non-blank trace line: by the fast scanner
// when the line is inside its grammar, otherwise by encoding/json.
func decodeLine(raw []byte, names nameTable) (schedule.Arrival, error) {
	if a, ok := decodeArrival(raw, names); ok {
		return a, nil
	}
	var a schedule.Arrival
	err := json.Unmarshal(raw, &a)
	return a, err
}
