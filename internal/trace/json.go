package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// JSONSchema identifies the JSONL trace format; bump on any incompatible
// change to the event encoding.
const JSONSchema = "wir-trace/1"

// jsonHeader is the first line of a JSONL trace.
type jsonHeader struct {
	Schema string `json:"schema"`
}

// jsonEvent is the wire form of an Event. Result is hex text so the stream
// stays greppable and immune to JSON float round-tripping of large uint64s.
type jsonEvent struct {
	Kind        string `json:"kind"`
	Cycle       uint64 `json:"cycle"`
	SM          int    `json:"sm"`
	Warp        int    `json:"warp"`
	PC          int    `json:"pc"`
	Seq         uint64 `json:"seq"`
	Op          string `json:"op"`
	Launch      int    `json:"launch"`
	Block       int    `json:"block"`
	WarpInBlock int    `json:"wib"`
	Result      string `json:"result,omitempty"`
	// Kernel is optional (added after wir-trace/1 shipped, omitted when
	// empty) so old readers and old recorded streams stay compatible.
	Kernel string `json:"kernel,omitempty"`
}

func toJSONEvent(e Event) jsonEvent {
	je := jsonEvent{
		Kind: e.Kind.String(), Cycle: e.Cycle, SM: e.SM, Warp: e.Warp,
		PC: e.PC, Seq: e.Seq, Op: e.Op,
		Launch: e.Launch, Block: e.Block, WarpInBlock: e.WarpInBlock,
		Kernel: e.Kernel,
	}
	if e.Kind == KindRetire {
		je.Result = fmt.Sprintf("%016x", e.Result)
	}
	return je
}

func fromJSONEvent(je jsonEvent) (Event, error) {
	e := Event{
		Cycle: je.Cycle, SM: je.SM, Warp: je.Warp, PC: je.PC, Seq: je.Seq,
		Op: je.Op, Launch: je.Launch, Block: je.Block, WarpInBlock: je.WarpInBlock,
		Kernel: je.Kernel,
	}
	found := false
	for k, n := range kindNames {
		if n == je.Kind {
			e.Kind = Kind(k)
			found = true
			break
		}
	}
	if !found {
		return e, fmt.Errorf("trace: unknown event kind %q", je.Kind)
	}
	if je.Result != "" {
		// Only retire events carry a result; the writer drops any other.
		if e.Kind != KindRetire {
			return e, fmt.Errorf("trace: %s event has a result", je.Kind)
		}
		r, err := strconv.ParseUint(je.Result, 16, 64)
		if err != nil {
			return e, fmt.Errorf("trace: bad result %q: %w", je.Result, err)
		}
		e.Result = r
	}
	return e, nil
}

// JSONWriter streams events as JSON lines behind a schema header, optionally
// filtered by kind, SM, and warp. The zero filter values pass everything.
type JSONWriter struct {
	enc *json.Encoder
	err error
	n   int

	// Filters. A nil Kinds passes all kinds; SM and Warp < 0 pass all.
	Kinds map[Kind]bool
	SM    int
	Warp  int
}

// NewJSONWriter returns a JSONL sink writing to w, with the schema header
// already emitted and no filtering.
func NewJSONWriter(w io.Writer) *JSONWriter {
	jw := &JSONWriter{enc: json.NewEncoder(w), SM: -1, Warp: -1}
	jw.err = jw.enc.Encode(jsonHeader{Schema: JSONSchema})
	return jw
}

// FilterKinds restricts the sink to the given event kinds.
func (jw *JSONWriter) FilterKinds(kinds ...Kind) *JSONWriter {
	jw.Kinds = make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		jw.Kinds[k] = true
	}
	return jw
}

// Emit implements Sink.
func (jw *JSONWriter) Emit(e Event) {
	if jw.err != nil {
		return
	}
	if jw.Kinds != nil && !jw.Kinds[e.Kind] {
		return
	}
	if jw.SM >= 0 && e.SM != jw.SM {
		return
	}
	if jw.Warp >= 0 && e.Warp != jw.Warp {
		return
	}
	jw.err = jw.enc.Encode(toJSONEvent(e))
	jw.n++
}

// Count returns how many events were written.
func (jw *JSONWriter) Count() int { return jw.n }

// Err returns the first write error, if any.
func (jw *JSONWriter) Err() error { return jw.err }

// ReadJSONL parses a JSONL trace written by JSONWriter, validating the schema
// header.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var hdr jsonHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr.Schema != JSONSchema {
		return nil, fmt.Errorf("trace: unsupported schema %q (want %q)", hdr.Schema, JSONSchema)
	}
	var out []Event
	for {
		var je jsonEvent
		if err := dec.Decode(&je); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: reading event %d: %w", len(out), err)
		}
		e, err := fromJSONEvent(je)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// ReadRetireRecorder loads a JSONL trace and replays its retire events into a
// RetireRecorder, so a recorded run can stand in for a live one in
// differential comparison (wirdiff -ja/-jb).
func ReadRetireRecorder(r io.Reader) (*RetireRecorder, error) {
	events, err := ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	rec := NewRetireRecorder()
	for _, e := range events {
		rec.Emit(e)
	}
	return rec, nil
}

// Multi fans events out to several sinks (e.g. a live text writer plus a
// JSONL file plus a retire recorder).
type Multi []Sink

// Emit implements Sink.
func (m Multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}
