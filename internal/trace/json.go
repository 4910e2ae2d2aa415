package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
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
// Each line is byte for byte what encoding/json writes for a jsonEvent, and
// goes out in one Write.
type JSONWriter struct {
	w   io.Writer
	buf []byte // the line being encoded, reused across events
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
	jw := &JSONWriter{w: w, SM: -1, Warp: -1}
	_, jw.err = io.WriteString(w, `{"schema":"`+JSONSchema+`"}`+"\n")
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
	b := append(jw.buf[:0], `{"kind":`...)
	b = AppendJSONString(b, e.Kind.String())
	b = append(b, `,"cycle":`...)
	b = strconv.AppendUint(b, e.Cycle, 10)
	b = append(b, `,"sm":`...)
	b = strconv.AppendInt(b, int64(e.SM), 10)
	b = append(b, `,"warp":`...)
	b = strconv.AppendInt(b, int64(e.Warp), 10)
	b = append(b, `,"pc":`...)
	b = strconv.AppendInt(b, int64(e.PC), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"op":`...)
	b = AppendJSONString(b, e.Op)
	b = append(b, `,"launch":`...)
	b = strconv.AppendInt(b, int64(e.Launch), 10)
	b = append(b, `,"block":`...)
	b = strconv.AppendInt(b, int64(e.Block), 10)
	b = append(b, `,"wib":`...)
	b = strconv.AppendInt(b, int64(e.WarpInBlock), 10)
	if e.Kind == KindRetire {
		// Sixteen lower-case hex digits, as %016x formats it.
		b = append(b, `,"result":"`...)
		for shift := 60; shift >= 0; shift -= 4 {
			b = append(b, hexDigits[e.Result>>shift&0xf])
		}
		b = append(b, '"')
	}
	if e.Kernel != "" {
		b = append(b, `,"kernel":`...)
		b = AppendJSONString(b, e.Kernel)
	}
	b = append(b, "}\n"...)
	jw.buf = b
	_, jw.err = jw.w.Write(b)
	jw.n++
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s to b as a JSON string, byte for byte as
// encoding/json writes it. Plain ASCII is copied as is. A string holding any
// byte encoding/json would escape (a quote, a backslash, a control byte, the
// HTML-sensitive <, > and &, or any byte of a multi-byte or invalid UTF-8
// sequence, which covers U+2028, U+2029 and the replacement of bad bytes)
// goes through json.Marshal instead: kernel names are client text.
func AppendJSONString[S string | []byte](b []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(string(s)) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
