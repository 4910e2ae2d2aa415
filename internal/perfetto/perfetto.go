// Package perfetto converts wir-trace pipeline events into the Chrome
// trace-event JSON format, which the Perfetto UI (ui.perfetto.dev) and
// chrome://tracing both load. Each SM becomes a process, each hardware warp
// slot a thread; an instruction's issue→retire lifetime renders as an async
// slice on its warp track (async, because a warp holds many overlapping
// in-flight instructions), and bypasses, dummy-MOV injections, dispatches
// and barrier releases render as instant events. Timestamps use the fixed
// convention 1 simulated cycle = 1 µs, matching the attribution profile's
// duration stamp.
package perfetto

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"github.com/wirsim/wir/internal/trace"
)

// TraceEvent is one Chrome trace-event object in compact form: it points at
// what it renders, and WriteEvents builds its name and args as it writes it.
type TraceEvent struct {
	// Phase is 'M' (metadata), 'b' or 'e' (async slice begin or end), 'i'
	// (instant) or 'C' (counter).
	Phase byte
	// Scope is an instant's scope, 't' (thread) or 'p' (process). On a
	// metadata event it says which of the two the event names.
	Scope byte
	// ID pairs an async begin with its end; it is written in hex.
	ID int
	// Src places the event: ts is its Cycle (0 on metadata), pid its SM and
	// tid its Warp (0 on process metadata and counters). A slice or instant
	// also takes its name and args from it.
	Src *trace.Event
	// Name, Key and Value are a counter's track name and its one arg.
	Name  string
	Key   string
	Value float64
}

// cat is the category every emitted slice, instant and counter carries, so
// the UI can filter simulator events as one group.
const cat = "wir"

// flightKey identifies one in-flight instruction across its issue and retire
// events: the logical warp identity plus the per-warp program-order
// sequence number (PC alone is ambiguous in loops).
type flightKey struct {
	sm, warp, launch, block, wib int
	seq                          uint64
}

// Convert turns pipeline events into trace events. Events may be any subset
// of a recorded stream (filters applied upstream are fine): a retire with no
// matching issue is dropped rather than emitting an unbalanced async end,
// and an issue with no retire renders as an unfinished slice, which the UI
// shows as such. The trace events point into events, which must outlive them.
func Convert(events []trace.Event) []TraceEvent {
	// Metadata: name each SM process and warp thread that appears anywhere
	// in the stream, in sorted order so output is deterministic.
	first := map[[2]int]*trace.Event{}
	for i := range events {
		k := [2]int{events[i].SM, events[i].Warp}
		if first[k] == nil {
			first[k] = &events[i]
		}
	}
	warps := make([][2]int, 0, len(first))
	for k := range first {
		warps = append(warps, k)
	}
	slices.SortFunc(warps, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	out := make([]TraceEvent, 0, 2*len(warps)+len(events))
	for i, k := range warps {
		if i == 0 || k[0] != warps[i-1][0] {
			out = append(out, TraceEvent{Phase: 'M', Scope: 'p', Src: first[k]})
		}
	}
	for _, k := range warps {
		out = append(out, TraceEvent{Phase: 'M', Scope: 't', Src: first[k]})
	}

	open := map[flightKey]int{}
	nextID := 0
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case trace.KindIssue:
			nextID++
			open[key(e)] = nextID
			out = append(out, TraceEvent{Phase: 'b', ID: nextID, Src: e})
		case trace.KindRetire:
			id, ok := open[key(e)]
			if !ok {
				continue // stream started after this instruction issued
			}
			delete(open, key(e))
			out = append(out, TraceEvent{Phase: 'e', ID: id, Src: e})
		case trace.KindBypass, trace.KindDispatch, trace.KindDummy:
			out = append(out, TraceEvent{Phase: 'i', Scope: 't', Src: e})
		case trace.KindBarrier:
			out = append(out, TraceEvent{Phase: 'i', Scope: 'p', Src: e})
		}
	}
	return out
}

func key(e *trace.Event) flightKey {
	return flightKey{sm: e.SM, warp: e.Warp, launch: e.Launch, block: e.Block, wib: e.WarpInBlock, seq: e.Seq}
}

// bufSize is WriteEvents' write size: events are appended to one buffer,
// which goes to w whenever it holds flushAt bytes, so an unbuffered file
// sees a write per 64 KiB rather than one per event.
const (
	bufSize = 64 << 10
	flushAt = bufSize - 1<<10
)

// WriteEvents writes already-converted trace events as a JSON array, one
// event per line (the array-of-events form both Perfetto and chrome://tracing
// accept). Callers that append extra tracks (e.g. the reuse profiler's
// counter events) convert first, splice, then write. Each event is byte for
// byte what encoding/json writes for the object it describes, object keys
// (args included) in sorted order.
func WriteEvents(w io.Writer, tevs []TraceEvent) error {
	b := make([]byte, 0, bufSize)
	var name []byte // scratch for slice and instant names
	b = append(b, "[\n"...)
	for i := range tevs {
		te := &tevs[i]
		if te.Phase == 'C' && (math.IsNaN(te.Value) || math.IsInf(te.Value, 0)) {
			// encoding/json refuses these too: JSON cannot hold them.
			return fmt.Errorf("perfetto: unsupported counter value %v", te.Value)
		}
		b, name = appendEvent(b, name, te)
		if i < len(tevs)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "]\n"...)
	_, err := w.Write(b)
	return err
}

// appendEvent appends te as one JSON object. name is scratch space for a
// slice or instant name, returned for reuse.
func appendEvent(b, name []byte, te *TraceEvent) ([]byte, []byte) {
	e := te.Src
	ts, tid := e.Cycle, e.Warp
	b = append(b, `{"name":`...)
	switch {
	case te.Phase == 'M' && te.Scope == 'p':
		ts, tid = 0, 0
		b = append(b, `"process_name"`...)
	case te.Phase == 'M':
		ts = 0
		b = append(b, `"thread_name"`...)
	case te.Phase == 'C':
		tid = 0
		b = trace.AppendJSONString(b, te.Name)
	case te.Phase == 'i' && te.Scope == 'p':
		b = append(b, `"barrier release"`...)
	default:
		name = name[:0]
		if te.Phase == 'i' {
			name = append(name, e.Kind.String()...)
			name = append(name, ' ')
		}
		name = append(name, e.Op...)
		name = append(name, " pc"...)
		name = strconv.AppendInt(name, int64(e.PC), 10)
		b = trace.AppendJSONString(b, name)
	}
	if te.Phase != 'M' {
		b = append(b, `,"cat":"`+cat+`"`...)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, te.Phase)
	b = append(b, `","ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.SM), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	switch te.Phase {
	case 'M':
		if te.Scope == 'p' {
			b = append(b, `,"args":{"name":"SM `...)
			b = strconv.AppendInt(b, int64(e.SM), 10)
		} else {
			b = append(b, `,"args":{"name":"warp `...)
			b = strconv.AppendInt(b, int64(e.Warp), 10)
		}
		b = append(b, `"}`...)
	case 'b', 'e':
		b = append(b, `,"id":"`...)
		b = strconv.AppendInt(b, int64(te.ID), 16)
		b = append(b, '"')
		if te.Phase == 'b' {
			b = append(b, `,"args":{"block":`...)
			b = strconv.AppendInt(b, int64(e.Block), 10)
			if e.Kernel != "" {
				b = append(b, `,"kernel":`...)
				b = trace.AppendJSONString(b, e.Kernel)
			}
			b = append(b, `,"launch":`...)
			b = strconv.AppendInt(b, int64(e.Launch), 10)
			b = append(b, `,"pc":`...)
			b = strconv.AppendInt(b, int64(e.PC), 10)
			b = append(b, `,"seq":`...)
			b = strconv.AppendUint(b, e.Seq, 10)
			b = append(b, `,"warp_in_block":`...)
			b = strconv.AppendInt(b, int64(e.WarpInBlock), 10)
			b = append(b, '}')
		}
	case 'i':
		b = append(b, `,"s":"`...)
		b = append(b, te.Scope, '"')
	case 'C':
		b = append(b, `,"args":{`...)
		b = trace.AppendJSONString(b, te.Key)
		b = append(b, ':')
		b = appendFloat(b, te.Value)
		b = append(b, '}')
	}
	return append(b, '}'), name
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest 'f' form, or for magnitudes below 1e-6 or from 1e21 up the 'e'
// form with a one-digit negative exponent trimmed (1e-07 is written 1e-7).
func appendFloat(b []byte, f float64) []byte {
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

// Recorder is a trace.Sink that buffers every event for a post-run Convert.
type Recorder struct {
	Events []trace.Event
}

// Emit implements trace.Sink.
func (r *Recorder) Emit(e trace.Event) { r.Events = append(r.Events, e) }
