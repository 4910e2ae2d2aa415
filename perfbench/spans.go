package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share its Op ID; Parent is 0 for a root span.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases pay one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, op, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	// IDs are dense and assigned in append order.
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call records fn as one span and returns fn's duration, which is what the
// decomposition accumulates into its layer metrics.
func (t *tracer) call(name string, op, parent int64, fn func()) time.Duration {
	id := t.begin(name, op, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover. Children are clipped to the parent, and overlapping
// children (concurrent calls under one parent) count once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// within the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanTotals is the per-name aggregate of a span set.
type spanTotals struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

func aggregate(spans []span) []spanTotals {
	self := selfTimes(spans)
	byName := map[string]*spanTotals{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanTotals{Name: s.Name}
			byName[s.Name] = a
		}
		a.Count++
		a.Total += s.dur()
		a.Self += self[s.ID]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func printSpanTotals(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-28s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, a := range aggregate(spans) {
		fmt.Fprintf(w, "  %-28s %7d %12.3f %12.3f\n", a.Name, a.Count, ms(a.Total), ms(a.Self))
	}
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
