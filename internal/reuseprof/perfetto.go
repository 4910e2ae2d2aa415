package reuseprof

import (
	"github.com/wirsim/wir/internal/perfetto"
	"github.com/wirsim/wir/internal/trace"
)

// PerfettoCounters renders the per-SM rolling series as Chrome trace-event
// counter tracks: reuse-buffer occupancy and the rolling hit rate (hits over
// lookups within each sampling stride), one track pair per SM process. The
// events append cleanly to a perfetto.Convert stream, which uses the same
// SM-as-process convention.
func (c *Collector) PerfettoCounters() []perfetto.TraceEvent {
	if c == nil {
		return nil
	}
	n := 0
	for _, s := range c.sms {
		n += len(s.Series)
	}
	at := make([]trace.Event, 0, n) // each sample's cycle and SM
	out := make([]perfetto.TraceEvent, 0, 2*n)
	for _, s := range c.sms {
		var prevLookups, prevHits uint64
		for _, p := range s.Series {
			at = append(at, trace.Event{Cycle: p.Cycle, SM: s.ID})
			src := &at[len(at)-1]
			dl := p.Lookups - prevLookups
			dh := p.Hits - prevHits
			rate := 0.0
			if dl > 0 {
				rate = float64(dh) / float64(dl)
			}
			out = append(out,
				perfetto.TraceEvent{Phase: 'C', Src: src, Name: "reuse occupancy", Key: "entries", Value: float64(p.Occ)},
				perfetto.TraceEvent{Phase: 'C', Src: src, Name: "reuse hit rate", Key: "rate", Value: rate})
			prevLookups, prevHits = p.Lookups, p.Hits
		}
	}
	return out
}
