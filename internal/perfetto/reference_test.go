package perfetto_test

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/wirsim/wir/internal/reuseprof"
	"github.com/wirsim/wir/internal/trace"
)

// This file keeps the wir-trace/1 and Perfetto encoders as they were before
// both became strconv appenders: encoding/json reflection over one value per
// event, and a map of args per issue event. They are the references the
// appenders are held to, byte for byte.

// refJSONEvent is the wire form of a wir-trace/1 event: the fields and tags
// of trace's jsonEvent, which its reader still decodes.
type refJSONEvent struct {
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
	Kernel      string `json:"kernel,omitempty"`
}

func toJSONEvent(e trace.Event) refJSONEvent {
	je := refJSONEvent{
		Kind: e.Kind.String(), Cycle: e.Cycle, SM: e.SM, Warp: e.Warp,
		PC: e.PC, Seq: e.Seq, Op: e.Op,
		Launch: e.Launch, Block: e.Block, WarpInBlock: e.WarpInBlock,
		Kernel: e.Kernel,
	}
	if e.Kind == trace.KindRetire {
		je.Result = fmt.Sprintf("%016x", e.Result)
	}
	return je
}

// refWriteJSONL writes events as trace.JSONWriter did: the schema header,
// then one json.Encoder line per event.
func refWriteJSONL(w io.Writer, events []trace.Event) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Schema string `json:"schema"`
	}{trace.JSONSchema}); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(toJSONEvent(e)); err != nil {
			return err
		}
	}
	return nil
}

// refEvent is the map-based Chrome trace-event object.
type refEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type refFlightKey struct {
	sm, warp, launch, block, wib int
	seq                          uint64
}

func refKey(e *trace.Event) refFlightKey {
	return refFlightKey{sm: e.SM, warp: e.Warp, launch: e.Launch, block: e.Block, wib: e.WarpInBlock, seq: e.Seq}
}

func refConvert(events []trace.Event) []refEvent {
	out := make([]refEvent, 0, len(events)+16)

	sms := map[int]bool{}
	warps := map[[2]int]bool{}
	for i := range events {
		sms[events[i].SM] = true
		warps[[2]int{events[i].SM, events[i].Warp}] = true
	}
	for _, sm := range refSortedInts(sms) {
		out = append(out, refEvent{
			Name: "process_name", Phase: "M", PID: sm,
			Args: map[string]any{"name": fmt.Sprintf("SM %d", sm)},
		})
	}
	wkeys := make([][2]int, 0, len(warps))
	for k := range warps {
		wkeys = append(wkeys, k)
	}
	sort.Slice(wkeys, func(i, j int) bool {
		if wkeys[i][0] != wkeys[j][0] {
			return wkeys[i][0] < wkeys[j][0]
		}
		return wkeys[i][1] < wkeys[j][1]
	})
	for _, k := range wkeys {
		out = append(out, refEvent{
			Name: "thread_name", Phase: "M", PID: k[0], TID: k[1],
			Args: map[string]any{"name": fmt.Sprintf("warp %d", k[1])},
		})
	}

	open := map[refFlightKey]string{}
	nextID := 0
	for i := range events {
		e := &events[i]
		name := fmt.Sprintf("%s pc%d", e.Op, e.PC)
		base := refEvent{Name: name, Cat: "wir", TS: e.Cycle, PID: e.SM, TID: e.Warp}
		switch e.Kind {
		case trace.KindIssue:
			nextID++
			id := fmt.Sprintf("%x", nextID)
			open[refKey(e)] = id
			base.Phase = "b"
			base.ID = id
			base.Args = refIssueArgs(e)
			out = append(out, base)
		case trace.KindRetire:
			id, ok := open[refKey(e)]
			if !ok {
				continue
			}
			delete(open, refKey(e))
			base.Phase = "e"
			base.ID = id
			out = append(out, base)
		case trace.KindBypass, trace.KindDispatch, trace.KindDummy:
			base.Phase = "i"
			base.Scope = "t"
			base.Name = e.Kind.String() + " " + name
			out = append(out, base)
		case trace.KindBarrier:
			base.Phase = "i"
			base.Scope = "p"
			base.Name = "barrier release"
			out = append(out, base)
		}
	}
	return out
}

func refIssueArgs(e *trace.Event) map[string]any {
	args := map[string]any{
		"pc": e.PC, "seq": e.Seq, "launch": e.Launch,
		"block": e.Block, "warp_in_block": e.WarpInBlock,
	}
	if e.Kernel != "" {
		args["kernel"] = e.Kernel
	}
	return args
}

func refSortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func refWriteEvents(w io.Writer, tevs []refEvent) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i := range tevs {
		b, err := json.Marshal(&tevs[i])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(tevs)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// refCounters renders the reuse profiler's counter tracks as
// Collector.PerfettoCounters did.
func refCounters(c *reuseprof.Collector) []refEvent {
	if c == nil {
		return nil
	}
	var out []refEvent
	for i := 0; i < c.NumSMs(); i++ {
		s := c.SM(i)
		var prevLookups, prevHits uint64
		for _, p := range s.Series {
			out = append(out, refEvent{
				Name: "reuse occupancy", Cat: "wir", Phase: "C",
				TS: p.Cycle, PID: s.ID,
				Args: map[string]any{"entries": p.Occ},
			})
			dl := p.Lookups - prevLookups
			dh := p.Hits - prevHits
			rate := 0.0
			if dl > 0 {
				rate = float64(dh) / float64(dl)
			}
			out = append(out, refEvent{
				Name: "reuse hit rate", Cat: "wir", Phase: "C",
				TS: p.Cycle, PID: s.ID,
				Args: map[string]any{"rate": rate},
			})
			prevLookups, prevHits = p.Lookups, p.Hits
		}
	}
	return out
}
