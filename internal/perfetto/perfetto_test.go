package perfetto_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/wirsim/wir/internal/perfetto"
	"github.com/wirsim/wir/internal/trace"
)

func sampleEvents() []trace.Event {
	return []trace.Event{
		{Kind: trace.KindIssue, Cycle: 10, SM: 0, Warp: 1, PC: 3, Seq: 1, Op: "mul", Kernel: "km_scale"},
		{Kind: trace.KindIssue, Cycle: 11, SM: 0, Warp: 1, PC: 4, Seq: 2, Op: "add", Kernel: "km_scale"},
		{Kind: trace.KindBypass, Cycle: 12, SM: 0, Warp: 1, PC: 4, Seq: 2, Op: "add", Kernel: "km_scale"},
		{Kind: trace.KindDispatch, Cycle: 13, SM: 0, Warp: 1, PC: 3, Seq: 1, Op: "mul"},
		{Kind: trace.KindRetire, Cycle: 14, SM: 0, Warp: 1, PC: 4, Seq: 2, Op: "add", Result: 7},
		{Kind: trace.KindRetire, Cycle: 20, SM: 0, Warp: 1, PC: 3, Seq: 1, Op: "mul", Result: 9},
		{Kind: trace.KindBarrier, Cycle: 25, SM: 1, Warp: 0, Op: "bar", Kernel: "km_scale"},
		// Retire with no recorded issue (stream truncated at the front).
		{Kind: trace.KindRetire, Cycle: 30, SM: 1, Warp: 2, PC: 9, Seq: 5, Op: "ld"},
	}
}

// TestWriteIsEventArray validates the acceptance-criteria schema: the output
// is a bare JSON array of event objects, each with the mandatory trace-event
// fields.
func TestWriteIsEventArray(t *testing.T) {
	var bb bytes.Buffer
	if err := perfetto.Write(&bb, sampleEvents()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(bb.Bytes(), &arr); err != nil {
		t.Fatalf("output is not a JSON array of objects: %v\n%s", err, bb.String())
	}
	if len(arr) == 0 {
		t.Fatal("empty event array")
	}
	for i, ev := range arr {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M", "b", "e", "i":
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
	}
}

// writtenEvent is the part of a written trace event the tests below read.
type writtenEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	ID    string         `json:"id"`
	Scope string         `json:"s"`
	Args  map[string]any `json:"args"`
}

// written converts events, writes them, and decodes what was written.
func written(t *testing.T, events []trace.Event) []writtenEvent {
	t.Helper()
	var bb bytes.Buffer
	if err := perfetto.WriteEvents(&bb, perfetto.Convert(events)); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	var out []writtenEvent
	if err := json.Unmarshal(bb.Bytes(), &out); err != nil {
		t.Fatalf("written events do not decode: %v\n%s", err, bb.String())
	}
	return out
}

func TestConvertPairsSlices(t *testing.T) {
	begins := map[string]int{}
	ends := map[string]int{}
	for _, te := range written(t, sampleEvents()) {
		switch te.Phase {
		case "b":
			if te.ID == "" {
				t.Fatal("async begin without id")
			}
			begins[te.ID]++
		case "e":
			if te.ID == "" {
				t.Fatal("async end without id")
			}
			ends[te.ID]++
		}
	}
	if len(begins) != 2 {
		t.Fatalf("got %d begin ids, want 2", len(begins))
	}
	for id, n := range ends {
		if begins[id] != n {
			t.Fatalf("unbalanced async events for id %s: %d begins, %d ends", id, begins[id], n)
		}
	}
	// The unmatched retire (no issue in stream) must not produce an end.
	if tot := len(ends); tot != 2 {
		t.Fatalf("got %d ended slices, want 2 (orphan retire must be dropped)", tot)
	}
}

func TestConvertMetadataAndInstants(t *testing.T) {
	var procs, threads, instants, procInstants int
	for _, te := range written(t, sampleEvents()) {
		switch {
		case te.Phase == "M" && te.Name == "process_name":
			procs++
		case te.Phase == "M" && te.Name == "thread_name":
			threads++
		case te.Phase == "i" && te.Scope == "t":
			instants++
		case te.Phase == "i" && te.Scope == "p":
			procInstants++
		}
	}
	if procs != 2 { // SM 0 and SM 1
		t.Fatalf("got %d process_name events, want 2", procs)
	}
	if threads != 3 { // (0,1), (1,0), (1,2)
		t.Fatalf("got %d thread_name events, want 3", threads)
	}
	if instants != 2 { // bypass + dispatch
		t.Fatalf("got %d thread instants, want 2", instants)
	}
	if procInstants != 1 { // barrier
		t.Fatalf("got %d process instants, want 1", procInstants)
	}
}

func TestIssueArgsCarryKernel(t *testing.T) {
	found := false
	for _, te := range written(t, sampleEvents()) {
		if te.Phase == "b" && strings.HasPrefix(te.Name, "mul") {
			found = true
			if te.Args["kernel"] != "km_scale" {
				t.Fatalf("issue args missing kernel: %v", te.Args)
			}
		}
	}
	if !found {
		t.Fatal("no issue slice for mul found")
	}
}

func TestWriteEmpty(t *testing.T) {
	var bb bytes.Buffer
	if err := perfetto.Write(&bb, nil); err != nil {
		t.Fatalf("Write(nil): %v", err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(bb.Bytes(), &arr); err != nil {
		t.Fatalf("empty output is not a JSON array: %v", err)
	}
	if len(arr) != 0 {
		t.Fatalf("want empty array, got %d events", len(arr))
	}
}
