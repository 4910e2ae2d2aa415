package metrics

import (
	"bytes"
	"strings"
	"testing"

	"github.com/wirsim/wir/internal/stats"
)

func TestSamplerDue(t *testing.T) {
	var nilSp *Sampler
	if nilSp.Due(100) {
		t.Fatal("nil sampler must never be due")
	}
	sp := NewSampler(10)
	if sp.Due(5) {
		t.Fatal("not due before the interval elapses")
	}
	if !sp.Due(10) {
		t.Fatal("due at the boundary")
	}
	var cum stats.Sim
	cum.Cycles = 10
	sp.Observe(10, cum)
	if sp.Due(15) {
		t.Fatal("not due again until another interval elapses")
	}
	if !sp.Due(20) {
		t.Fatal("due at the next boundary")
	}
}

func TestSamplerReconciliation(t *testing.T) {
	sp := NewSampler(100)
	var cum stats.Sim
	step := func(cycle, issued, bypassed uint64) {
		cum.Cycles = cycle
		cum.Issued = issued
		cum.Bypassed = bypassed
		cum.RegUtilPeak = issued / 2 // max-semantics field
		sp.Observe(cycle, cum)
	}
	step(100, 150, 30)
	step(200, 390, 81)
	// Tail partial interval closed by Flush.
	cum.Cycles = 250
	cum.Issued = 500
	cum.Bypassed = 100
	cum.RegUtilPeak = 250
	sp.Flush(250, cum)

	if got := len(sp.Samples()); got != 3 {
		t.Fatalf("%d samples, want 3", got)
	}
	total := sp.SumDeltas()
	if total.Issued != cum.Issued || total.Bypassed != cum.Bypassed ||
		total.Cycles != cum.Cycles || total.RegUtilPeak != cum.RegUtilPeak {
		t.Fatalf("summed deltas %+v do not reconcile with totals %+v", total, cum)
	}
	// Per-interval rates.
	s0 := sp.Samples()[0]
	if s0.IPC != 1.5 {
		t.Fatalf("interval 0 IPC = %g, want 1.5", s0.IPC)
	}
	if s0.Counters["Issued"] != 150 {
		t.Fatalf("interval 0 Issued delta = %d", s0.Counters["Issued"])
	}
	if s1 := sp.Samples()[1]; s1.Counters["Issued"] != 240 {
		t.Fatalf("interval 1 Issued delta = %d", s1.Counters["Issued"])
	}
	// Flush again with the same state must not add an interval.
	sp.Flush(250, cum)
	if got := len(sp.Samples()); got != 3 {
		t.Fatalf("idempotent flush added intervals: %d", got)
	}
}

func TestSamplerPublishesGauges(t *testing.T) {
	sp := NewSampler(10)
	sp.Registry = NewRegistry()
	sp.NumSMs = 2
	var cum stats.Sim
	cum.Cycles = 10
	cum.Issued = 40
	sp.Observe(10, cum)
	if got := sp.Registry.Gauge("wir_interval_ipc").Value(); got != 2.0 {
		t.Fatalf("published IPC = %g, want 2 (per SM)", got)
	}
	if got := sp.Registry.Counter("wir_instructions_issued").Value(); got != 40 {
		t.Fatalf("published issued = %d", got)
	}
}

func TestSamplerJSONLRoundTrip(t *testing.T) {
	sp := NewSampler(50)
	var cum stats.Sim
	cum.Cycles, cum.Issued = 50, 60
	sp.Observe(50, cum)
	cum.Cycles, cum.Issued = 100, 140
	sp.Observe(100, cum)

	var buf bytes.Buffer
	if err := sp.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Counters["Issued"] != 80 || got[1].End != 100 {
		t.Fatalf("round trip wrong: %+v", got)
	}
	// A stream with the wrong schema is rejected.
	if _, err := ReadJSONL(strings.NewReader(`{"schema":"bogus/9"}` + "\n")); err == nil {
		t.Fatal("bogus schema accepted")
	}
}
