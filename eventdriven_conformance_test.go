// Determinism conformance suite: event-driven stepping — quiet-SM tick
// skipping plus whole-GPU fast-forward — must be bit-identical to dense
// stepping under the contract in conformance_test.go, with or without the
// observers that account every cycle attached.
//
// The full suite covers every benchmark of the paper's evaluation;
// testing.Short() trims it to three benchmarks so the CI race pass stays
// fast. The observed rows cover the same three benchmarks in both modes.
package wir_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	wir "github.com/wirsim/wir"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/reuseprof"
)

// TestEventDrivenConformanceSuite holds event-driven stepping bit-identical
// to dense stepping on the benchmark suite. Dense is the reference.
func TestEventDrivenConformanceSuite(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		// A scratchpad+barrier benchmark, a texture/const benchmark, and a
		// divergence-heavy one.
		var trimmed []*bench.Benchmark
		for _, b := range benches {
			switch b.Abbr {
			case "KM", "HS", "BP":
				trimmed = append(trimmed, b)
			}
		}
		benches = trimmed
	}
	for _, b := range benches {
		for _, m := range conformanceModels {
			b, m := b, m
			t.Run(fmt.Sprintf("%s/%v", b.Abbr, m), func(t *testing.T) {
				t.Parallel()
				dense := confRun(t, b.Abbr, m, true, nil)
				event := confRun(t, b.Abbr, m, false, nil)
				compareConf(t, b.Abbr+"/event", dense, event)
			})
		}
	}
	// Instruments and attribution charge a stall reason to every scheduler
	// slot every cycle, and the reuse profiler samples occupancy every
	// cycle: event-driven stepping charges a skipped span in closed form,
	// and these rows hold that to the cycle-by-cycle dense charge.
	for _, abbr := range []string{"KM", "HS", "BP"} {
		for _, m := range conformanceModels {
			abbr, m := abbr, m
			t.Run(fmt.Sprintf("observed/%s/%v", abbr, m), func(t *testing.T) {
				t.Parallel()
				dense := observedRun(t, abbr, m, true)
				event := observedRun(t, abbr, m, false)
				compareObserved(t, abbr+"/observed-event", dense, event)
			})
		}
	}
}

// observedResult is confResult plus what the per-cycle observers recorded.
type observedResult struct {
	confResult
	stalls       metrics.StallReport
	unattributed metrics.StallCounts
	pprof        []byte // attribution profile
	intervals    []byte // wir-intervals/1 JSONL
	reuse        []byte // wir-reuse/1 report
}

// observedRun is confRun with instruments, an interval sampler, per-PC
// attribution and the reuse profiler attached, as a served job carries them.
func observedRun(t *testing.T, abbr string, m wir.Model, dense bool) observedResult {
	t.Helper()
	var (
		g   *wir.GPU
		sp  *wir.Sampler
		col *wir.AttrCollector
		rp  *reuseprof.Collector
	)
	res := confRun(t, abbr, m, dense, func(gpu *wir.GPU) {
		g = gpu
		reg := wir.NewMetricsRegistry()
		g.SetInstruments(wir.NewInstruments(reg))
		sp = wir.NewSampler(1000)
		sp.Registry = reg
		g.SetSampler(sp)
		col = wir.NewAttrCollector()
		g.SetAttribution(col)
		rp = g.NewReuseProf()
		g.SetReuseProf(rp)
	})
	g.FlushSampler()
	out := observedResult{confResult: res, stalls: g.StallReport(), unattributed: col.Unattributed()}
	var b bytes.Buffer
	if err := col.WriteProfile(&b, res.cycles); err != nil {
		t.Fatal(err)
	}
	out.pprof = bytes.Clone(b.Bytes())
	b.Reset()
	if err := sp.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	out.intervals = bytes.Clone(b.Bytes())
	b.Reset()
	if err := rp.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out.reuse = bytes.Clone(b.Bytes())
	return out
}

// compareObserved extends compareConf to the observers' records.
func compareObserved(t *testing.T, name string, ref, got observedResult) {
	t.Helper()
	compareConf(t, name, ref.confResult, got.confResult)
	if !reflect.DeepEqual(ref.stalls, got.stalls) {
		t.Errorf("%s: stall reports diverge:\nref: %+v\ngot: %+v", name, ref.stalls, got.stalls)
	}
	if ref.unattributed != got.unattributed {
		t.Errorf("%s: unattributed stalls diverge: ref %v, got %v", name, ref.unattributed, got.unattributed)
	}
	for _, a := range []struct {
		what     string
		ref, got []byte
	}{
		{"attribution pprof", ref.pprof, got.pprof},
		{"wir-intervals/1 JSONL", ref.intervals, got.intervals},
		{"wir-reuse/1 report", ref.reuse, got.reuse},
	} {
		if !bytes.Equal(a.ref, a.got) {
			t.Errorf("%s: %s is not byte-identical (%d vs %d bytes)", name, a.what, len(a.ref), len(a.got))
		}
	}
}
