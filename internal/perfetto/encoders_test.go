package perfetto_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/perfetto"
	"github.com/wirsim/wir/internal/reuseprof"
	"github.com/wirsim/wir/internal/trace"
)

// escapingKernel is a kernel name holding every class of byte encoding/json
// escapes: HTML-sensitive <, > and &, a quote, a backslash, a control byte,
// non-ASCII é, U+2028 and an invalid UTF-8 byte.
const escapingKernel = "k<&\"\\\x01é\u2028>\xffx"

// loopKasm loops over a barrier, so its warps issue, bypass, dispatch,
// retire and meet at barriers, all under the kernel's name.
const loopKasm = `
	        movi  r0, #0
	        movi  r1, #4
	loop:   shl   r2, r0, #2
	        ld.global r3, [r2]
	        fadd  r3, r3, #1.0
	        st.global [r2+64], r3
	        bar
	        iadd  r0, r0, #1
	        isetp.lt p0, r0, r1
	        bra   p0, loop
	        exit
`

// window is how many events the equivalence test encodes at a time, which
// keeps the test near 300 MB. Half the suite fits in one window at 2 SMs; LK
// runs to 2.5 million events, which the map-based reference would hold in
// gigabytes. Each window is a valid recorded stream on its own.
const window = 1 << 17

// windowSink holds a run's events and checks each full window as it fills.
type windowSink struct {
	t      *testing.T
	events []trace.Event
}

func (w *windowSink) Emit(e trace.Event) {
	w.events = append(w.events, e)
	if len(w.events) == window {
		compareEncoders(w.t, w.events, nil)
		w.events = w.events[:0]
	}
}

// runChecked runs wl on g with the reuse profiler attached, and holds both
// encoders to their references on every window of the run's events, the
// reuse counter tracks appended to the last. It returns the last window.
func runChecked(t *testing.T, g *gpu.GPU, setup func(*gpu.GPU) (*bench.Workload, error)) []trace.Event {
	t.Helper()
	rp := g.NewReuseProf()
	g.SetReuseProf(rp)
	sink := &windowSink{t: t}
	g.SetTracer(sink)
	wl, err := setup(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Run(g); err != nil {
		t.Fatal(err)
	}
	compareEncoders(t, sink.events, rp)
	return sink.events
}

func newGPU(t *testing.T) *gpu.GPU {
	t.Helper()
	cfg := config.Default(config.RLPV)
	cfg.NumSMs = 2
	cfg.WatchdogCycles = mem.AutoWatchdog(&cfg)
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEncodersMatchReference holds trace.JSONWriter and Convert plus
// WriteEvents byte-equal to the encoding/json references on every suite
// benchmark at 2 SMs under RLPV (KM, HS and BP under -short), and on a kasm
// kernel whose name needs escaping.
func TestEncodersMatchReference(t *testing.T) {
	abbrs := bench.Abbrs()
	if testing.Short() {
		abbrs = []string{"KM", "HS", "BP"}
	}
	for _, abbr := range abbrs {
		t.Run(abbr, func(t *testing.T) {
			bm, err := bench.ByAbbr(abbr)
			if err != nil {
				t.Fatal(err)
			}
			runChecked(t, newGPU(t), bm.Setup)
		})
	}
	t.Run("kasm", func(t *testing.T) {
		k, err := kasm.Parse(escapingKernel, loopKasm)
		if err != nil {
			t.Fatal(err)
		}
		events := runChecked(t, newGPU(t), func(g *gpu.GPU) (*bench.Workload, error) {
			g.Mem().Alloc(128)
			return &bench.Workload{Launches: []gpu.Launch{{Kernel: k, GridX: 2, DimX: 64}}}, nil
		})
		if !slices.ContainsFunc(events, func(e trace.Event) bool { return e.Kernel == escapingKernel }) {
			t.Fatal("no event carries the kernel name")
		}
	})
}

// compareEncoders fails t unless both appenders write exactly their
// references' bytes for events, with rp's counter tracks appended to the
// Perfetto stream (none when rp is nil).
func compareEncoders(t *testing.T, events []trace.Event, rp *reuseprof.Collector) {
	t.Helper()
	var got, want bytes.Buffer
	jw := trace.NewJSONWriter(&got)
	for _, e := range events {
		jw.Emit(e)
	}
	if err := jw.Err(); err != nil {
		t.Fatalf("JSONWriter: %v", err)
	}
	if err := refWriteJSONL(&want, events); err != nil {
		t.Fatalf("reference wir-trace/1: %v", err)
	}
	sameBytes(t, "wir-trace/1", got.Bytes(), want.Bytes())

	got.Reset()
	want.Reset()
	if err := perfetto.WriteEvents(&got, append(perfetto.Convert(events), rp.PerfettoCounters()...)); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	if err := refWriteEvents(&want, append(refConvert(events), refCounters(rp)...)); err != nil {
		t.Fatalf("reference Perfetto: %v", err)
	}
	sameBytes(t, "Perfetto", got.Bytes(), want.Bytes())
}

// sameBytes fails t at the first line where got and want differ.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d differs:\n got %q\nwant %q", what, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", what, len(gl), len(wl))
}

// FuzzTraceEncoders fuzzes one event's kind, strings and int fields (any
// value, extremes included) and holds both appenders to their references on
// a small stream built from it: the event, an issue and a retire that pair
// with each other, and a copy on another SM and warp. A fuzzed counter value
// rides along on the Perfetto stream; for NaN and the infinities, both
// writers must fail.
func FuzzTraceEncoders(f *testing.F) {
	for _, e := range sampleEvents() {
		f.Add(uint8(e.Kind), e.Cycle, e.SM, e.Warp, e.PC, e.Seq, e.Op, e.Launch, e.Block, e.WarpInBlock, e.Result, e.Kernel, 0.25)
	}
	// Each byte class that needs escaping, alone in a string, and then all
	// of them together.
	for _, s := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\x01b", "\x7f", "é", "\u2028", "\xff"} {
		f.Add(uint8(trace.KindIssue), uint64(1), 0, 1, 2, uint64(3), s, 0, 0, 0, uint64(0), s, 0.5)
	}
	f.Add(uint8(trace.KindIssue), uint64(1), 0, 1, 2, uint64(3), "add", 0, 0, 0, uint64(0), escapingKernel, 1e-7)
	f.Add(uint8(trace.KindBypass), uint64(7), 1, 0, 9, uint64(1), escapingKernel, 1, 2, 3, uint64(5), "km", 1e21)
	f.Add(uint8(200), uint64(math.MaxUint64), math.MinInt, math.MaxInt, -1, uint64(math.MaxUint64), "", math.MinInt, math.MaxInt, -7, uint64(math.MaxUint64), "", -0.0)
	f.Add(uint8(trace.KindRetire), uint64(2), 0, 0, 0, uint64(0), "mul", 0, 0, 0, uint64(1), "", math.NaN())
	f.Add(uint8(trace.KindDummy), uint64(3), 0, 0, 0, uint64(0), "mov", 0, 0, 0, uint64(0), "", math.Inf(-1))
	f.Fuzz(func(t *testing.T, kind uint8, cycle uint64, sm, warp, pc int, seq uint64, op string, launch, block, wib int, result uint64, kernel string, value float64) {
		e := trace.Event{Kind: trace.Kind(kind), Cycle: cycle, SM: sm, Warp: warp, PC: pc, Seq: seq, Op: op,
			Launch: launch, Block: block, WarpInBlock: wib, Result: result, Kernel: kernel}
		issue, retire, moved := e, e, e
		issue.Kind, retire.Kind = trace.KindIssue, trace.KindRetire
		moved.SM, moved.Warp = warp, sm
		events := []trace.Event{e, issue, retire, moved}
		compareEncoders(t, events, nil)

		got := append(perfetto.Convert(events), perfetto.TraceEvent{Phase: 'C', Src: &e, Name: op, Key: kernel, Value: value})
		want := append(refConvert(events), refEvent{Name: op, Cat: "wir", Phase: "C", TS: cycle, PID: sm,
			Args: map[string]any{kernel: value}})
		var gb, wb bytes.Buffer
		gerr := perfetto.WriteEvents(&gb, got)
		werr := refWriteEvents(&wb, want)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("counter value %v: WriteEvents error %v, reference error %v", value, gerr, werr)
		}
		if gerr == nil {
			sameBytes(t, "Perfetto counter", gb.Bytes(), wb.Bytes())
		}
	})
}
