// Determinism conformance: the contract the stepping-mode and observer
// suites hold every run to. Every comparison is exact: wir-stats/1 counters
// compare with struct equality, wir-trace/1 streams byte-for-byte as emitted
// JSONL, energy totals as float equality on every component, and output
// images word-for-word. The one parallel axis — independent simulations run
// side by side, as the sweep worker pool runs them — is held to the same
// contract run by run (a simulation made alongside others equals the same
// simulation made alone) and at the figure level (any -j width renders the
// same report).
//
// The parallel suites cover every benchmark of the paper's evaluation plus
// ≥50 fuzz seeds on Base and RLPV; testing.Short() trims both dimensions so
// the CI race pass (`go test -race -short ./...`) still exercises each one.
package wir_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	wir "github.com/wirsim/wir"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/fuzz"
	"github.com/wirsim/wir/internal/harness"
	"github.com/wirsim/wir/internal/trace"
)

// confResult is every observable artifact the determinism contract covers.
type confResult struct {
	cycles uint64
	stats  wir.Stats
	energy wir.EnergyBreakdown
	trace  []byte
	output []uint32
}

// confRun executes one suite benchmark on a 4-SM chip, stepping densely or
// event-driven, and captures its artifacts. attach, when non-nil, hooks
// observers onto the GPU before the run.
func confRun(t *testing.T, abbr string, m wir.Model, dense bool, attach func(*wir.GPU)) confResult {
	t.Helper()
	cfg := wir.DefaultConfig(m)
	cfg.NumSMs = 4 // >1 so cross-SM ordering and the skip mask engage; small so the suites fit CI
	g, err := wir.NewGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.SetEventDriven(!dense)
	if attach != nil {
		attach(g)
	}
	var buf bytes.Buffer
	jw := trace.NewJSONWriter(&buf)
	jw.FilterKinds(trace.KindRetire, trace.KindBypass, trace.KindBarrier)
	g.SetTracer(jw)
	bm, err := bench.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := bm.Setup(g)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := w.Run(g)
	if err != nil {
		t.Fatalf("%s/%v dense=%v: %v", abbr, m, dense, err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	return confResult{
		cycles: cycles,
		stats:  st,
		energy: wir.Energy(cfg, &st),
		trace:  buf.Bytes(),
		output: g.Mem().Snapshot(w.OutBase, w.OutWords),
	}
}

// compareConf fails the test on the first artifact where got departs from
// the reference run ref.
func compareConf(t *testing.T, name string, ref, got confResult) {
	t.Helper()
	if ref.cycles != got.cycles {
		t.Errorf("%s: cycles diverge: ref %d, got %d", name, ref.cycles, got.cycles)
	}
	if ref.stats != got.stats {
		t.Errorf("%s: wir-stats/1 counters diverge:\nref: %+v\ngot: %+v", name, ref.stats, got.stats)
	}
	if ref.energy != got.energy {
		t.Errorf("%s: energy totals diverge:\nref: %+v\ngot: %+v", name, ref.energy, got.energy)
	}
	if !bytes.Equal(ref.trace, got.trace) {
		t.Errorf("%s: wir-trace/1 streams are not byte-identical (%d vs %d bytes)",
			name, len(ref.trace), len(got.trace))
	}
	if len(ref.output) != len(got.output) {
		t.Fatalf("%s: output lengths diverge", name)
	}
	for i := range ref.output {
		if ref.output[i] != got.output[i] {
			t.Errorf("%s: out[%d] = %#x ref, %#x got", name, i, ref.output[i], got.output[i])
			break
		}
	}
}

// conformanceModels is both machine models the contract covers.
var conformanceModels = []wir.Model{wir.Base, wir.RLPV}

// digestTrace replaces r's trace stream with its SHA-256, so a reference can
// be held while other runs execute: the full suite's streams total over 1 GB.
func digestTrace(r confResult) confResult {
	sum := sha256.Sum256(r.trace)
	r.trace = sum[:]
	return r
}

// TestParallelConformanceSuite holds each benchmark run alongside the others
// bit-identical to the same run made alone. A subtest's first run happens
// before t.Parallel, while the parent waits, so it is the only simulation in
// the process; the second runs in the concurrent phase.
func TestParallelConformanceSuite(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		// Trimmed -race subset: a scratchpad+barrier benchmark, a
		// texture/const benchmark, and a divergence-heavy one.
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
				alone := digestTrace(confRun(t, b.Abbr, m, false, nil))
				t.Parallel()
				together := digestTrace(confRun(t, b.Abbr, m, false, nil))
				compareConf(t, b.Abbr+"/concurrent", alone, together)
			})
		}
	}
}

// TestParallelConformanceFuzz replays ≥50 generated programs on both models,
// once alone and once alongside the others, and demands identical artifacts,
// including the recorded retire streams. Both runs must also be
// oracle-clean.
func TestParallelConformanceFuzz(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, m := range conformanceModels {
			seed, m := seed, m
			t.Run(fmt.Sprintf("seed%d/%v", seed, m), func(t *testing.T) {
				o := fuzz.DefaultOptions(seed)
				o.WithShared = seed%2 == 1
				alone := fuzzConfRun(t, o, m)
				t.Parallel()
				together := fuzzConfRun(t, o, m)
				if alone.res.Cycles != together.res.Cycles {
					t.Errorf("cycles diverge: alone %d, concurrent %d", alone.res.Cycles, together.res.Cycles)
				}
				if alone.res.Stats != together.res.Stats {
					t.Errorf("stats diverge:\nalone:      %+v\nconcurrent: %+v", alone.res.Stats, together.res.Stats)
				}
				if !bytes.Equal(alone.trace, together.trace) {
					t.Errorf("wir-trace/1 streams are not byte-identical (%d vs %d bytes)",
						len(alone.trace), len(together.trace))
				}
				if len(alone.res.Output) != len(together.res.Output) {
					t.Fatal("output lengths diverge")
				}
				for i := range alone.res.Output {
					if alone.res.Output[i] != together.res.Output[i] {
						t.Errorf("out[%d] = %#x alone, %#x concurrent", i, alone.res.Output[i], together.res.Output[i])
						break
					}
				}
				if err := fuzz.Check(alone.res, nil, nil); err != nil {
					t.Errorf("lone run not clean: %v", err)
				}
				if err := fuzz.Check(together.res, nil, nil); err != nil {
					t.Errorf("concurrent run not clean: %v", err)
				}
			})
		}
	}
}

type fuzzConf struct {
	res   *fuzz.Result
	trace []byte
}

// fuzzConfRun executes one generated program on a 4-SM chip with the oracle
// attached and captures its result and retire stream.
func fuzzConfRun(t *testing.T, o fuzz.Options, m wir.Model) fuzzConf {
	t.Helper()
	var buf bytes.Buffer
	jw := trace.NewJSONWriter(&buf)
	jw.FilterKinds(trace.KindRetire, trace.KindBypass, trace.KindBarrier)
	res, err := fuzz.Execute(o, fuzz.RunConfig{Model: m, NumSMs: 4, Oracle: true, Trace: jw})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("seed %d: %v", o.Seed, res.RunErr)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	return fuzzConf{res: res, trace: buf.Bytes()}
}

// TestHarnessParallelismDeterminism holds the sweep-level worker pool to the
// same contract: a harness running on 8 workers produces the same results —
// and the same rendered report — as a serial one.
func TestHarnessParallelismDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("covered unabridged in the non-short pass")
	}
	render := func(workers int) (string, string) {
		h := harness.New()
		h.SMs = 2
		h.SetParallelism(workers)
		r, err := h.Fig17()
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		r.WriteText(&text)
		var csv bytes.Buffer
		if err := h.WriteRunsCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return text.String(), csv.String()
	}
	serialText, serialCSV := render(1)
	parText, parCSV := render(8)
	if serialText != parText {
		t.Errorf("Fig17 text diverges between -j 1 and -j 8:\nserial:\n%s\nparallel:\n%s", serialText, parText)
	}
	if serialCSV != parCSV {
		t.Errorf("runs CSV diverges between -j 1 and -j 8")
	}
}
