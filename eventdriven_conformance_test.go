// Determinism conformance suite: event-driven stepping — quiet-SM tick
// skipping plus whole-GPU fast-forward — must be bit-identical to dense
// stepping under the contract in conformance_test.go.
//
// The full suite covers every benchmark of the paper's evaluation;
// testing.Short() trims it to three benchmarks so the CI race pass stays
// fast.
package wir_test

import (
	"fmt"
	"testing"

	"github.com/wirsim/wir/internal/bench"
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
}
