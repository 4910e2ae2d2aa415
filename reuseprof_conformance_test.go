// Reuse-profiler conformance: attaching the decision-level reuse/VSB
// profiler is pure observation. Every simulation artifact — cycles,
// wir-stats/1 counters, energy totals, the emitted wir-trace/1 stream, output
// memory — must be bit-identical with the profiler on or off. On top of the
// identity contract the profiler's own numbers must reconcile exactly: the
// miss-reason taxonomy partitions every reuse-buffer lookup, the hit/miss
// bucket groups match both the aggregate stats counters and the per-PC
// attribution totals, the eviction ledger's counted causes match
// ReuseEvicts, and the shadow tables never report less achievable reuse than
// was achieved.
package wir_test

import (
	"fmt"
	"testing"

	wir "github.com/wirsim/wir"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/reuseprof"
)

// rpRun runs one suite benchmark with a fresh reuseprof collector attached
// and returns the artifacts plus the collector for reconciliation checks.
func rpRun(t *testing.T, abbr string, m wir.Model) (confResult, *reuseprof.Collector) {
	t.Helper()
	var rp *reuseprof.Collector
	res := confRun(t, abbr, m, false, func(g *wir.GPU) {
		rp = g.NewReuseProf()
		g.SetReuseProf(rp)
	})
	return res, rp
}

// reconcileReuse holds the profiler's taxonomy, ledger, and shadow sums
// against the aggregate wir-stats/1 counters of the same run.
func reconcileReuse(t *testing.T, rp *reuseprof.Collector, st *wir.Stats) {
	t.Helper()
	if got := rp.Lookups(); got != st.ReuseLookups {
		t.Errorf("taxonomy sums to %d lookups, stats say %d", got, st.ReuseLookups)
	}
	tax := rp.Tax()
	if hits := tax[reuseprof.BucketHit] + tax[reuseprof.BucketPendingResolved]; hits != st.ReuseHits {
		t.Errorf("hit buckets sum to %d, stats say %d", hits, st.ReuseHits)
	}
	misses := tax[reuseprof.BucketMissCold] + tax[reuseprof.BucketMissEvicted] +
		tax[reuseprof.BucketMissBarrier] + tax[reuseprof.BucketMissBlock]
	if misses != st.ReuseMisses {
		t.Errorf("miss buckets sum to %d, stats say %d", misses, st.ReuseMisses)
	}
	vtax := rp.VSBTax()
	if vsum := vtax[reuseprof.VSBTaxHit] + vtax[reuseprof.VSBTaxMiss] + vtax[reuseprof.VSBTaxVerifyFail]; vsum != st.VSBLookups {
		t.Errorf("VSB taxonomy sums to %d lookups, stats say %d", vsum, st.VSBLookups)
	}
	if vtax[reuseprof.VSBTaxHit] != st.VSBHits {
		t.Errorf("VSB taxonomy hits %d, stats say %d", vtax[reuseprof.VSBTaxHit], st.VSBHits)
	}
	// Conflict, capacity, and reclaim displacements are exactly what the
	// engine counts as ReuseEvicts; block-complete and launch-flush scrubs
	// are ledgered under their own causes but deliberately outside it.
	counted := rp.EvictTotal(reuseprof.EvictConflict) +
		rp.EvictTotal(reuseprof.EvictCapacity) +
		rp.EvictTotal(reuseprof.EvictReclaim)
	if counted != st.ReuseEvicts {
		t.Errorf("eviction ledger counts %d, stats say ReuseEvicts=%d", counted, st.ReuseEvicts)
	}
	if rp.ShadowHits() < rp.RealHits() {
		t.Errorf("shadow hits %d < real hits %d — an infinite buffer can't do worse", rp.ShadowHits(), rp.RealHits())
	}
	// Per-PC tables partition the initial lookups, the hits, and the shadow
	// hits exactly.
	var pcLookups, pcHits, pcShadow uint64
	for _, ks := range rp.Report().Kernels {
		pcLookups += ks.Lookups
		pcHits += ks.Hits
		pcShadow += ks.ShadowHits
	}
	if pcLookups != rp.InitialLookups() {
		t.Errorf("per-PC lookups sum to %d, collector counted %d initial lookups", pcLookups, rp.InitialLookups())
	}
	if pcHits != st.ReuseHits {
		t.Errorf("per-PC hits sum to %d, stats say %d", pcHits, st.ReuseHits)
	}
	if pcShadow != rp.ShadowHits() {
		t.Errorf("per-PC shadow hits sum to %d, collector says %d", pcShadow, rp.ShadowHits())
	}
}

// TestReuseProfConformance holds the identity contract on benchmark runs:
// profiled output equals unprofiled output exactly, and the profiled run's
// telemetry reconciles with its (identical) stats.
func TestReuseProfConformance(t *testing.T) {
	benches := []string{"KM", "HS", "BP"}
	models := conformanceModels
	if testing.Short() {
		// The race pass runs -short; one benchmark on the reuse-bearing model
		// keeps the identity contract covered while staying inside the
		// package test budget. Base runs no reuse buffer, so it is full-mode
		// only.
		benches = []string{"KM"}
		models = []wir.Model{wir.RLPV}
	}
	for _, abbr := range benches {
		for _, m := range models {
			abbr, m := abbr, m
			t.Run(fmt.Sprintf("%s/%v", abbr, m), func(t *testing.T) {
				t.Parallel()
				plain := confRun(t, abbr, m, false, nil)
				profiled, rp := rpRun(t, abbr, m)
				compareConf(t, abbr, plain, profiled)
				reconcileReuse(t, rp, &profiled.stats)
			})
		}
	}
}

// TestReuseProfReconciliation is the cross-layer check: on runs with per-PC
// attribution riding along (and with instruments both attached and
// detached), the taxonomy bucket groups must equal the attr collector's reuse
// totals as well as the stats counters — three independent accountings of the
// same decisions.
func TestReuseProfReconciliation(t *testing.T) {
	benches := []string{"KM", "HS", "BP"}
	models := conformanceModels
	if testing.Short() {
		benches = []string{"KM"}
		models = []wir.Model{wir.RLPV}
	}
	for _, abbr := range benches {
		for _, m := range models {
			for _, instrumented := range []bool{false, true} {
				abbr, m, instrumented := abbr, m, instrumented
				t.Run(fmt.Sprintf("%s/%v/instruments=%v", abbr, m, instrumented), func(t *testing.T) {
					t.Parallel()
					cfg := wir.DefaultConfig(m)
					cfg.NumSMs = 4
					g, err := wir.NewGPU(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rp := g.NewReuseProf()
					g.SetReuseProf(rp)
					ac := wir.NewAttrCollector()
					g.SetAttribution(ac)
					if instrumented {
						g.SetInstruments(metrics.NewInstruments(metrics.NewRegistry()))
					}
					bm, err := bench.ByAbbr(abbr)
					if err != nil {
						t.Fatal(err)
					}
					w, err := bm.Setup(g)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := w.Run(g); err != nil {
						t.Fatal(err)
					}
					st := g.Stats()
					reconcileReuse(t, rp, &st)
					tot := ac.Totals()
					tax := rp.Tax()
					if hits := tax[reuseprof.BucketHit] + tax[reuseprof.BucketPendingResolved]; hits != tot.ReuseHits {
						t.Errorf("taxonomy hit buckets %d != attr reuse hits %d", hits, tot.ReuseHits)
					}
					misses := tax[reuseprof.BucketMissCold] + tax[reuseprof.BucketMissEvicted] +
						tax[reuseprof.BucketMissBarrier] + tax[reuseprof.BucketMissBlock]
					if misses != tot.ReuseMisses {
						t.Errorf("taxonomy miss buckets %d != attr reuse misses %d", misses, tot.ReuseMisses)
					}
				})
			}
		}
	}
}

// TestReuseProfMonotoneAcrossRuns holds that one collector attached across
// two g.Run calls accumulates (every counter monotone) while the simulation
// still computes the right answer, and that detaching returns the SMs to the
// unprofiled path without disturbing the collector's totals.
func TestReuseProfMonotoneAcrossRuns(t *testing.T) {
	const n = 2048
	cfg := wir.DefaultConfig(wir.RLPV)
	cfg.NumSMs = 2
	g, err := wir.NewGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rp := g.NewReuseProf()
	g.SetReuseProf(rp)
	ms := g.Mem()
	in := ms.Alloc(n)
	out := ms.Alloc(n)
	for i := 0; i < n; i++ {
		ms.StoreGlobal(in+uint32(i)*4, wir.F32Bits(float32(i%8)))
	}
	k := buildScaleKernel(in, out)

	launch := &wir.Launch{Kernel: k, GridX: n / 256, DimX: 256}
	if _, err := g.Run(launch); err != nil {
		t.Fatal(err)
	}
	first := rp.Lookups()
	firstShadow := rp.ShadowHits()
	if first == 0 {
		t.Fatal("no reuse lookups recorded on an RLPV run")
	}
	if _, err := g.Run(launch); err != nil {
		t.Fatal(err)
	}
	if rp.Lookups() <= first {
		t.Fatalf("lookups not monotone: %d -> %d", first, rp.Lookups())
	}
	if rp.ShadowHits() < firstShadow {
		t.Fatalf("shadow hits went backwards: %d -> %d", firstShadow, rp.ShadowHits())
	}
	st := g.Stats()
	reconcileReuse(t, rp, &st)

	// Detach, run again: the collector must stop accumulating.
	g.SetReuseProf(nil)
	frozen := rp.Lookups()
	if _, err := g.Run(launch); err != nil {
		t.Fatal(err)
	}
	if rp.Lookups() != frozen {
		t.Fatalf("detached collector still accumulated: %d -> %d", frozen, rp.Lookups())
	}

	got := ms.Snapshot(out, n)
	for i := 0; i < n; i++ {
		want := wir.F32Bits(3*float32(i%8) + 1)
		if got[i] != want {
			t.Fatalf("out[%d] = %#x, want %#x", i, got[i], want)
		}
	}
}

// TestReuseProfMergeSums holds that merging per-run collectors into an empty
// target (the harness's merged-artifact path) preserves every total as the
// sum of the parts, and keeps both runs' kernel sections.
func TestReuseProfMergeSums(t *testing.T) {
	if testing.Short() {
		t.Skip("merge arithmetic is covered by the reuseprof white-box tests; full mode exercises the benchmark-scale merge")
	}
	_, a := rpRun(t, "KM", wir.RLPV)
	_, b := rpRun(t, "BP", wir.RLPV)

	wantLookups := a.Lookups() + b.Lookups()
	wantShadow := a.ShadowHits() + b.ShadowHits()
	wantDistinct := a.DistinctTags() + b.DistinctTags()
	var wantTax [reuseprof.NumBuckets]uint64
	at, bt := a.Tax(), b.Tax()
	for i := range wantTax {
		wantTax[i] = at[i] + bt[i]
	}
	kernels := map[string]uint64{}
	for _, c := range []*reuseprof.Collector{a, b} {
		for _, ks := range c.Report().Kernels {
			kernels[ks.Kernel] += ks.Lookups
		}
	}

	m := reuseprof.NewCollector(0)
	m.Merge(a)
	m.Merge(b)
	if m.Lookups() != wantLookups || m.Tax() != wantTax ||
		m.ShadowHits() != wantShadow || m.DistinctTags() != wantDistinct {
		t.Fatalf("merged totals are not the sum of parts:\ngot  %d %v\nwant %d %v",
			m.Lookups(), m.Tax(), wantLookups, wantTax)
	}
	rep := m.Report()
	if len(rep.Kernels) != len(kernels) {
		t.Fatalf("merged report has %d kernel sections, want %d", len(rep.Kernels), len(kernels))
	}
	for _, ks := range rep.Kernels {
		if want, ok := kernels[ks.Kernel]; !ok || ks.Lookups != want {
			t.Errorf("merged kernel %q lookups = %d, want %d", ks.Kernel, ks.Lookups, want)
		}
	}
}
