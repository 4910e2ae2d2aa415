package fuzz

import (
	"errors"
	"fmt"
	"strings"

	"github.com/wirsim/wir/internal/chaos"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/oracle"
	"github.com/wirsim/wir/internal/reuseprof"
	"github.com/wirsim/wir/internal/stats"
	"github.com/wirsim/wir/internal/trace"
)

// RunConfig shapes one fuzz execution.
type RunConfig struct {
	Model  config.Model
	NumSMs int // 0 defaults to 2 (enough for cross-SM dispatch, fast)
	// Watchdog is the quiet-cycle limit before the deadlock watchdog fires.
	// 0 derives it from the config's DRAM latency and MSHR depth
	// (mem.AutoWatchdog) — a fuzz run always wants a watchdog.
	Watchdog uint64
	Chaos    *chaos.Injector
	Oracle   bool
	// Trace, when non-nil, receives the run's pipeline events (determinism
	// conformance compares the streams of repeated runs through this).
	Trace trace.Sink
}

// Result is everything one execution produced; Check evaluates it against
// the robustness contract.
type Result struct {
	Cycles       uint64
	Output       []uint32 // final output segment (nil when the run errored)
	Divergences  []oracle.Divergence
	OracleTotal  int // total divergences found (Divergences is capped)
	RunErr       error
	Watchdog     *gpu.WatchdogError // set when RunErr is a watchdog firing
	InvariantErr error
	Stats        stats.Sim
	// Reuse holds the run's decision-level reuse telemetry (always attached;
	// Check cross-validates its taxonomy against the aggregate counters).
	Reuse *reuseprof.Collector
}

// Execute builds the program for o, runs it under rc, and collects the
// oracle, watchdog, and invariant outcomes. The returned error reports setup
// problems only (invalid config); execution failures land in the Result.
func Execute(o Options, rc RunConfig) (*Result, error) {
	if o.BlockDim <= 0 || o.Threads <= 0 || o.Threads%o.BlockDim != 0 {
		return nil, fmt.Errorf("fuzz: threads %d must be a positive multiple of block dim %d", o.Threads, o.BlockDim)
	}
	cfg := config.Default(rc.Model)
	cfg.NumSMs = rc.NumSMs
	if cfg.NumSMs == 0 {
		cfg.NumSMs = 2
	}
	cfg.WatchdogCycles = rc.Watchdog
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = mem.AutoWatchdog(&cfg)
	}
	g, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	ms := g.Mem()
	in := SeedInput(ms, o.Seed)
	out := ms.Alloc(o.OutputWords())
	k := Build(o, in, out)

	var chk *oracle.Checker
	if rc.Oracle {
		chk = oracle.New(ms)
		oracle.Attach(g, chk)
	}
	if rc.Chaos != nil {
		g.SetChaos(rc.Chaos)
	}
	if rc.Trace != nil {
		g.SetTracer(rc.Trace)
	}
	rp := g.NewReuseProf()
	g.SetReuseProf(rp)

	res := &Result{Reuse: rp}
	res.Cycles, err = g.Run(&gpu.Launch{Kernel: k, GridX: o.Threads / o.BlockDim, DimX: o.BlockDim})
	if err != nil {
		res.RunErr = err
		var we *gpu.WatchdogError
		if errors.As(err, &we) {
			res.Watchdog = we
		}
		return res, nil
	}
	res.Output = ms.Snapshot(out, o.OutputWords())
	res.Stats = g.Stats()
	if chk != nil {
		chk.CheckMemory()
		res.Divergences = chk.Divergences()
		res.OracleTotal = chk.Total()
	}
	res.InvariantErr = g.CheckInvariants()
	return res, nil
}

// Check evaluates a completed execution against the robustness contract:
//
//   - A watchdog firing is expected if and only if wedging faults (wedge, or
//     dropfill — a fill that never arrives) were injected.
//   - Doublefill faults skew the outstanding-miss counter; the MSHR invariant
//     audit must report it. Any other invariant violation is a failure.
//   - With no value-changing faults applied, the run must be clean: zero
//     divergences, invariants hold, and (when ref is non-nil) the output image
//     must be bit-identical to ref.
//   - With value-changing faults applied (and the oracle attached), the oracle
//     must have reported at least one divergence — a silent corruption is the
//     failure the whole harness exists to catch.
//
// inj may be nil (no chaos); ref may be nil (no reference image).
func Check(res *Result, ref []uint32, inj *chaos.Injector) error {
	wedging := inj.Injected(chaos.Wedge) + inj.Injected(chaos.DropFill)
	if res.Watchdog != nil {
		if wedging > 0 {
			return nil // expected: a wedged warp or dropped fill must trip the watchdog
		}
		return fmt.Errorf("fuzz: watchdog fired without wedge or dropfill injection: %v", res.RunErr)
	}
	if res.RunErr != nil {
		return fmt.Errorf("fuzz: run failed: %v", res.RunErr)
	}
	if wedging > 0 {
		return errors.New("fuzz: wedge/dropfill faults injected but the watchdog never fired")
	}
	if inj.Injected(chaos.DoubleFill) > 0 {
		if res.InvariantErr == nil {
			return errors.New("fuzz: doublefill faults injected but the MSHR audit saw no counter skew")
		}
		if !strings.Contains(res.InvariantErr.Error(), "MSHR") {
			return fmt.Errorf("fuzz: doublefill expected an MSHR audit error, got: %v", res.InvariantErr)
		}
	} else if res.InvariantErr != nil {
		return fmt.Errorf("fuzz: invariant violated: %v", res.InvariantErr)
	}
	if err := checkReuse(res, inj); err != nil {
		return err
	}
	if vc := inj.TotalValueChanging(); vc > 0 {
		if res.OracleTotal == 0 {
			return fmt.Errorf("fuzz: %d value-changing faults injected but the oracle saw no divergence", vc)
		}
		return nil
	}
	if res.OracleTotal > 0 {
		return fmt.Errorf("fuzz: false divergence with no value-changing fault: %s", res.Divergences[0].String())
	}
	if ref != nil {
		for i := range ref {
			if res.Output[i] != ref[i] {
				return fmt.Errorf("fuzz: out[%d] = %#x, want %#x", i, res.Output[i], ref[i])
			}
		}
	}
	return nil
}

// checkReuse cross-validates the decision-level reuse telemetry against the
// aggregate counters of a completed (non-errored) run:
//
//   - every reuse-buffer lookup must land in exactly one taxonomy bucket, and
//     the hit/miss bucket groups must match the aggregate hit/miss counters;
//   - the VSB taxonomy must account for every VSB lookup;
//   - conflict+capacity+reclaim evictions must equal ReuseEvicts (block and
//     launch-boundary scrubs are deliberately outside that counter);
//   - the infinite-capacity shadow table can never see fewer hits than the
//     real buffer — except when chaos forged false hits, which count as real
//     hits the shadow legitimately never saw.
func checkReuse(res *Result, inj *chaos.Injector) error {
	rp := res.Reuse
	if rp == nil {
		return nil
	}
	st := &res.Stats
	if got := rp.Lookups(); got != st.ReuseLookups {
		return fmt.Errorf("fuzz: reuse taxonomy sums to %d lookups, stats say %d", got, st.ReuseLookups)
	}
	tax := rp.Tax()
	hits := tax[reuseprof.BucketHit] + tax[reuseprof.BucketPendingResolved]
	if hits != st.ReuseHits {
		return fmt.Errorf("fuzz: reuse taxonomy hit buckets sum to %d, stats say %d", hits, st.ReuseHits)
	}
	misses := tax[reuseprof.BucketMissCold] + tax[reuseprof.BucketMissEvicted] +
		tax[reuseprof.BucketMissBarrier] + tax[reuseprof.BucketMissBlock]
	if misses != st.ReuseMisses {
		return fmt.Errorf("fuzz: reuse taxonomy miss buckets sum to %d, stats say %d", misses, st.ReuseMisses)
	}
	vtax := rp.VSBTax()
	if vsum := vtax[reuseprof.VSBTaxHit] + vtax[reuseprof.VSBTaxMiss] + vtax[reuseprof.VSBTaxVerifyFail]; vsum != st.VSBLookups {
		return fmt.Errorf("fuzz: VSB taxonomy sums to %d lookups, stats say %d", vsum, st.VSBLookups)
	}
	evicts := rp.EvictTotal(reuseprof.EvictConflict) +
		rp.EvictTotal(reuseprof.EvictCapacity) +
		rp.EvictTotal(reuseprof.EvictReclaim)
	if evicts != st.ReuseEvicts {
		return fmt.Errorf("fuzz: eviction ledger counts %d counted evictions, stats say %d", evicts, st.ReuseEvicts)
	}
	if inj.Injected(chaos.FalseHit) == 0 && rp.ShadowHits() < rp.RealHits() {
		return fmt.Errorf("fuzz: shadow hits %d < real hits %d without false-hit injection", rp.ShadowHits(), rp.RealHits())
	}
	return nil
}
