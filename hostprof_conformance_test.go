// Host-profiler conformance: attaching a hostprof collector is pure
// observation. Every simulation artifact — cycles, wir-stats/1 counters,
// energy totals, the emitted wir-trace/1 stream, output memory — must be
// bit-identical with the profiler on or off. On top of the identity
// contract, the profiler's own numbers must reconcile: driver phase
// self-times partition the run's wall time, SM phase times fit inside the
// step phase, and all accumulators are monotone across runs.
package wir_test

import (
	"fmt"
	"testing"

	wir "github.com/wirsim/wir"
	"github.com/wirsim/wir/internal/hostprof"
)

// profRun runs one suite benchmark with a fresh hostprof collector attached
// and returns the artifacts plus the collector for reconciliation checks.
func profRun(t *testing.T, abbr string, m wir.Model) (confResult, *hostprof.Collector) {
	t.Helper()
	var hp *hostprof.Collector
	res := confRun(t, abbr, m, false, func(g *wir.GPU) {
		hp = g.NewHostProf()
		g.SetHostProf(hp)
	})
	return res, hp
}

// TestHostProfConformance holds the identity contract on benchmark runs:
// profiled output equals unprofiled output exactly.
func TestHostProfConformance(t *testing.T) {
	benches := []string{"KM", "HS", "BP"}
	if testing.Short() {
		benches = []string{"KM"}
	}
	for _, abbr := range benches {
		for _, m := range conformanceModels {
			abbr, m := abbr, m
			t.Run(fmt.Sprintf("%s/%v", abbr, m), func(t *testing.T) {
				t.Parallel()
				plain := confRun(t, abbr, m, false, nil)
				profiled, hp := profRun(t, abbr, m)
				compareConf(t, abbr, plain, profiled)
				// The run the profiler watched must also be the run it
				// recorded: every gpu.Run observed (HS launches several),
				// every SM ticked every cycle.
				if hp.Runs() < 1 {
					t.Errorf("collector saw %d runs, want >= 1", hp.Runs())
				}
				var ticks uint64
				for i := 0; i < hp.NumSMs(); i++ {
					ticks += hp.SM(i).Ticks
				}
				if want := profiled.cycles * uint64(hp.NumSMs()); ticks != want {
					t.Errorf("observed %d SM ticks, want cycles*SMs = %d", ticks, want)
				}
			})
		}
	}
}

// TestHostProfReconciliation checks the accounting against an outside clock:
// driver phase self-times sum to the run wall time (within clock-read
// overhead), and the per-SM phase times fit inside the step phase they
// break down.
func TestHostProfReconciliation(t *testing.T) {
	_, hp := profRun(t, "KM", wir.RLPV)

	var driver int64
	for ph := hostprof.PhaseDispatch; ph <= hostprof.PhaseTelemetry; ph++ {
		if hp.DriverWallNS(ph) < 0 {
			t.Fatalf("driver phase %v negative: %d", ph, hp.DriverWallNS(ph))
		}
		driver += hp.DriverWallNS(ph)
	}
	run := hp.RunWallNS()
	if run <= 0 {
		t.Fatal("run wall time not recorded")
	}
	if driver > run {
		t.Errorf("driver phase sum %dns exceeds run wall %dns", driver, run)
	}
	if float64(driver) < 0.85*float64(run) {
		t.Errorf("driver phases cover only %dns of %dns run wall (>15%% unattributed)", driver, run)
	}

	var smTotal int64
	for i := 0; i < hp.NumSMs(); i++ {
		sp := hp.SM(i)
		for ph := hostprof.PhaseSMRegfile; ph < hostprof.Phase(hostprof.NumPhases); ph++ {
			if sp.WallNS(ph) < 0 {
				t.Fatalf("SM %d phase %v negative: %d", i, ph, sp.WallNS(ph))
			}
			smTotal += sp.WallNS(ph)
		}
	}
	// SM tick time is measured inside the driver's step laps, so the
	// breakdown cannot exceed what it breaks down.
	if step := hp.DriverWallNS(hostprof.PhaseStep); smTotal > step {
		t.Errorf("SM phase sum %dns exceeds step phase %dns", smTotal, step)
	}

	rep := hp.Report()
	q := rep.Quiescence
	if q.TotalTicks == 0 {
		t.Fatal("no ticks observed")
	}
	if q.SkipOpportunity < 0 || q.SkipOpportunity > 1 || q.IdleFraction > q.SkipOpportunity {
		t.Errorf("quiescence fractions inconsistent: %+v", q)
	}
	var streakSum uint64
	for _, sm := range rep.SMs {
		if sm.QuietStreaks.Sum != sm.Quiet {
			t.Errorf("SM %d: streak histogram sum %d != quiet ticks %d", sm.SM, sm.QuietStreaks.Sum, sm.Quiet)
		}
		streakSum += sm.QuietStreaks.Sum
	}
	if streakSum != q.QuietTicks {
		t.Errorf("streak sums %d != total quiet ticks %d", streakSum, q.QuietTicks)
	}
}

// buildScaleKernel is the quickstart vector-scale kernel: out[i] = 3*in[i]+1.
func buildScaleKernel(in, out uint32) *wir.Kernel {
	b := wir.NewKernelBuilder("hostprof-scale")
	gidx, tid, bid, bdim := b.R(), b.R(), b.R(), b.R()
	b.S2R(tid, wir.Tid)
	b.S2R(bid, wir.CtaidX)
	b.S2R(bdim, wir.NtidX)
	b.IMad(gidx, bid, bdim, tid)
	addr, v := b.R(), b.R()
	b.ShlI(addr, gidx, 2)
	b.IAddI(addr, addr, int32(in))
	b.Ld(v, wir.Global, addr, 0)
	b.FMulI(v, v, 3.0)
	b.FAddI(v, v, 1.0)
	b.ShlI(addr, gidx, 2)
	b.IAddI(addr, addr, int32(out))
	b.St(wir.Global, addr, v, 0)
	b.Exit()
	return b.MustBuild()
}

// TestHostProfMonotoneAcrossRuns holds that one collector attached across two
// g.Run calls accumulates: every counter is monotone, and the run count,
// ticks, and wall times strictly grow.
func TestHostProfMonotoneAcrossRuns(t *testing.T) {
	const n = 2048
	cfg := wir.DefaultConfig(wir.RLPV)
	cfg.NumSMs = 2
	g, err := wir.NewGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hp := g.NewHostProf()
	g.SetHostProf(hp)
	ms := g.Mem()
	in := ms.Alloc(n)
	out := ms.Alloc(n)
	for i := 0; i < n; i++ {
		ms.StoreGlobal(in+uint32(i)*4, wir.F32Bits(float32(i%8)))
	}
	k := buildScaleKernel(in, out)

	type snap struct {
		runs, ticks uint64
		runNS, wall int64
		alloc       uint64
	}
	take := func() snap {
		var s snap
		s.runs = hp.Runs()
		s.runNS = hp.RunWallNS()
		for ph := 0; ph < hostprof.NumPhases; ph++ {
			s.wall += hp.DriverWallNS(hostprof.Phase(ph))
			s.alloc += hp.DriverAllocBytes(hostprof.Phase(ph))
		}
		for i := 0; i < hp.NumSMs(); i++ {
			s.ticks += hp.SM(i).Ticks
		}
		return s
	}

	launch := &wir.Launch{Kernel: k, GridX: n / 256, DimX: 256}
	if _, err := g.Run(launch); err != nil {
		t.Fatal(err)
	}
	first := take()
	if first.runs != 1 || first.ticks == 0 || first.runNS <= 0 {
		t.Fatalf("first run not recorded: %+v", first)
	}
	if _, err := g.Run(launch); err != nil {
		t.Fatal(err)
	}
	second := take()
	if second.runs != 2 {
		t.Fatalf("runs = %d after two launches", second.runs)
	}
	if second.ticks <= first.ticks || second.runNS <= first.runNS || second.wall <= first.wall {
		t.Fatalf("accumulators not strictly monotone: first %+v, second %+v", first, second)
	}
	if second.alloc < first.alloc {
		t.Fatalf("allocation attribution went backwards: %d -> %d", first.alloc, second.alloc)
	}
	// The profiled GPU still computes the right answer.
	got := ms.Snapshot(out, n)
	for i := 0; i < n; i++ {
		want := wir.F32Bits(3*float32(i%8) + 1)
		if got[i] != want {
			t.Fatalf("out[%d] = %#x, want %#x", i, got[i], want)
		}
	}
}
