package hostprof

import (
	"bytes"
	"testing"

	"github.com/wirsim/wir/internal/pprofenc"
)

// stepClock replaces the package clock for one test with one that moves
// only when the returned function steps it, so self times are exact.
func stepClock(t *testing.T) func(ns int64) {
	var now int64
	saved := nowNS
	nowNS = func() int64 { return now }
	t.Cleanup(func() { nowNS = saved })
	return func(ns int64) { now += ns }
}

// TestLapPartition holds the central accounting property: the per-phase self
// times of one tick sum exactly to the tick's elapsed time.
func TestLapPartition(t *testing.T) {
	step := stepClock(t)
	p := NewSMProf(4)
	p.BeginTick()
	step(100)
	p.Lap(PhaseSMRegfile)
	step(200)
	p.Lap(PhaseSMExecute)
	step(300)
	p.Lap(PhaseSMIssue)

	want := map[Phase]int64{PhaseSMRegfile: 100, PhaseSMExecute: 200, PhaseSMIssue: 300}
	var sum int64
	for ph := 0; ph < NumPhases; ph++ {
		w := p.WallNS(Phase(ph))
		if w != want[Phase(ph)] {
			t.Errorf("phase %v self time = %dns, want %d", Phase(ph), w, want[Phase(ph)])
		}
		sum += w
	}
	if sum != 600 {
		t.Fatalf("phase sum %dns, want the tick's 600ns: laps are dropping time", sum)
	}
	if p.CountOf(PhaseSMRegfile) != 1 || p.CountOf(PhaseSMIssue) != 1 {
		t.Fatalf("lap counts wrong: %d, %d", p.CountOf(PhaseSMRegfile), p.CountOf(PhaseSMIssue))
	}
}

// TestNestedSelfTime checks the Open/Close subtraction: a span nested inside
// a lap region is charged to its own phase and subtracted from the enclosing
// lap exactly once, including at depth two.
func TestNestedSelfTime(t *testing.T) {
	step := stepClock(t)
	p := NewSMProf(4)
	p.BeginTick()
	step(10) // execute self
	t1 := p.Open()
	step(20) // reuse self
	t2 := p.Open()
	step(40) // hooks self
	p.Close(PhaseSMHooks, t2)
	p.Close(PhaseSMReuse, t1)
	step(80) // execute self again
	p.Lap(PhaseSMExecute)

	exec := p.WallNS(PhaseSMExecute)
	reuse := p.WallNS(PhaseSMReuse)
	hooks := p.WallNS(PhaseSMHooks)
	if exec != 90 || reuse != 20 || hooks != 40 {
		t.Fatalf("self times exec=%d reuse=%d hooks=%d, want 90/20/40", exec, reuse, hooks)
	}
}

func TestObserveTickStreaks(t *testing.T) {
	p := NewSMProf(2)
	// quiet, quiet, active, quiet, active, quiet, quiet, quiet (run ends)
	seq := []bool{false, false, true, false, true, false, false, false}
	for _, active := range seq {
		p.ObserveTick(active, !active)
	}
	p.FlushStreak()
	if p.Ticks != 8 || p.Quiet != 6 || p.Idle != 6 {
		t.Fatalf("ticks=%d quiet=%d idle=%d, want 8/6/6", p.Ticks, p.Quiet, p.Idle)
	}
	s := p.Streaks.Snapshot()
	if s.Count != 3 {
		t.Fatalf("streak count = %d, want 3 (2, 1, 3)", s.Count)
	}
	if s.Sum != 6 {
		t.Fatalf("streak sum = %d, want 6 (every quiet tick in some streak)", s.Sum)
	}
	// Flushing twice must not double-count the trailing streak.
	p.FlushStreak()
	if p.Streaks.Count() != 3 {
		t.Fatal("FlushStreak is not idempotent")
	}
}

func TestReportQuiescence(t *testing.T) {
	c := NewCollector(2, 2)
	c.SM(0).Ticks, c.SM(0).Quiet, c.SM(0).Idle = 100, 30, 10
	c.SM(1).Ticks, c.SM(1).Quiet, c.SM(1).Idle = 100, 10, 0
	c.SM(0).streak = 5 // in-progress streak must be flushed by Report
	r := c.Report()
	if r.Schema != Schema {
		t.Fatalf("schema = %q", r.Schema)
	}
	q := r.Quiescence
	if q.TotalTicks != 200 || q.QuietTicks != 40 || q.IdleTicks != 10 {
		t.Fatalf("quiescence totals wrong: %+v", q)
	}
	if q.SkipOpportunity != 0.2 || q.IdleFraction != 0.05 {
		t.Fatalf("fractions wrong: %+v", q)
	}
	if r.SMs[0].QuietStreaks.Count != 1 || r.SMs[0].QuietStreaks.Sum != 5 {
		t.Fatalf("in-progress streak not flushed into report: %+v", r.SMs[0].QuietStreaks)
	}
	if r.CPUs < 1 || r.GOMAXPROCS < 1 || r.GoVersion == "" {
		t.Fatalf("provenance missing: %+v", r)
	}
}

// TestProfileRoundTrip encodes a collector as pprof and parses it back with
// the repo's own decoder: sample stacks must follow the static phase nesting
// and the wall values must survive exactly.
func TestProfileRoundTrip(t *testing.T) {
	c := NewCollector(2, 2)
	c.dwall[PhaseDispatch] = 111
	c.dcount[PhaseDispatch] = 1
	c.dwall[PhaseStep] = 100_000
	c.dcount[PhaseStep] = 2
	c.dalloc[PhaseStep] = 4096
	c.SM(0).wall[PhaseSMExecute] = 40_000
	c.SM(0).count[PhaseSMExecute] = 2
	c.SM(1).wall[PhaseSMReuse] = 5_000
	c.SM(1).count[PhaseSMReuse] = 1
	c.runNS = 200_000

	var buf bytes.Buffer
	if err := c.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := pprofenc.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.DefaultSampleType != "wall" || p.SampleType[0].Unit != "nanoseconds" {
		t.Fatalf("sample types wrong: %+v default %q", p.SampleType, p.DefaultSampleType)
	}
	fnName := map[uint64]string{}
	for _, f := range p.Functions {
		fnName[f.ID] = f.Name
	}
	locName := map[uint64]string{}
	for _, l := range p.Locations {
		locName[l.ID] = fnName[l.Lines[0].FunctionID]
	}
	stacks := map[string]int64{} // leaf name -> wall value
	var stackOf = map[string][]string{}
	for _, s := range p.Samples {
		var names []string
		for _, id := range s.LocationIDs {
			names = append(names, locName[id])
		}
		stacks[names[0]] += s.Values[0]
		stackOf[names[0]] = names
	}
	// step's self time is clamped: 100000 - (40000 + 5000) = 55000.
	if stacks["step"] != 55_000 {
		t.Fatalf("step self = %d, want 55000 (clamped by SM breakdown)", stacks["step"])
	}
	if stacks["sm/execute"] != 40_000 || stacks["sm/reuse"] != 5_000 || stacks["dispatch"] != 111 {
		t.Fatalf("phase values wrong: %+v", stacks)
	}
	want := map[string][]string{
		"sm/reuse":   {"sm/reuse", "sm/execute", "step", "run"},
		"sm/execute": {"sm/execute", "step", "run"},
		"dispatch":   {"dispatch", "run"},
	}
	for leaf, w := range want {
		got := stackOf[leaf]
		if len(got) != len(w) {
			t.Fatalf("stack for %s = %v, want %v", leaf, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("stack for %s = %v, want %v", leaf, got, w)
			}
		}
	}
	if p.DurationNanos != 200_000 {
		t.Fatalf("duration = %d", p.DurationNanos)
	}
}

// TestPhaseParents pins the static nesting the profile builder relies on.
func TestPhaseParents(t *testing.T) {
	for ph := 0; ph < NumPhases; ph++ {
		seen := 0
		p := Phase(ph)
		for {
			parent, ok := p.Parent()
			if !ok {
				break
			}
			p = parent
			if seen++; seen > NumPhases {
				t.Fatalf("phase %v has a parent cycle", Phase(ph))
			}
		}
	}
	if pa, ok := PhaseSMReuse.Parent(); !ok || pa != PhaseSMExecute {
		t.Fatal("sm/reuse must nest under sm/execute")
	}
	if pa, ok := PhaseSMExecute.Parent(); !ok || pa != PhaseStep {
		t.Fatal("sm/execute must nest under step")
	}
}
