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
	p := &SMProf{}
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
	p := &SMProf{}
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

// TestProfileRoundTrip encodes a collector as pprof and parses it back with
// the repo's own decoder: sample stacks must follow the static phase nesting
// and the wall values must survive exactly.
func TestProfileRoundTrip(t *testing.T) {
	c := NewCollector(2)
	c.dwall[PhaseDispatch] = 111
	c.dcount[PhaseDispatch] = 1
	c.dwall[PhaseStep] = 100_000
	c.dcount[PhaseStep] = 2
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
	if p.DefaultSampleType != "wall" || len(p.SampleType) != 2 ||
		p.SampleType[0] != (pprofenc.ValueType{Type: "wall", Unit: "nanoseconds"}) ||
		p.SampleType[1] != (pprofenc.ValueType{Type: "laps", Unit: "count"}) {
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
