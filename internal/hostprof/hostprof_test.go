package hostprof

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

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

// rawSample is one sample of a profile: its values and its stack as
// function names, leaf first.
type rawSample struct {
	values []int64
	stack  []string
}

// samplesOf returns p's samples with their stacks resolved to names.
func samplesOf(p *pprofenc.Profile) []rawSample {
	fnName := map[uint64]string{}
	for _, f := range p.Functions {
		fnName[f.ID] = f.Name
	}
	locName := map[uint64]string{}
	for _, l := range p.Locations {
		locName[l.ID] = fnName[l.Lines[0].FunctionID]
	}
	var out []rawSample
	for _, s := range p.Samples {
		r := rawSample{values: s.Values}
		for _, id := range s.LocationIDs {
			r.stack = append(r.stack, locName[id])
		}
		out = append(out, r)
	}
	return out
}

// Lines of a `go tool pprof -raw` listing, whitespace-normalised: a sample
// is its values, a colon and its location IDs; a location is its ID, address
// and mapping, then its function name ahead of "file:line[:column] s=start".
var (
	rawSampleLine   = regexp.MustCompile(`^(-?\d+(?: -?\d+)*):((?: \d+)*)$`)
	rawLocationLine = regexp.MustCompile(`^(\d+): 0x[0-9a-f]+ M=\d+ (.+) \S+:\d+(?::\d+)? s=\d+`)
)

// pprofRaw writes data to a file and runs `go tool pprof -raw` on it with the
// toolchain that built this test; a missing toolchain fails the test. It
// returns the listing's whitespace-normalised lines and its samples.
func pprofRaw(t *testing.T, data []byte) ([]string, []rawSample) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.pb.gz")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(goBin, "tool", "pprof", "-raw", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v\n%s", err, stderr.String())
	}
	var lines []string
	var samples []rawSample
	var ids [][]string
	locName := map[string]string{}
	for _, l := range strings.Split(string(out), "\n") {
		l = strings.Join(strings.Fields(l), " ")
		lines = append(lines, l)
		if m := rawSampleLine.FindStringSubmatch(l); m != nil {
			var s rawSample
			for _, v := range strings.Fields(m[1]) {
				n, _ := strconv.ParseInt(v, 10, 64)
				s.values = append(s.values, n)
			}
			samples = append(samples, s)
			ids = append(ids, strings.Fields(m[2]))
		} else if m := rawLocationLine.FindStringSubmatch(l); m != nil {
			locName[m[1]] = m[2]
		}
	}
	for i := range samples {
		for _, id := range ids[i] {
			samples[i].stack = append(samples[i].stack, locName[id])
		}
	}
	return lines, samples
}

// TestProfileRoundTrip checks a collector's profile as built and as
// `go tool pprof -raw` reads its encoded bytes: sample stacks must follow the
// static phase nesting and the wall values must survive exactly.
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

	p := c.Profile()
	if p.DefaultSampleType != "wall" || len(p.SampleType) != 2 ||
		p.SampleType[0] != (pprofenc.ValueType{Type: "wall", Unit: "nanoseconds"}) ||
		p.SampleType[1] != (pprofenc.ValueType{Type: "laps", Unit: "count"}) {
		t.Fatalf("sample types wrong: %+v default %q", p.SampleType, p.DefaultSampleType)
	}
	if p.DurationNanos != 200_000 {
		t.Fatalf("duration = %d", p.DurationNanos)
	}
	checkPhaseSamples(t, "profile", samplesOf(p))

	var buf bytes.Buffer
	if err := c.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	lines, samples := pprofRaw(t, buf.Bytes())
	// pprof prints the duration to four characters.
	for _, want := range []string{"wall/nanoseconds[dflt] laps/count", fmt.Sprintf("Duration: %.4v", 200*time.Microsecond)} {
		if !slices.Contains(lines, want) {
			t.Fatalf("pprof -raw lists no %q line:\n%s", want, strings.Join(lines, "\n"))
		}
	}
	checkPhaseSamples(t, "pprof -raw", samples)
}

// checkPhaseSamples checks the phase stacks and self times of
// TestProfileRoundTrip's collector in one view of its profile.
func checkPhaseSamples(t *testing.T, view string, samples []rawSample) {
	t.Helper()
	stacks := map[string]int64{} // leaf name -> wall value
	stackOf := map[string][]string{}
	for _, s := range samples {
		if len(s.stack) == 0 || len(s.values) != 2 {
			t.Fatalf("%s: sample %+v needs a stack and two values", view, s)
		}
		stacks[s.stack[0]] += s.values[0]
		stackOf[s.stack[0]] = s.stack
	}
	// step's self time is clamped: 100000 - (40000 + 5000) = 55000.
	if stacks["step"] != 55_000 {
		t.Fatalf("%s: step self = %d, want 55000 (clamped by SM breakdown)", view, stacks["step"])
	}
	if stacks["sm/execute"] != 40_000 || stacks["sm/reuse"] != 5_000 || stacks["dispatch"] != 111 {
		t.Fatalf("%s: phase values wrong: %+v", view, stacks)
	}
	want := map[string][]string{
		"sm/reuse":   {"sm/reuse", "sm/execute", "step", "run"},
		"sm/execute": {"sm/execute", "step", "run"},
		"dispatch":   {"dispatch", "run"},
	}
	for leaf, w := range want {
		if got := stackOf[leaf]; !slices.Equal(got, w) {
			t.Fatalf("%s: stack for %s = %v, want %v", view, leaf, got, w)
		}
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
