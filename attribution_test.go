package wir_test

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

	wir "github.com/wirsim/wir"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/metrics"
)

// runAttributed runs the KM benchmark with the per-PC attribution collector
// attached, with or without the metrics instruments, and returns the
// collector, the final counters, the stall report and the cycle count.
func runAttributed(t *testing.T, instruments bool) (*wir.AttrCollector, wir.Stats, wir.StallReport, uint64) {
	t.Helper()
	bm, err := bench.ByAbbr("KM")
	if err != nil {
		t.Fatal(err)
	}
	cfg := wir.DefaultConfig(wir.RLPV)
	cfg.NumSMs = 2
	g, err := wir.NewGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if instruments {
		g.SetInstruments(wir.NewInstruments(wir.NewMetricsRegistry()))
	}
	c := wir.NewAttrCollector()
	g.SetAttribution(c)
	w, err := bm.Setup(g)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := w.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return c, g.Stats(), g.StallReport(), cycles
}

// TestAttributionReconciles is the acceptance check for the attribution
// layer: per-PC sums must equal the matching aggregate counters exactly,
// with the instruments both attached and detached.
func TestAttributionReconciles(t *testing.T) {
	for _, mode := range []struct {
		name        string
		instruments bool
	}{
		{"instruments-on", true},
		{"instruments-off", false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c, st, sr, _ := runAttributed(t, mode.instruments)
			tot := c.Totals()
			checks := []struct {
				name       string
				perPC, agg uint64
			}{
				{"Issued", tot.Issued, st.Issued},
				{"Bypassed", tot.Bypassed, st.Bypassed},
				{"ReuseHits", tot.ReuseHits, st.ReuseHits},
				{"ReuseMisses", tot.ReuseMisses, st.ReuseMisses},
				{"VSBFalsePos", tot.VSBFalsePos, st.VSBFalsePos},
				{"DummyMovs", tot.DummyMovs, st.DummyMovs},
				{"BankRetries", tot.BankRetries, st.BankRetries},
			}
			for _, ck := range checks {
				if ck.perPC != ck.agg {
					t.Errorf("%s: per-PC sum %d != aggregate %d", ck.name, ck.perPC, ck.agg)
				}
			}

			// Stall blame (per-PC plus the unattributed bucket) must cover the
			// stall report reason for reason.
			stalls := c.StallTotals()
			for i, n := range sr.Stalls {
				if stalls[i] != n {
					t.Errorf("stall reason %s: attributed %d != report %d",
						metrics.StallReason(i), stalls[i], n)
				}
			}
			if tot.EnergyPJ <= 0 {
				t.Error("per-PC energy attribution is zero")
			}
			if len(c.Hotspots(5)) == 0 {
				t.Error("no hotspots recorded")
			}
		})
	}
}

// rawSample is one sample of a profile: its values and its stack as
// function names, leaf first.
type rawSample struct {
	values []int64
	stack  []string
}

// samplesOf returns p's samples with their stacks resolved to names.
func samplesOf(p *wir.PprofProfile) []rawSample {
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

// checkAttrSamples checks one view of a run's attribution profile: each
// sample holds cycles, energy and issued count over a leaf-PC-to-kernel
// stack whose leaf names the PC's disassembly, and the cycle and issue sums
// equal the collector's totals.
func checkAttrSamples(t *testing.T, view string, c *wir.AttrCollector, samples []rawSample) {
	t.Helper()
	if len(samples) == 0 {
		t.Fatalf("%s: no samples", view)
	}
	var sumCycles, sumIssued uint64
	for _, s := range samples {
		if len(s.values) != 3 {
			t.Fatalf("%s: sample has %d values, want 3", view, len(s.values))
		}
		sumCycles += uint64(s.values[0])
		sumIssued += uint64(s.values[2])
		if len(s.stack) != 2 {
			t.Fatalf("%s: sample stack %q, want a PC and its kernel", view, s.stack)
		}
		kernel := s.stack[1]
		if kernel == "" || !strings.HasPrefix(s.stack[0], kernel+":") || !strings.Contains(s.stack[0], " ") {
			t.Fatalf("%s: leaf %q does not name a PC of kernel %q with its disassembly", view, s.stack[0], kernel)
		}
	}
	tot := c.Totals()
	if sumCycles != tot.Cycles {
		t.Errorf("%s: profile cycles %d != collector total %d", view, sumCycles, tot.Cycles)
	}
	if sumIssued != tot.Issued {
		t.Errorf("%s: profile issued %d != collector total %d", view, sumIssued, tot.Issued)
	}
}

// TestAttributionProfileRoundTrip checks the profile the collector builds:
// its sample types, duration and samples, and that every location resolves
// to a function.
func TestAttributionProfileRoundTrip(t *testing.T) {
	c, _, _, cycles := runAttributed(t, false)
	p := c.Profile(cycles)
	if len(p.SampleType) != 3 {
		t.Fatalf("got %d sample types, want 3", len(p.SampleType))
	}
	if p.DurationNanos != int64(cycles)*1000 {
		t.Errorf("DurationNanos = %d, want %d", p.DurationNanos, int64(cycles)*1000)
	}
	funcs := map[uint64]string{}
	for _, f := range p.Functions {
		funcs[f.ID] = f.Name
	}
	for _, l := range p.Locations {
		if len(l.Lines) == 0 {
			t.Fatal("location with no line info")
		}
		if _, ok := funcs[l.Lines[0].FunctionID]; !ok {
			t.Fatalf("location %d references unknown function %d", l.ID, l.Lines[0].FunctionID)
		}
	}
	checkAttrSamples(t, "profile", c, samplesOf(p))
}

// TestAttributionProfileReadableByPprof is the acceptance check on the
// written bytes: `go tool pprof -raw` reads them and lists the same sample
// types, duration and samples as the collector's profile.
func TestAttributionProfileReadableByPprof(t *testing.T) {
	c, _, _, cycles := runAttributed(t, false)
	var buf bytes.Buffer
	if err := c.WriteProfile(&buf, cycles); err != nil {
		t.Fatal(err)
	}
	lines, samples := pprofRaw(t, buf.Bytes())
	// pprof prints the duration to four characters.
	for _, want := range []string{
		"cycles/cycles[dflt] energy/picojoules issued/count",
		fmt.Sprintf("Duration: %.4v", time.Duration(cycles)*time.Microsecond),
	} {
		if !slices.Contains(lines, want) {
			t.Fatalf("pprof -raw lists no %q line:\n%s", want, strings.Join(lines, "\n"))
		}
	}
	if n := len(c.Profile(cycles).Samples); len(samples) != n {
		t.Fatalf("pprof -raw lists %d samples, the profile has %d", len(samples), n)
	}
	checkAttrSamples(t, "pprof -raw", c, samples)
}
