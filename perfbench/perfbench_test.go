package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/wirsim/wir/internal/kasm"
)

// coldJobs returns the first n jobs of the first serve-cold phase.
func coldJobs(seed int64, n int) []servedSpec {
	seq := coldSeq{g: newGenerator(seed)}
	out := make([]servedSpec, n)
	for i := range out {
		out[i] = seq.next()
	}
	return out
}

func TestColdJobsDeterministicAndDistinct(t *testing.T) {
	a, b := coldJobs(7, 300), coldJobs(7, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different serve-cold job lists")
	}
	if reflect.DeepEqual(a, coldJobs(8, 300)) {
		t.Fatal("different seeds gave the same serve-cold job list")
	}
	if a[0].Class != "heavy" {
		t.Fatalf("first job is %s, want the heavy job", a[0].Class)
	}
	seen := map[string]bool{}
	classes := map[string]int{}
	for i := range a {
		if seen[a[i].label()] {
			t.Fatalf("job %d (%s) repeats an earlier job", i, a[i].label())
		}
		seen[a[i].label()] = true
		classes[a[i].Class]++
	}
	// 90 light combinations exist; past them kasm jobs take their place.
	if classes["light"] != 90 || classes["medium"] != 75 || classes["heavy"] != 1 {
		t.Fatalf("class counts %v", classes)
	}
}

func TestColdPhaseMix(t *testing.T) {
	jobs := coldJobs(3, 1+8*10)
	counts := map[string]int{}
	for _, j := range jobs[1:] {
		counts[j.Class]++
	}
	if want := map[string]int{"medium": 20, "light": 40, "kasm": 20}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("mix %v, want %v", counts, want)
	}
}

func TestCycleCoversEveryItemPerPass(t *testing.T) {
	g := newGenerator(1)
	items := []string{"a", "b", "c"}
	for pass := 0; pass < 4; pass++ {
		seen := map[string]int{}
		for range items {
			seen[g.cycle("x", items)]++
		}
		if len(seen) != len(items) {
			t.Fatalf("pass %d drew %v, want each item once", pass, seen)
		}
	}
}

func TestHitEntriesDeterministicAndDistinct(t *testing.T) {
	a := hitEntries(5)
	if !reflect.DeepEqual(a, hitEntries(5)) {
		t.Fatal("same seed gave different serve-hit sets")
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Class != hitSet[i] {
			t.Fatalf("entry %d is %s, want %s", i, a[i].Class, hitSet[i])
		}
		if seen[a[i].label()] {
			t.Fatalf("entry %s repeats", a[i].label())
		}
		seen[a[i].label()] = true
	}
}

func TestKasmKernelsParseAndRun(t *testing.T) {
	jobs := coldJobs(11, 40)
	ran := false
	for i := range jobs {
		spec := &jobs[i]
		if spec.Req.Kind != "kasm" {
			continue
		}
		if _, err := kasm.Parse(spec.Req.Kasm.Name, spec.Req.Kasm.Source); err != nil {
			t.Fatalf("%s: %v\n%s", spec.label(), err, spec.Req.Kasm.Source)
		}
		if !ran {
			pr, err := plainRun(spec, nil, 0, 0)
			if err != nil {
				t.Fatalf("%s: %v", spec.label(), err)
			}
			if pr.stats.Issued < 5000 || pr.stats.Issued > 7000 {
				t.Errorf("%s issued %d warp instructions, want about 6000", spec.label(), pr.stats.Issued)
			}
			ran = true
		}
	}
	if !ran {
		t.Fatal("no kasm job in the first 40")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, pct, beyond int
	}{
		{204, 95, 10}, {80, 87, 10}, {100, 90, 10}, {1000, 99, 10}, {11, 9, 10}, {190, 94, 11},
		{10, 100, 0}, {1, 100, 0},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		pct, v, beyond := tailPercentile(xs)
		if pct != tc.pct || beyond != tc.beyond {
			t.Errorf("n=%d: p%d with %d beyond, want p%d with %d", tc.n, pct, beyond, tc.pct, tc.beyond)
		}
		if want := float64(tc.n - beyond); v != want {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
		if beyond < tailBeyond && tc.n > tailBeyond {
			t.Errorf("n=%d: only %d ops beyond the tail", tc.n, beyond)
		}
	}
}

func TestFailedOpsRankAboveSuccesses(t *testing.T) {
	ops := []op{
		{dur: 5 * time.Millisecond},
		{dur: time.Millisecond, err: errors.New("wrong answer")},
		{dur: 3 * time.Millisecond},
	}
	lat := latenciesMs(ops)
	if lat[2] != ms(opDeadline) || lat[0] != 3 || lat[1] != 5 {
		t.Fatalf("latencies %v: the failed op must rank above every success", lat)
	}
	if nearestRank(lat, 50) != 5 {
		t.Fatalf("p50 %v, want 5", nearestRank(lat, 50))
	}
}

func TestSummarizeReadsPercentilesPerPass(t *testing.T) {
	p := &phaseResult{wall: 2 * time.Second}
	for pass, base := range []time.Duration{10, 20, 30} {
		for i := 1; i <= 40; i++ {
			p.ops = append(p.ops, op{group: pass, dur: (base + time.Duration(i)) * time.Millisecond, winst: 100})
		}
	}
	s := summarize(p)
	// Per pass of 40: p50 is the 20th op and the tail (p75) the 30th; the
	// middle pass has them at 40 and 50 ms.
	if s.p50Ms != 40 || s.tailMs != 50 || s.tailPct != 75 || s.groups != 3 || s.groupN != 40 {
		t.Fatalf("p50 %v tail p%d %v over %d groups of %d", s.p50Ms, s.tailPct, s.tailMs, s.groups, s.groupN)
	}
	if s.opsPerS != 60 || s.winst != 12000 {
		t.Fatalf("ops/s %v winst %d", s.opsPerS, s.winst)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},  // a grandchild lowers only a's self time
		{ID: 6, Name: "other", Start: 0, End: 40},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	agg := aggregate(spans)
	if agg[0].Name != "a" || agg[0].Self != 14 || agg[0].Total != 20 {
		t.Fatalf("aggregate %+v", agg[0])
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, 0)
	tr.end(id)
	if d := tr.call("y", 1, 0, func() {}); d < 0 {
		t.Fatal("negative duration")
	}
	if tr.closed() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the result line in
// step: a result line must carry every metric BENCHMARK.json lists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", wl, workloadNames)
	}
	e2e := (&summary{}).endToEnd()
	if len(bj.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the result line has %d", len(bj.EndToEnd), len(e2e))
	}
	for _, m := range bj.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): result line has %+v", m.Name, m.Unit, got)
		}
	}
	var listed, program []string
	for _, m := range bj.PerLayer {
		listed = append(listed, m.Name+" "+m.Unit)
	}
	for _, m := range layerMetrics {
		program = append(program, m.name+" "+m.unit)
	}
	sort.Strings(listed)
	sort.Strings(program)
	if !reflect.DeepEqual(listed, program) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram %v", listed, program)
	}
}
