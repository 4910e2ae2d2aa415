// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points (harness.Harness, and serve.New behind a
// loopback HTTP listener) on three workloads, checks every answer, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload sweep-headline|serve-cold|serve-hit|all \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md documents the
// workloads, the metrics, and why each was chosen.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// workDir holds everything a run writes: temp stores and span files.
const workDir = ".bench_build"

// hardStop ends a run that has not finished in time, so a wedged run
// fails instead of hanging its caller.
const hardStop = 170 * time.Second

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	record    bool
	setupOnly string
}

// workload is one benchmark workload.
type workload interface {
	// setUp does everything the workload needs before its first timed op.
	// dir is the run's scratch directory. populated, when set, names the
	// directory of a set-up probe whose state the run reuses.
	setUp(o *options, dir, populated string) error
	// run executes one timed closed-loop phase of length d; tr is nil for
	// an untraced phase.
	run(d time.Duration, tr *tracer) (*phaseResult, error)
	// check verifies a phase's answers, failing each op with a wrong one.
	check(p *phaseResult) error
	// layers runs the traced phase's distinct specs again, serially and
	// decomposed into the public calls they compose, checks that the
	// decomposition reproduces the composed calls exactly, and fills the
	// per-layer metrics.
	layers(p *phaseResult, tr *tracer, l layerValues) error
	storeBytes() int64
	close()
}

var workloadNames = []string{"sweep-headline", "serve-cold", "serve-hit"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "sweep-headline":
		return &sweepWorkload{}, nil
	case "serve-cold":
		return &coldWorkload{}, nil
	case "serve-hit":
		return &hitWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// setupProbes is how many times a run measures its set-up; setup_s is
// their median. serve-hit's set-up simulates its whole set, so it gets
// fewer.
func setupProbes(name string) int {
	if name == "serve-hit" {
		return 3
	}
	return 11
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 24, "length of each timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&o.record, "record", false, "sweep-headline only: run one pass and record its answers as the golden file")
	flag.StringVar(&o.setupOnly, "setup-only", "", "internal: run the workload's set-up in this directory and exit")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(&o))
	}
	time.AfterFunc(hardStop, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", hardStop)
		if p := probe.Load(); p != nil {
			_ = p.Kill()
			_, _ = p.Wait()
		}
		os.Exit(1)
	})
	if err := runOne(&o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runOne(o *options) error {
	w, err := newWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.setupOnly != "" {
		// A set-up probe: the parent times this process from its start to
		// here. Exit without tearing down; the parent removes the directory.
		if err := w.setUp(o, o.setupOnly, ""); err != nil {
			return err
		}
		os.Exit(0)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if o.record {
		sw, ok := w.(*sweepWorkload)
		if !ok {
			return fmt.Errorf("--record applies to sweep-headline only")
		}
		return record(sw, o, dir)
	}

	setups, populated, err := timeSetups(o, dir)
	if err != nil {
		return err
	}
	if err := w.setUp(o, dir, populated); err != nil {
		return err
	}
	defer w.close()
	d := time.Duration(o.seconds) * time.Second

	untraced, err := w.run(d, nil)
	if err != nil {
		return err
	}
	var traced *phaseResult
	var tr *tracer
	var rss float64
	layers := layerValues{}
	if o.trace == 1 {
		tr = newTracer()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if traced, err = w.run(d, tr); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		layers["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		layers["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		// Peak memory is the timed phases'; the decomposition that follows
		// holds whole bundles twice over and starts from a freed heap.
		if rss, err = peakRSSMB(); err != nil {
			return err
		}
		debug.FreeOSMemory()
		// The decomposition runs before the answer checks, so its plain
		// runs double as the traced phase's reference runs.
		if err := w.layers(traced, tr, layers); err != nil {
			return fmt.Errorf("decomposition: %w", err)
		}
		if bad := layers.unknown(); len(bad) > 0 {
			return fmt.Errorf("unlisted per-layer metrics %v", bad)
		}
	}
	if err := w.check(untraced); err != nil {
		return err
	}
	if traced != nil {
		if err := w.check(traced); err != nil {
			return err
		}
	}

	if traced == nil {
		if rss, err = peakRSSMB(); err != nil {
			return err
		}
	}
	s := summarize(untraced)
	s.setupS, s.setupN, s.peakRSSMB = median(setups), len(setups), rss

	out := os.Stdout
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s store_bytes_written=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.storeBytes())
	fmt.Fprintf(out, "set-up probes (s): %s\n", fmtFloats(setups))
	fmt.Fprintf(out, "end-to-end (untraced phase):\n")
	s.print(out)
	printClasses(out, untraced)
	printFailures(untraced)
	res := result{Correct: true, Attempted: s.attempted, Failed: s.failed, Metrics: s.endToEnd()}
	if traced != nil {
		t := summarize(traced)
		t.setupS, t.setupN, t.peakRSSMB = s.setupS, s.setupN, rss
		fmt.Fprintf(out, "end-to-end (traced phase):\n")
		t.print(out)
		printClasses(out, traced)
		printFailures(traced)
		spans := tr.closed()
		layers["go.peak_rss_mb"] = rss
		layers["spans.count"] = float64(len(spans))
		layers["spans.overhead.op_ms.p50"] = t.p50Ms - s.p50Ms
		layers["spans.overhead.op_ms.tail"] = t.tailMs - s.tailMs
		layers["spans.overhead.ops_per_s"] = s.opsPerS - t.opsPerS
		fmt.Fprintf(out, "spans (traced phase and decomposition, self = total minus child spans):\n")
		printSpanTotals(out, spans)
		fmt.Fprintf(out, "per-layer:\n")
		layers.print(out)
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Metrics = layers.metrics()
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.6f", x)
	}
	return strings.Join(parts, " ")
}

func printFailures(p *phaseResult) {
	n := 0
	for i := range p.ops {
		if p.ops[i].err != nil && n < 5 {
			fmt.Fprintf(os.Stdout, "  FAILED op %d: %v\n", p.ops[i].id, p.ops[i].err)
			n++
		}
	}
}

// probe is the running set-up probe, which a hard stop kills.
var probe atomic.Pointer[os.Process]

// timeSetups times the workload's set-up setupProbes times, each in a fresh
// process from its start to the point where it would begin its first timed
// op, so work moved into package initialization shows too. It returns the
// times in seconds and the directory of the last probe, which serve-hit
// reuses as its populated store.
func timeSetups(o *options, dir string) ([]float64, string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	n := setupProbes(o.workload)
	var times []float64
	var last string
	for i := 0; i < n; i++ {
		probeDir := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(probeDir, 0o755); err != nil {
			return nil, "", err
		}
		cmd := exec.Command(self, "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--setup-only", probeDir)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, "", fmt.Errorf("set-up probe %d: %w", i, err)
		}
		probe.Store(cmd.Process)
		err := cmd.Wait()
		times = append(times, time.Since(t0).Seconds())
		probe.Store(nil)
		if err != nil {
			return nil, "", fmt.Errorf("set-up probe %d: %w", i, err)
		}
		if last != "" {
			if err := os.RemoveAll(last); err != nil {
				return nil, "", err
			}
		}
		last = probeDir
	}
	return times, last, nil
}

// record runs one sweep pass without answers and writes them as the golden
// file.
func record(w *sweepWorkload, o *options, dir string) error {
	if err := w.setUp(o, dir, ""); err != nil {
		return err
	}
	p := &phaseResult{}
	if err := w.pass(p, 0, time.Now(), nil); err != nil {
		return err
	}
	if err := w.record(p); err != nil {
		return err
	}
	fmt.Printf("recorded %d runs to %s\n", len(w.runs), goldenPath)
	return nil
}

// runAll runs every workload, each in its own process so that peak RSS is
// the workload's own, and prints a combined result line with each metric
// prefixed by its workload.
func runAll(o *options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		var stdout bytes.Buffer
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace))
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		text := strings.TrimRight(stdout.String(), "\n")
		lines := strings.Split(text, "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || runErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v %v\n", name, runErr, err)
			fmt.Println(text)
			return 1
		}
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics in report order. A layer that
// does no work in a workload's timed ops reports 0 there.
var layerMetrics = []layerMetric{
	{"harness.fresh_sims", "count"},
	{"harness.pool_busy_ratio", "ratio"},
	{"bench.setup_ms", "ms"},
	{"bench.setup_share", "ratio"},
	{"gpu.run_s", "s"},
	{"gpu.winst_per_s", "winst/s"},
	{"gpu.warp_instrs", "count"},
	{"gpu.sim_cycles", "count"},
	{"core.host_cost_ratio", "ratio"},
	{"gpu.observed_run_s", "s"},
	{"gpu.observer_tax", "ratio"},
	{"trace.bytes", "bytes"},
	{"perfetto.bytes", "bytes"},
	{"attr.bytes", "bytes"},
	{"reuseprof.bytes", "bytes"},
	{"metrics.bytes", "bytes"},
	{"perfetto.encode_ms", "ms"},
	{"attr.encode_ms", "ms"},
	{"reuseprof.encode_ms", "ms"},
	{"metrics.encode_ms", "ms"},
	{"kasm.parse_us", "us"},
	{"serve.submit_ms.p50", "ms"},
	{"serve.events_wait_ms.p50", "ms"},
	{"serve.download_ms.p50", "ms"},
	{"serve.self_ms.p50", "ms"},
	{"store.put_ms.p50", "ms"},
	{"store.get_ms.p50", "ms"},
	{"store.entry_bytes", "bytes"},
	{"store.hit_ratio", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_pause_ms", "ms"},
	{"go.peak_rss_mb", "MB"},
	{"spans.count", "count"},
	{"spans.overhead.op_ms.p50", "ms"},
	{"spans.overhead.op_ms.tail", "ms"},
	{"spans.overhead.ops_per_s", "ops/s"},
}

// layerValues holds the traced run's per-layer values by metric name.
type layerValues map[string]float64

func (l layerValues) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{l[m.name], m.unit}
	}
	return out
}

func (l layerValues) print(w *os.File) {
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-26s %16.4f %s\n", m.name, l[m.name], m.unit)
	}
}

// unknown returns the names set that layerMetrics does not list.
func (l layerValues) unknown() []string {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
	}
	var out []string
	for k := range l {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
