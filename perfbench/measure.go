package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// opDeadline bounds one op. A wedged job fails its op at the deadline
// instead of hanging the run, and a failed op is ranked at this latency,
// which is slower than every success.
const opDeadline = 60 * time.Second

// tailBeyond is how many ops the tail percentile must leave beyond it.
const tailBeyond = 10

// op is one timed operation of a workload's closed loop.
type op struct {
	id    int64
	spec  int           // index into the workload's spec list
	start time.Duration // since the phase began
	dur   time.Duration
	err   error
	winst uint64 // warp instructions freshly simulated by the op
	rep   *reply // what a served op saw; nil for sweep ops
	group int    // sweep pass the op belongs to; 0 for served ops
	class string // the op's stratum: a served job class, or a sweep model
}

// phaseResult is one timed closed-loop phase.
type phaseResult struct {
	ops  []op
	wall time.Duration // first op start to last op end
}

func (p *phaseResult) failed() int {
	n := 0
	for i := range p.ops {
		if p.ops[i].err != nil {
			n++
		}
	}
	return n
}

// fail marks an op failed unless it already is, keeping the first cause.
func (o *op) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

// latenciesMs returns op latencies in ms, sorted, with failed ops at the
// deadline so they rank above every success.
func latenciesMs(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i := range ops {
		d := ops[i].dur
		if ops[i].err != nil {
			d = opDeadline
		}
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// nearestRank returns the p-th percentile of sorted xs by the nearest-rank
// rule: the smallest value with at least p% of xs at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(p / 100 * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// tailPercentile returns the highest whole percentile of sorted xs with at
// least tailBeyond values beyond it, its nearest-rank value, and how many
// values lie beyond that rank. With too few values for any such percentile
// it returns the maximum as p100.
func tailPercentile(sorted []float64) (pct int, v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= tailBeyond {
		return 100, sorted[n-1], 0
	}
	pct = 100 * (n - tailBeyond) / n
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return pct, sorted[r-1], n - r
}

// summary holds one phase's end-to-end metrics.
type summary struct {
	setupS     float64
	setupN     int
	winstPerS  float64
	winst      uint64
	p50Ms      float64
	tailPct    int
	tailMs     float64
	tailBeyond int
	groupN     int // ops per group the percentiles were read from
	groups     int
	opsPerS    float64
	attempted  int
	failed     int
	wallS      float64
	peakRSSMB  float64
}

// summarize computes a phase's metrics. Latency percentiles are read per
// group and the median across groups is reported: a sweep pass is a fixed
// set of ops, so reading them per pass keeps the tail's rank from moving
// with the number of passes that fit in a run.
func summarize(p *phaseResult) summary {
	s := summary{attempted: len(p.ops), failed: p.failed(), wallS: p.wall.Seconds()}
	byGroup := map[int][]op{}
	for i := range p.ops {
		byGroup[p.ops[i].group] = append(byGroup[p.ops[i].group], p.ops[i])
		if p.ops[i].err == nil {
			s.winst += p.ops[i].winst
		}
	}
	var p50s, tails []float64
	for _, ops := range byGroup {
		lat := latenciesMs(ops)
		p50s = append(p50s, nearestRank(lat, 50))
		_, v, _ := tailPercentile(lat)
		tails = append(tails, v)
		if len(ops) > s.groupN {
			s.groupN = len(ops)
			s.tailPct, _, s.tailBeyond = tailPercentile(lat)
		}
	}
	s.groups = len(byGroup)
	s.p50Ms, s.tailMs = median(p50s), median(tails)
	if s.wallS > 0 {
		s.opsPerS = float64(s.attempted-s.failed) / s.wallS
		s.winstPerS = float64(s.winst) / s.wallS
	}
	return s
}

func (s *summary) errorRate() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd returns the end-to-end metrics BENCHMARK.json gates on: the
// ones every workload defines, none reports as zero, and whose run-to-run
// spread fits a bound. sim_winst_per_s (zero on serve-hit), error_rate
// (zero when correct; the result line carries it as failed/attempted) and
// peak_rss_mb (its spread on the served workloads follows GC timing around
// their large bundles) are printed but not gated.
func (s *summary) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":    {s.setupS, "s"},
		"op_ms.p50":  {s.p50Ms, "ms"},
		"op_ms.tail": {s.tailMs, "ms"},
		"ops_per_s":  {s.opsPerS, "ops/s"},
	}
}

// print writes all seven end-to-end metrics with units and sample counts.
func (s *summary) print(w *os.File) {
	n := s.attempted
	fmt.Fprintf(w, "  %-16s %14.6f s        (median of %d set-ups, process start to first op)\n", "setup_s", s.setupS, s.setupN)
	if s.winst > 0 {
		fmt.Fprintf(w, "  %-16s %14.0f winst/s  (%d fresh warp instructions over %.3f s)\n", "sim_winst_per_s", s.winstPerS, s.winst, s.wallS)
	} else {
		fmt.Fprintf(w, "  %-16s %14s winst/s  (nothing simulated in timed ops)\n", "sim_winst_per_s", "n/a")
	}
	per := ""
	if s.groups > 1 {
		per = fmt.Sprintf(" per pass of %d, median of %d passes", s.groupN, s.groups)
	}
	fmt.Fprintf(w, "  %-16s %14.3f ms       (n=%d%s)\n", "op_ms.p50", s.p50Ms, n, per)
	fmt.Fprintf(w, "  %-16s %14.3f ms       (p%d, %d ops beyond, n=%d%s)\n", "op_ms.tail", s.tailMs, s.tailPct, s.tailBeyond, n, per)
	fmt.Fprintf(w, "  %-16s %14.3f ops/s    (n=%d over %.3f s)\n", "ops_per_s", s.opsPerS, n-s.failed, s.wallS)
	fmt.Fprintf(w, "  %-16s %14.4f ratio    (%d failed of %d)\n", "error_rate", s.errorRate(), s.failed, n)
	fmt.Fprintf(w, "  %-16s %14.1f MB       (whole process)\n", "peak_rss_mb", s.peakRSSMB)
}

// printClasses writes each op class's count and median latency.
func printClasses(w *os.File, p *phaseResult) {
	byClass := map[string][]op{}
	for i := range p.ops {
		byClass[p.ops[i].class] = append(byClass[p.ops[i].class], p.ops[i])
	}
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  by class:")
	for _, c := range names {
		fmt.Fprintf(w, " %s n=%d p50=%.1fms", c, len(byClass[c]), nearestRank(latenciesMs(byClass[c]), 50))
	}
	fmt.Fprintln(w)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
