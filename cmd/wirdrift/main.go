// Command wirdrift compares two wir-stats/1 reports and fails when headline
// derived metrics drift beyond a relative tolerance. CI uses it to gate the
// benchmark smoke run against the committed baseline:
//
//	wirdrift -max 0.15 BENCH_baseline.json BENCH_ci.json
//
// With -reuse-ratio, the gate instead compares the reuse_achieved_ratio
// derived metric (achieved/achievable reuse, from the reuse profiler's shadow
// tables — wirsim -stats json fills it). This check is always warn-only: the
// ratio is a telemetry-quality signal, not a performance contract, so drift
// is reported but never fails the build, and a baseline predating the metric
// passes with a note:
//
//	wirdrift -reuse-ratio -max 0.10 BENCH_baseline.json BENCH_ci.json
//
// Exit status: 0 within tolerance, 2 on usage or read errors, 3 on drift
// (the shared "run judged bad" code — see docs/ROBUSTNESS.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/wirsim/wir/internal/metrics"
)

func main() {
	max := flag.Float64("max", 0.15, "maximum allowed relative drift (0.15 = 15%)")
	reuseRatio := flag.Bool("reuse-ratio", false, "compare the reuse_achieved_ratio derived metric instead of the headline pair (always warn-only)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: wirdrift [-reuse-ratio] [-max FRAC] baseline.json current.json")
		os.Exit(2)
	}
	base := readReport(flag.Arg(0))
	cur := readReport(flag.Arg(1))

	if *reuseRatio {
		checkReuseRatio(base, cur, *max)
		return
	}

	violations := metrics.DriftViolations(base, cur, *max)
	if len(violations) == 0 {
		fmt.Printf("wirdrift: %s vs %s within %.0f%% tolerance\n", flag.Arg(0), flag.Arg(1), 100**max)
		return
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "wirdrift:", v)
	}
	os.Exit(3)
}

// checkReuseRatio compares the achieved/achievable reuse ratio between two
// wir-stats/1 reports. Always warn-only: a violation (or a baseline without
// the metric) is reported but never changes the exit status — the ratio warns
// that reuse headroom shifted, it does not gate the build.
func checkReuseRatio(base, cur *metrics.Report, max float64) {
	const key = "reuse_achieved_ratio"
	if _, ok := base.Derived[key]; !ok {
		fmt.Printf("wirdrift: baseline has no %s (predates the reuse profiler) — passing\n", key)
		return
	}
	if _, ok := cur.Derived[key]; !ok {
		fmt.Printf("wirdrift: current report has no %s (run wirsim -stats json with the reuse profiler) — passing\n", key)
		return
	}
	violations := metrics.DriftViolations(base, cur, max, key)
	if len(violations) == 0 {
		fmt.Printf("wirdrift: %s vs %s %s within %.0f%% tolerance\n", flag.Arg(0), flag.Arg(1), key, 100*max)
		return
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "wirdrift:", v)
	}
	fmt.Fprintln(os.Stderr, "wirdrift: reuse-ratio drift is warn-only, not failing")
}

func readReport(path string) *metrics.Report {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirdrift:", err)
		os.Exit(2)
	}
	defer f.Close()
	r, err := metrics.ReadReport(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wirdrift: %s: %v\n", path, err)
		os.Exit(2)
	}
	return r
}
