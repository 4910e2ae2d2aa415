// Command wirbench regenerates the WIR paper's figures and tables.
//
// Usage:
//
//	wirbench [-sms N] [-j N] [-v] [-exp LIST] [-json FILE] [-csv FILE]
//	         [-reuseprof-json FILE]
//
// LIST is a comma-separated subset of:
// headline, fig2, fig12..fig22, table1, table2, table3,
// ablation-assoc, ablation-pending, ablation-gating — or "all" (default).
// -j widens the sweep worker pool, the only fan-out (simulations of a figure
// run concurrently in this process; output is byte-identical to -j 1 — see
// docs/PERFORMANCE.md).
// -json writes the complete machine-readable report (running everything);
// -csv dumps every raw simulation as one row.
// -reuseprof-json writes the wir-reuse/1 report merged across every fresh
// simulation of the sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/wirsim/wir/internal/graceful"
	"github.com/wirsim/wir/internal/harness"
	"github.com/wirsim/wir/internal/reuseprof"
)

func main() {
	sms := flag.Int("sms", 15, "number of simulated SMs (paper: 15)")
	workers := flag.Int("j", runtime.NumCPU(), "parallel simulations in the sweep worker pool")
	verbose := flag.Bool("v", false, "print per-run progress")
	exp := flag.String("exp", "all", "comma-separated experiments to run")
	jsonPath := flag.String("json", "", "additionally write the full report as JSON to this file (runs all experiments)")
	csvPath := flag.String("csv", "", "additionally write every raw run as CSV to this file")
	reuseJSON := flag.String("reuseprof-json", "", "write the merged wir-reuse/1 report (miss taxonomy, eviction ledger, shadow headroom) across every fresh simulation")
	flag.Parse()

	guard := graceful.New("wirbench")
	guard.Watch()

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]

	h := harness.New()
	h.SMs = *sms
	h.SetParallelism(*workers)
	if *verbose {
		h.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if *reuseJSON != "" {
		h.ReuseProf = reuseprof.NewCollector(0)
	}
	if *csvPath != "" {
		guard.OnInterrupt(func() {
			if f, err := os.Create(*csvPath); err == nil {
				h.WriteRunsCSV(f)
				f.Close()
				fmt.Fprintf(os.Stderr, "wirbench: flushed %d partial raw runs to %s\n", h.RunCount(), *csvPath)
			}
		})
	}
	out := os.Stdout
	ran := 0
	for _, s := range harness.Experiments() {
		if !all && !want[s.Name] {
			continue
		}
		if ran > 0 {
			fmt.Fprintln(out)
		}
		if err := s.Run(h, out); err != nil {
			fmt.Fprintf(os.Stderr, "wirbench: %s: %v\n", s.Name, err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 && *jsonPath == "" && *csvPath == "" {
		fmt.Fprintf(os.Stderr, "wirbench: no experiment matched %q\n", *exp)
		os.Exit(2)
	}
	if *jsonPath != "" {
		rep, err := h.RunAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wirbench: report: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wirbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "wirbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote JSON report to %s\n", *jsonPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wirbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := h.WriteRunsCSV(f); err != nil {
			fmt.Fprintf(os.Stderr, "wirbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d raw runs to %s\n", h.RunCount(), *csvPath)
	}
	if *reuseJSON != "" {
		if err := writeReuseJSON(*reuseJSON, h.ReuseProf); err != nil {
			fmt.Fprintf(os.Stderr, "wirbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeReuseJSON writes the merged wir-reuse/1 report accumulated across every
// fresh simulation of a harness.
func writeReuseJSON(path string, c *reuseprof.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wirbench: wrote %s report to %s (achieved/achievable %.1f%%)\n",
		reuseprof.Schema, path, 100*c.AchievedRatio())
	return nil
}
