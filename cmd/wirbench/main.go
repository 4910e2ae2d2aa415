// Command wirbench regenerates the WIR paper's figures and tables.
//
// Usage:
//
//	wirbench [-sms N] [-j N] [-v] [-exp LIST] [-json FILE] [-csv FILE]
//	         [-reuseprof-json FILE]
//
// LIST is a comma-separated subset of the harness registry (headline, fig2,
// fig12..fig22, table1..table3 and the ablation-* studies) or "all"
// (default); a name the registry lacks exits 2 and prints the registry.
// -j widens the sweep worker pool, the only fan-out (simulations of a figure
// run concurrently in this process; output is byte-identical to -j 1 — see
// docs/PERFORMANCE.md).
// -json writes the complete machine-readable report (running everything);
// -csv dumps every raw simulation as one row.
// -reuseprof-json writes the wir-reuse/1 report merged across every fresh
// simulation of the sweep.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
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

	want, err := selected(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirbench:", err)
		os.Exit(2)
	}

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
		if !want[s.Name] {
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
	if *jsonPath != "" {
		var rep bytes.Buffer
		if err := h.WriteReport(&rep); err != nil {
			fmt.Fprintf(os.Stderr, "wirbench: report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, rep.Bytes(), 0o666); err != nil {
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

// selected resolves -exp's comma-separated list through the harness registry
// into the set of experiment names to run; "all" names every experiment.
// Names are case-insensitive, and a name the registry lacks is an error
// that lists each such name and then the registry.
func selected(list string) (map[string]bool, error) {
	want := map[string]bool{}
	var unknown []string
	for _, e := range strings.Split(list, ",") {
		name := strings.TrimSpace(strings.ToLower(e))
		if name == "all" {
			for _, x := range harness.Experiments() {
				want[x.Name] = true
			}
		} else if _, err := harness.ExperimentByName(name); err != nil {
			unknown = append(unknown, strconv.Quote(name))
		} else {
			want[name] = true
		}
	}
	if len(unknown) > 0 {
		var names []string
		for _, x := range harness.Experiments() {
			names = append(names, x.Name)
		}
		return nil, fmt.Errorf("unknown experiment %s in -exp (want all or any of %s)",
			strings.Join(unknown, ", "), strings.Join(names, ", "))
	}
	return want, nil
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
