// Command wirsim runs one benchmark under one machine model and prints its
// statistics and energy breakdown.
//
// Usage:
//
//	wirsim [-sms N] [-model RLPV] [-dense] [-list] [-interval N] [-metrics FILE]
//	       [-stats text|json] [-trace-json FILE] [-serve :addr]
//	       [-pprof FILE] [-hostprof FILE]
//	       [-reuseprof] [-reuseprof-json FILE]
//	       [-perfetto FILE] [-hotspots N]
//	       [-oracle] [-watchdog N] [-audit] [-chaos seed,rate,kinds] <benchmark-abbr>
//
// Exit status: 0 on success, 1 on runtime errors (I/O, setup), 2 on usage
// errors, 3 when the run itself is judged bad — an oracle divergence, an
// invariant violation (end of run or, with -audit, at a kernel boundary), or
// a watchdog firing.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/wirsim/wir/internal/attr"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/chaos"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/harness"
	"github.com/wirsim/wir/internal/hostprof"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/oracle"
	"github.com/wirsim/wir/internal/perfetto"
	"github.com/wirsim/wir/internal/reuseprof"
	"github.com/wirsim/wir/internal/trace"
)

// Exit codes (documented in docs/ROBUSTNESS.md; wirfuzz and wirdiff use the
// same taxonomy).
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitFault   = 3
)

func main() {
	sms := flag.Int("sms", 15, "number of simulated SMs")
	modelName := flag.String("model", "RLPV", "machine model (Base, R, RL, RLP, RLPV, RPV, RLPVc, NoVSB, Affine, Affine+RLPV)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	traceN := flag.Int("trace", 0, "print the first N pipeline events")
	traceJSON := flag.String("trace-json", "", "write every pipeline event as JSONL to this file")
	disasm := flag.Bool("disasm", false, "print each kernel's program listing before running")
	interval := flag.Uint64("interval", 0, "sample the counters every N cycles into an interval time series")
	metricsOut := flag.String("metrics", "", "write the interval time series to this file (JSONL; .csv extension selects CSV)")
	statsMode := flag.String("stats", "text", "final statistics format: text or json")
	serveAddr := flag.String("serve", "", "serve live /metrics (Prometheus text) and /debug/pprof on this address while running")
	pprofOut := flag.String("pprof", "", "write a per-PC attribution profile (gzip'd pprof) of simulated cycles/energy to this file")
	hostprofOut := flag.String("hostprof", "", "write a host profile (gzip'd pprof) of real simulator wall time per simulation phase to this file")
	reuseprofFlag := flag.Bool("reuseprof", false, "attach the decision-level reuse profiler and print a miss-taxonomy/headroom summary")
	reuseprofJSON := flag.String("reuseprof-json", "", "write the wir-reuse/1 report (miss taxonomy, eviction ledger, shadow headroom) to this file")
	perfettoOut := flag.String("perfetto", "", "write the pipeline trace as Perfetto/Chrome trace-event JSON to this file")
	hotspots := flag.Int("hotspots", 0, "print the top-N per-PC hotspots after the run")
	useOracle := flag.Bool("oracle", false, "run the golden-model oracle in lockstep and fail on any divergence")
	watchdog := flag.Int64("watchdog", -1, "fail if no instruction retires for N cycles (-1 derives N from DRAM latency and MSHR depth, 0 = absolute backstop only)")
	audit := flag.Bool("audit", false, "run the structural invariant auditors at every kernel boundary, not just end of run")
	dense := flag.Bool("dense", false, "disable event-driven stepping: sweep every quiet cycle densely (bit-identical; for A/B and debugging)")
	chaosSpec := flag.String("chaos", "", "inject deterministic faults: seed,rate,kinds (e.g. 1,0.001,all — see docs/ROBUSTNESS.md)")
	flag.Parse()

	if *list {
		for _, b := range bench.All() {
			fmt.Printf("%-4s %-12s %s\n", b.Abbr, b.Name, b.Suite)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wirsim [-sms N] [-model M] [-oracle] [-watchdog N] [-chaos seed,rate,kinds] <benchmark-abbr>")
		os.Exit(exitUsage)
	}
	if *statsMode != "text" && *statsMode != "json" {
		fmt.Fprintln(os.Stderr, "wirsim: -stats must be text or json")
		os.Exit(exitUsage)
	}
	abbr := flag.Arg(0)
	bm, err := bench.ByAbbr(abbr)
	usageCheck(err)
	m, err := config.ParseModel(*modelName)
	usageCheck(err)
	var inj *chaos.Injector
	if *chaosSpec != "" {
		inj, err = chaos.Parse(*chaosSpec)
		usageCheck(err)
	}

	cfg := config.Default(m)
	cfg.NumSMs = *sms
	if *watchdog < 0 {
		cfg.WatchdogCycles = mem.AutoWatchdog(&cfg)
	} else {
		cfg.WatchdogCycles = uint64(*watchdog)
	}
	g, err := gpu.New(cfg)
	fatal(err)
	if *audit {
		g.SetLaunchAudit(true)
	}
	g.SetEventDriven(!*dense)

	// Telemetry: one registry feeds the live endpoint, the interval sampler
	// and the end-of-run report. Attached only when asked for, so plain runs
	// keep the uninstrumented fast path.
	var (
		reg     *metrics.Registry
		ins     *metrics.Instruments
		sampler *metrics.Sampler
	)
	telemetry := *interval > 0 || *metricsOut != "" || *serveAddr != "" || *statsMode == "json"
	if telemetry {
		reg = metrics.NewRegistry()
		ins = metrics.NewInstruments(reg)
		g.SetInstruments(ins)
	}
	if *interval > 0 || *metricsOut != "" {
		if *interval == 0 {
			*interval = 1000 // -metrics without -interval: a sane cadence, not every cycle
		}
		sampler = metrics.NewSampler(*interval)
		sampler.Registry = reg
		g.SetSampler(sampler)
	}
	if *serveAddr != "" {
		srv, err := metrics.Serve(*serveAddr, reg)
		fatal(err)
		fmt.Fprintf(os.Stderr, "wirsim: serving /metrics and /debug/pprof on %s\n", srv.Addr)
	}

	// The host profiler watches the simulator itself (real wall time per
	// simulation phase). Opt-in like the rest of the telemetry; without it
	// the SMs' timer calls are nil checks.
	var hostCollector *hostprof.Collector
	if *hostprofOut != "" {
		hostCollector = g.NewHostProf()
		g.SetHostProf(hostCollector)
	}

	// The reuse profiler classifies every reuse-buffer/VSB decision and runs
	// the infinite-capacity shadow tables. Like hostprof it is observational
	// only (bit-identical outputs) and opt-in; -stats json attaches it so the
	// report's derived rates include achieved/achievable, and -perfetto so
	// the trace always carries its counter tracks, whatever else is asked.
	var reuseCollector *reuseprof.Collector
	if *reuseprofFlag || *reuseprofJSON != "" || *statsMode == "json" || *perfettoOut != "" {
		reuseCollector = g.NewReuseProf()
		g.SetReuseProf(reuseCollector)
	}

	// Per-PC attribution feeds the pprof profile, the hotspot table, and the
	// hotspots section of the JSON report. Like the instruments it is opt-in
	// and attached before the run so the sums cover everything.
	var collector *attr.Collector
	if *pprofOut != "" || *hotspots > 0 || *statsMode == "json" {
		collector = attr.NewCollector()
		g.SetAttribution(collector)
	}

	var chk *oracle.Checker
	if *useOracle {
		chk = oracle.New(g.Mem())
		chk.Attr = collector
		oracle.Attach(g, chk)
	}
	if inj != nil {
		g.SetChaos(inj)
	}

	var sinks trace.Multi
	if *traceN > 0 {
		sinks = append(sinks, &trace.Writer{W: os.Stdout, Max: *traceN})
	}
	// The JSONL sink writes through an explicit buffer that is flushed and
	// closed after the run with every error checked: a full disk or broken
	// pipe must fail the run, not silently truncate the trace.
	var (
		jsonSink  *trace.JSONWriter
		traceFile *os.File
		traceBuf  *bufio.Writer
	)
	if *traceJSON != "" {
		traceFile, err = os.Create(*traceJSON)
		fatal(err)
		traceBuf = bufio.NewWriter(traceFile)
		jsonSink = trace.NewJSONWriter(traceBuf)
		sinks = append(sinks, jsonSink)
	}
	var perfettoSink *perfetto.Recorder
	if *perfettoOut != "" {
		perfettoSink = &perfetto.Recorder{}
		sinks = append(sinks, perfettoSink)
	}
	switch len(sinks) {
	case 0:
	case 1:
		g.SetTracer(sinks[0])
	default:
		g.SetTracer(sinks)
	}

	w, err := bm.Setup(g)
	fatal(err)
	if *disasm {
		seen := map[string]bool{}
		for _, l := range w.Launches {
			if !seen[l.Kernel.Name] {
				seen[l.Kernel.Name] = true
				fmt.Print(l.Kernel.Listing())
			}
		}
	}
	cycles, runErr := w.Run(g)

	// Finalize the trace before judging the run: a watchdog diagnosis is
	// exactly when the trace is most wanted.
	g.FlushSampler()
	if jsonSink != nil {
		fatal(jsonSink.Err())
		fatal(traceBuf.Flush())
		fatal(traceFile.Close())
	}
	if inj != nil {
		fmt.Fprintln(os.Stderr, "wirsim:", inj.Summary())
	}

	var we *gpu.WatchdogError
	if errors.As(runErr, &we) {
		fmt.Fprintln(os.Stderr, "wirsim:", we.Error())
		os.Exit(exitFault)
	}
	var ae *gpu.AuditError
	if errors.As(runErr, &ae) {
		fmt.Fprintln(os.Stderr, "wirsim:", ae.Error())
		os.Exit(exitFault)
	}
	fatal(runErr)
	if err := g.CheckInvariants(); err != nil {
		fmt.Fprintln(os.Stderr, "wirsim: invariant violated:", err)
		os.Exit(exitFault)
	}
	if chk != nil {
		chk.CheckMemory()
		if err := chk.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "wirsim:", err)
			os.Exit(exitFault)
		}
		fmt.Fprintln(os.Stderr, "wirsim: oracle: clean (0 divergences)")
	}

	st := g.Stats()
	coeff := energy.Default45nm()
	eb := energy.Model(&coeff, &st, cfg.NumSMs)

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		fatal(err)
		if strings.HasSuffix(*metricsOut, ".csv") {
			fatal(sampler.WriteCSV(f))
		} else {
			fatal(sampler.WriteJSONL(f))
		}
		fatal(f.Close())
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		fatal(err)
		fatal(collector.WriteProfile(f, cycles))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "wirsim: wrote pprof profile to %s (view: go tool pprof -http=: %s)\n",
			*pprofOut, *pprofOut)
	}
	if *hostprofOut != "" {
		f, err := os.Create(*hostprofOut)
		fatal(err)
		fatal(hostCollector.WriteProfile(f))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "wirsim: wrote host profile to %s (view: go tool pprof -http=: %s)\n",
			*hostprofOut, *hostprofOut)
	}
	if *perfettoOut != "" {
		f, err := os.Create(*perfettoOut)
		fatal(err)
		tevs := perfetto.Convert(perfettoSink.Events)
		if reuseCollector != nil {
			// Counter tracks (reuse-buffer occupancy, rolling hit rate) ride
			// along in the same trace so they line up with pipeline events.
			tevs = append(tevs, reuseCollector.PerfettoCounters()...)
		}
		fatal(perfetto.WriteEvents(f, tevs))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "wirsim: wrote %d trace events to %s (open in ui.perfetto.dev)\n",
			len(tevs), *perfettoOut)
	}

	if reuseCollector != nil && reg != nil {
		reuseCollector.Publish(reg)
	}
	if *reuseprofJSON != "" {
		f, err := os.Create(*reuseprofJSON)
		fatal(err)
		fatal(reuseCollector.WriteJSON(f))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "wirsim: wrote %s report to %s (achieved/achievable %.1f%%)\n",
			reuseprof.Schema, *reuseprofJSON, 100*reuseCollector.AchievedRatio())
	}

	if *statsMode == "json" {
		rep := metrics.NewReport(bm.Abbr, fmt.Sprint(m), cfg.NumSMs, &st)
		rep.ConfigHash = harness.KeyHash(harness.RunKey(bm.Abbr, m, nil, &cfg))
		sr := g.StallReport()
		sr.Publish(reg)
		rep.AttachStalls(&sr)
		rep.AttachInstruments(ins)
		rep.RFBankConflicts = g.RFConflictCounts()
		rep.Energy = map[string]float64{"sm": eb.SM() / 1e6, "total": eb.Total() / 1e6}
		n := *hotspots
		if n <= 0 {
			n = 10
		}
		rep.Hotspots = collector.Hotspots(n)
		if reuseCollector != nil {
			rep.Derived["reuse_achieved_ratio"] = reuseCollector.AchievedRatio()
			reuseCollector.AnnotateHotspots(rep.Hotspots)
		}
		fatal(rep.WriteJSON(os.Stdout))
		return
	}

	fmt.Printf("%s (%s) on %v, %d SMs\n", bm.Name, bm.Abbr, m, cfg.NumSMs)
	fmt.Printf("cycles                 %d (IPC %.2f per SM)\n", cycles,
		float64(st.Issued)/float64(cycles)/float64(cfg.NumSMs))
	fmt.Printf("instructions issued    %d (%.1f%% FP, %.1f%% control)\n",
		st.Issued, 100*st.FPRate(), 100*float64(st.Control)/float64(st.Issued))
	fmt.Printf("backend executed       %d\n", st.Backend)
	fmt.Printf("reused (bypassed)      %d (%.1f%% of issued; %d via pending-retry)\n",
		st.Bypassed, 100*st.BypassRate(), st.PendingHits)
	fmt.Printf("loads served by reuse  %d\n", st.LoadsReused)
	fmt.Printf("dummy MOVs             %d\n", st.DummyMovs)
	fmt.Printf("VSB                    %d lookups, %.1f%% hit, %d false positives\n",
		st.VSBLookups, 100*st.VSBHitRate(), st.VSBFalsePos)
	fmt.Printf("verify cache           %d hits / %d verify-reads\n", st.VerifyCHits, st.VerifyReads)
	fmt.Printf("register file          %d reads, %d writes, %d verify-reads, %d retries\n",
		st.RFReads, st.RFWrites, st.RFVerify, st.BankRetries)
	fmt.Printf("register utilization   avg %.0f, peak %d (of %d)\n",
		st.AvgRegUtil(), st.RegUtilPeak, cfg.PhysRegsPerSM)
	fmt.Printf("L1D                    %d accesses, %.1f%% miss\n", st.L1DAccesses, 100*st.L1DMissRate())
	fmt.Printf("L2 / DRAM              %d / %d accesses\n", st.L2Accesses, st.DRAMAccesses)
	fmt.Printf("energy (uJ)            SM %.2f, total %.2f\n", eb.SM()/1e6, eb.Total()/1e6)
	if telemetry {
		sr := g.StallReport()
		fmt.Printf("issue slots            %d cycles, %.1f%% issued\n",
			sr.SchedSlotCycles, 100*float64(sr.IssueCycles)/float64(sr.SchedSlotCycles))
		fr := sr.Fractions()
		names := metrics.StallNames()
		line := "stalls                "
		for _, n := range names {
			if fr[n] > 0.001 {
				line += fmt.Sprintf(" %s %.1f%%", n, 100*fr[n])
			}
		}
		fmt.Println(line)
	}
	if sampler != nil {
		fmt.Printf("intervals recorded     %d (every %d cycles)\n", len(sampler.Samples()), sampler.Every)
	}
	if *reuseprofFlag {
		rr := reuseCollector.Report()
		fmt.Printf("reuse taxonomy         ")
		first := true
		for i := reuseprof.Bucket(0); i < reuseprof.NumBuckets; i++ {
			if n := rr.Taxonomy[i.String()]; n > 0 {
				if !first {
					fmt.Print(", ")
				}
				fmt.Printf("%s %d", i, n)
				first = false
			}
		}
		fmt.Println()
		fmt.Printf("reuse headroom         %d achieved / %d achievable (%.1f%%), %d distinct tags\n",
			rr.Shadow.RealHits, rr.Shadow.ShadowHits, 100*rr.Shadow.AchievedRatio, rr.Shadow.DistinctTags)
		fmt.Printf("reuse occupancy        %.1f entries (mean)\n", rr.OccupancyMean)
	}
	if *hotspots > 0 {
		fmt.Printf("\ntop %d hotspots by simulated cycles\n", *hotspots)
		attr.WriteHotspots(os.Stdout, collector.Hotspots(*hotspots))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirsim:", err)
		os.Exit(exitRuntime)
	}
}

// usageCheck fails with the usage exit code: the command line named something
// that does not exist (benchmark, model, chaos spec).
func usageCheck(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirsim:", err)
		os.Exit(exitUsage)
	}
}
