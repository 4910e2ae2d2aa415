// Command wirfuzz sweeps the random-program generator over a seed range with
// the golden-model oracle, the deadlock watchdog, and (optionally) the chaos
// fault injector attached. Without chaos, every seed must run cleanly: zero
// oracle divergences, invariants intact, and — when the model under test is
// not Base — an output image bit-identical to the Base model's. With chaos,
// every seed must satisfy the robustness contract instead (value-changing
// faults are detected, wedges trip the watchdog, nothing corrupts silently).
//
// Failing seeds are minimized in two phases — the smallest failing -len
// prefix, then muting individual top-level instruction slots (fuzz.Minimize),
// which shrinks multi-instruction failures below the prefix-length floor —
// and written as a JSON artifact for CI to upload. A minimized skip set
// replays with -skip.
//
// Seeds run on GOMAXPROCS goroutines; failures are recorded and reported in
// seed order, so the artifact and stderr are those of a serial sweep.
//
// Usage:
//
//	wirfuzz [-start N] [-n N] [-model RLPV] [-sms N] [-len N] [-skip 1,3,9]
//	        [-shared auto|on|off] [-watchdog N] [-chaos seed,rate,kinds]
//	        [-out failures.json] [-v]
//
// Exit status: 0 when every seed passes, 1 on runtime errors, 2 on usage
// errors, 3 when any seed fails, 4 when interrupted by SIGINT/SIGTERM (partial
// artifacts flushed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/wirsim/wir/internal/chaos"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/fuzz"
	"github.com/wirsim/wir/internal/graceful"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitFault   = 3
	// exitInterrupted (4) is produced by the graceful SIGINT/SIGTERM handler
	// after flushing partial artifacts; see internal/graceful.
	exitInterrupted = graceful.ExitCode
)

// failure is one minimized failing seed, serialized into the -out artifact.
type failure struct {
	Seed   int64  `json:"seed"`
	Len    int    `json:"len"`            // smallest failing program length
	Skip   []int  `json:"skip,omitempty"` // muted slots within that length
	Live   int    `json:"live"`           // instructions actually emitted
	Model  string `json:"model"`
	Shared bool   `json:"shared"`
	Chaos  string `json:"chaos,omitempty"`
	Error  string `json:"error"`
	Repro  string `json:"repro"`
}

// sweep holds the resolved command line.
type sweep struct {
	model     config.Model
	modelName string
	sms       int
	length    int
	skip      []int
	shared    string // auto, on, off
	watchdog  uint64
	chaosSpec string // original spec; per-seed injectors re-derive the seed
	chaosRest string // "rate,kinds" tail of the spec
	chaosSeed int64
	verbose   bool

	// guard (nil in tests) protects failures against the interrupt flusher,
	// which writes the partial artifact on SIGINT/SIGTERM.
	guard    *graceful.Guard
	failures []failure
}

func main() {
	start := flag.Int64("start", 0, "first seed")
	n := flag.Int("n", 200, "number of seeds")
	modelName := flag.String("model", "RLPV", "machine model under test")
	sms := flag.Int("sms", 2, "number of simulated SMs")
	length := flag.Int("len", 24, "instructions in the generated top-level block")
	skipSpec := flag.String("skip", "", "comma-separated top-level slots to mute (replays a minimized failure)")
	shared := flag.String("shared", "auto", "scratchpad round trips: auto (alternate by seed), on, off")
	watchdog := flag.Uint64("watchdog", 0, "cycles without a retire before the watchdog fires (0 derives the limit from DRAM latency and MSHR depth)")
	chaosSpec := flag.String("chaos", "", "inject faults: seed,rate,kinds — the seed is offset per run so every program sees distinct faults")
	out := flag.String("out", "", "write minimized failing seeds as JSON to this file")
	verbose := flag.Bool("v", false, "log every seed")
	flag.Parse()

	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: wirfuzz [-start N] [-n N] [-model M] [-chaos seed,rate,kinds] [-out FILE]")
		os.Exit(exitUsage)
	}
	guard := graceful.New("wirfuzz")
	guard.Watch()
	m, err := config.ParseModel(*modelName)
	usageCheck(err)
	if *n <= 0 || *length <= 0 {
		usageCheck(fmt.Errorf("wirfuzz: -n and -len must be positive"))
	}
	switch *shared {
	case "auto", "on", "off":
	default:
		usageCheck(fmt.Errorf("wirfuzz: -shared must be auto, on, or off"))
	}
	skip, err := parseSkip(*skipSpec, *length)
	usageCheck(err)
	sw := &sweep{
		model: m, modelName: *modelName, sms: *sms, length: *length, skip: skip,
		shared: *shared, watchdog: *watchdog, verbose: *verbose,
		guard: guard,
	}
	if *out != "" {
		// On SIGINT/SIGTERM, flush whatever failures exist so a long nightly
		// sweep that gets killed still leaves its evidence behind.
		outPath := *out
		guard.OnInterrupt(func() { writeArtifact(outPath, sw.failures) })
	}
	if *chaosSpec != "" {
		inj, err := chaos.Parse(*chaosSpec)
		usageCheck(err)
		sw.chaosSpec = *chaosSpec
		sw.chaosSeed = inj.Seed
		sw.chaosRest = (*chaosSpec)[strings.Index(*chaosSpec, ",")+1:]
	}

	sw.sweepRange(*start, int64(*n), runtime.GOMAXPROCS(0))

	if *out != "" {
		writeArtifact(*out, sw.failures)
	}
	if len(sw.failures) > 0 {
		fmt.Fprintf(os.Stderr, "wirfuzz: %d of %d seeds failed\n", len(sw.failures), *n)
		os.Exit(exitFault)
	}
	fmt.Fprintf(os.Stderr, "wirfuzz: %d seeds clean (model %s, start %d)\n", *n, sw.modelName, *start)
}

// sweepRange runs seeds [start, start+n) on width goroutines, seed i on
// worker i mod width, minimizing every failure. Each worker hands its
// outcomes back on its own channel and this goroutine reads them in seed
// order, so failures are recorded and reported exactly as a serial sweep
// would, with at most two outcomes per worker in flight.
func (sw *sweep) sweepRange(start, n int64, width int) {
	w := max(min(int64(width), n), 1)
	outs := make([]chan *failure, w)
	for k := range outs {
		outs[k] = make(chan *failure, 1)
		go func(out chan<- *failure, first int64) {
			for seed := first; seed < start+n; seed += w {
				out <- sw.check(seed)
			}
		}(outs[k], start+int64(k))
	}
	for seed := start; seed < start+n; seed++ {
		f := <-outs[(seed-start)%w]
		if f == nil {
			if sw.verbose {
				fmt.Fprintf(os.Stderr, "wirfuzz: seed %d ok\n", seed)
			}
			continue
		}
		sw.record(*f)
		fmt.Fprintf(os.Stderr, "wirfuzz: seed %d FAILED (minimized to %d live of len %d): %s\n",
			seed, f.Live, f.Len, f.Error)
	}
}

// check runs one seed and returns its minimized failure record, or nil when
// the seed passes.
func (sw *sweep) check(seed int64) *failure {
	err := sw.run(sw.optionsFor(seed, sw.length, sw.skip), seed)
	if err == nil {
		return nil
	}
	min, minErr := sw.minimize(seed)
	if minErr != nil {
		err = minErr
	}
	f := &failure{
		Seed: seed, Len: min.Len, Skip: min.Skip, Live: min.Live(),
		Model:  sw.modelName,
		Shared: sw.sharedFor(seed), Chaos: sw.chaosFor(seed),
		Error: err.Error(),
		Repro: fmt.Sprintf("wirfuzz -start %d -n 1 -len %d -model %s -shared %s -watchdog %d",
			seed, min.Len, sw.modelName, onOff(sw.sharedFor(seed)), sw.watchdog),
	}
	if len(min.Skip) > 0 {
		f.Repro += " -skip " + skipString(min.Skip)
	}
	if f.Chaos != "" {
		f.Repro += " -chaos " + f.Chaos
	}
	return f
}

// record appends a failure under the interrupt guard, so a partial artifact
// flushed on SIGINT/SIGTERM never contains a half-written record.
func (sw *sweep) record(f failure) {
	sw.guard.Protect(func() { sw.failures = append(sw.failures, f) })
}

// sharedFor resolves the scratchpad setting for one seed. Auto alternates so
// half the sweep exercises barriers and shared-memory checking.
func (sw *sweep) sharedFor(seed int64) bool {
	switch sw.shared {
	case "on":
		return true
	case "off":
		return false
	}
	return seed%2 == 1
}

// chaosFor renders the per-seed chaos spec ("" when chaos is off). Offsetting
// the configured seed by the program seed gives every run a distinct — but
// reproducible — fault sequence.
func (sw *sweep) chaosFor(seed int64) string {
	if sw.chaosSpec == "" {
		return ""
	}
	return fmt.Sprintf("%d,%s", sw.chaosSeed+seed, sw.chaosRest)
}

// injFor builds the per-seed injector (nil when chaos is off).
func (sw *sweep) injFor(seed int64) *chaos.Injector {
	spec := sw.chaosFor(seed)
	if spec == "" {
		return nil
	}
	inj, err := chaos.Parse(spec)
	if err != nil { // validated at startup; re-derivation cannot fail
		fatal(err)
	}
	return inj
}

// optionsFor builds the generator options for one seed.
func (sw *sweep) optionsFor(seed int64, length int, skip []int) fuzz.Options {
	o := fuzz.DefaultOptions(seed)
	o.Len = length
	o.Skip = skip
	o.WithShared = sw.sharedFor(seed)
	return o
}

// run executes one option set and judges it against the robustness contract.
func (sw *sweep) run(o fuzz.Options, seed int64) error {
	inj := sw.injFor(seed)
	res, err := fuzz.Execute(o, fuzz.RunConfig{
		Model: sw.model, NumSMs: sw.sms, Watchdog: sw.watchdog,
		Oracle: true, Chaos: inj,
	})
	if err != nil {
		fatal(err) // setup errors are driver bugs, not seed failures
	}
	var ref []uint32
	if inj == nil && sw.model != config.Base {
		// Clean runs must also agree bit-for-bit with the Base model.
		rres, err := fuzz.Execute(o, fuzz.RunConfig{Model: config.Base, NumSMs: sw.sms, Watchdog: sw.watchdog, Oracle: true})
		if err != nil {
			fatal(err)
		}
		if rerr := fuzz.Check(rres, nil, nil); rerr != nil {
			return fmt.Errorf("base reference failed: %w", rerr)
		}
		ref = rres.Output
	}
	return fuzz.Check(res, ref, inj)
}

// minimize shrinks a failing seed — the smallest failing prefix length, then
// per-slot muting — and returns the minimal option set with the error
// observed there.
func (sw *sweep) minimize(seed int64) (fuzz.Options, error) {
	var lastErr error
	min := fuzz.Minimize(sw.optionsFor(seed, sw.length, sw.skip), func(o fuzz.Options) bool {
		if err := sw.run(o, seed); err != nil {
			lastErr = err
			return true
		}
		return false
	})
	return min, lastErr
}

// parseSkip parses the -skip slot list.
func parseSkip(spec string, length int) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("wirfuzz: bad -skip entry %q: %v", part, err)
		}
		if v < 0 || v >= length {
			return nil, fmt.Errorf("wirfuzz: -skip slot %d outside 0..%d", v, length-1)
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

// skipString renders a skip set for a repro command line.
func skipString(skip []int) string {
	parts := make([]string, len(skip))
	for i, s := range skip {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, ",")
}

func writeArtifact(path string, failures []failure) {
	f, err := os.Create(path)
	fatal(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if failures == nil {
		failures = []failure{}
	}
	fatal(enc.Encode(failures))
	fatal(f.Close())
	fmt.Fprintf(os.Stderr, "wirfuzz: wrote %d failure(s) to %s\n", len(failures), path)
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirfuzz:", err)
		os.Exit(exitRuntime)
	}
}

func usageCheck(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirfuzz:", err)
		os.Exit(exitUsage)
	}
}
