// Package harness runs the paper's experiments: for every figure and table
// in the evaluation section it executes the necessary benchmark/model
// combinations and produces the same rows or series the paper reports.
// Results are memoized so figures that share runs (most of them) do not
// re-simulate.
package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/reuseprof"
	"github.com/wirsim/wir/internal/stats"
)

// Result is one benchmark execution under one machine configuration.
type Result struct {
	Bench  string
	Model  config.Model
	Cycles uint64
	Stats  stats.Sim
	Energy energy.Breakdown
}

// Harness runs and memoizes benchmark executions. It is safe for concurrent
// use: the memo cache is a single-flight map, so figures prewarmed by the
// worker pool share results with the serial rendering loops without ever
// simulating the same (benchmark, model, variant) twice.
type Harness struct {
	// SMs overrides the number of simulated SMs (default: the paper's 15).
	// Smaller values speed exploration without changing trends.
	SMs int
	// Progress, when non-nil, receives a line per fresh simulation.
	Progress func(string)
	// ReuseProf, when non-nil, aggregates decision-level reuse telemetry
	// across every fresh simulation: each run gets its own collector and is
	// merged in under the harness lock, so the totals are deterministic even
	// with a concurrent worker pool (merge is commutative).
	ReuseProf *reuseprof.Collector
	// Exec, when non-nil, replaces the local simulation for cache misses:
	// Run delegates each fresh (key, config) to it instead of simulating
	// in-process. perfbench uses this to time each fresh simulation of a
	// figure.
	Exec Executor

	mu      sync.Mutex
	cache   map[string]*entry
	workers int
	coeff   energy.Coefficients
	fig2    struct {
		once sync.Once
		r    *Fig2Result
		err  error
	}
}

// Executor produces the Result for one fully-mutated configuration. The key
// is the harness cache key (stable across processes for identical configs).
type Executor func(key, abbr string, m config.Model, cfg config.Config) (*Result, error)

// maxEntryAttempts bounds how many executions one cache slot may consume: a
// failed run is retried once on the next demand, then the error sticks. This
// keeps a transient Executor fault (one that gives up at a deadline, say)
// from poisoning the cache forever, without letting a deterministic
// simulation bug re-execute on every one of the hundreds of figure lookups
// that share the entry.
const maxEntryAttempts = 2

// entry is one single-flight cache slot: the first caller executes, every
// concurrent caller waits on the flight channel and shares the outcome. A
// successful result is memoized forever; an error is re-attempted by the next
// demand until the attempt budget is spent.
type entry struct {
	mu       sync.Mutex
	flight   chan struct{} // non-nil while an execution is in progress
	complete bool          // terminal: r/err are final
	attempts int
	r        *Result
	err      error
}

// New returns a harness with the paper's default configuration.
func New() *Harness {
	return &Harness{SMs: 15, cache: make(map[string]*entry), workers: 1, coeff: energy.Default45nm()}
}

// SetParallelism sets the sweep-level worker-pool width used by the figure
// prewarm passes (n < 1 is treated as 1, i.e. fully serial).
func (h *Harness) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	h.mu.Lock()
	h.workers = n
	h.mu.Unlock()
}

// Variant tweaks a configuration before a run (used by the sensitivity
// sweeps). The name distinguishes cache entries.
type Variant struct {
	Name   string
	Mutate func(*config.Config)
}

// Run executes one benchmark under one model (plus optional variant),
// memoizing the result. The cache key includes a hash of the fully-mutated
// configuration, so two variants that share a name but mutate the config
// differently can never alias one entry.
func (h *Harness) Run(abbr string, m config.Model, v *Variant) (*Result, error) {
	cfg := config.Default(m)
	if h.SMs > 0 {
		cfg.NumSMs = h.SMs
	}
	if v != nil && v.Mutate != nil {
		v.Mutate(&cfg)
	}
	key := RunKey(abbr, m, v, &cfg)
	h.mu.Lock()
	e, ok := h.cache[key]
	if !ok {
		e = &entry{}
		h.cache[key] = e
	}
	exec := h.Exec
	h.mu.Unlock()
	if exec == nil {
		exec = h.Execute
	}
	for {
		e.mu.Lock()
		if e.complete {
			e.mu.Unlock()
			return e.r, e.err
		}
		if e.flight != nil {
			// Someone else is executing: wait for them, then re-check. We do
			// not return their outcome directly — if they failed and budget
			// remains, this caller becomes the retry.
			flight := e.flight
			e.mu.Unlock()
			<-flight
			continue
		}
		if e.err != nil && e.attempts >= maxEntryAttempts {
			// Budget spent: the last error sticks.
			e.complete = true
			e.mu.Unlock()
			return nil, e.err
		}
		e.flight = make(chan struct{})
		e.attempts++
		e.mu.Unlock()

		r, err := exec(key, abbr, m, cfg)

		e.mu.Lock()
		e.r, e.err = r, err
		if err == nil || e.attempts >= maxEntryAttempts {
			e.complete = true
		}
		close(e.flight)
		e.flight = nil
		e.mu.Unlock()
		if err == nil || e.complete {
			return r, err
		}
		// Failed with budget left: loop so THIS caller retries immediately
		// (the single demand that triggered the failure should not have to
		// come back later to see the retry).
	}
}

// Execute performs one fresh simulation for a fully-mutated configuration,
// bypassing the memo cache and the Exec hook. An Executor calls this to
// simulate: the cache stays with Run, the cycles are counted here.
func (h *Harness) Execute(key, abbr string, m config.Model, cfg config.Config) (*Result, error) {
	return h.simulate(key, abbr, m, cfg)
}

// ConfigHash returns the FNV-64a hash of a fully-mutated configuration — the
// collision-proofing suffix of every cache key. It is stable across processes
// for identical configs, which is what lets the single-flight cache and the
// wirserve result store agree on one key.
func ConfigHash(cfg *config.Config) uint64 {
	fh := fnv.New64a()
	fmt.Fprintf(fh, "%+v", *cfg)
	return fh.Sum64()
}

// RunKey renders the cache key for one (benchmark, model, variant, config)
// simulation: the readable abbr/model[/variant] prefix plus the config hash.
// A nil variant (or one with an empty name) contributes no segment, so callers
// that inject a fully-built config without a named variant — wirsim, the
// wirserve job API — produce the same key as a plain harness Run.
func RunKey(abbr string, m config.Model, v *Variant, cfg *config.Config) string {
	key := fmt.Sprintf("%s/%v", abbr, m)
	if v != nil && v.Name != "" {
		key += "/" + v.Name
	}
	return fmt.Sprintf("%s#%016x", key, ConfigHash(cfg))
}

// KeyHash collapses a full cache key to its canonical 16-hex-digit content
// address: the FNV-64a hash of the whole key string. This is the token the
// wirserve store uses as a filename and the config_hash field of wir-stats/1
// reports, so "the hash wirsim printed" and "the file the store wrote" can be
// compared byte-for-byte.
func KeyHash(key string) string {
	fh := fnv.New64a()
	fh.Write([]byte(key))
	return fmt.Sprintf("%016x", fh.Sum64())
}

// simulate performs one fresh benchmark execution.
func (h *Harness) simulate(key, abbr string, m config.Model, cfg config.Config) (*Result, error) {
	bm, err := bench.ByAbbr(abbr)
	if err != nil {
		return nil, err
	}
	g, err := gpu.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	var rp *reuseprof.Collector
	if h.ReuseProf != nil {
		rp = g.NewReuseProf()
		g.SetReuseProf(rp)
	}
	w, err := bm.Setup(g)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", key, err)
	}
	cycles, err := w.Run(g)
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", key, err)
	}
	if rp != nil {
		h.mu.Lock()
		h.ReuseProf.Merge(rp)
		h.mu.Unlock()
	}
	st := g.Stats()
	r := &Result{
		Bench:  abbr,
		Model:  m,
		Cycles: cycles,
		Stats:  st,
		Energy: energy.Model(&h.coeff, &st, cfg.NumSMs),
	}
	if h.Progress != nil {
		h.mu.Lock()
		h.Progress(fmt.Sprintf("ran %-14s cycles=%d bypass=%.1f%%", key, cycles, 100*st.BypassRate()))
		h.mu.Unlock()
	}
	return r, nil
}

// runJob names one (benchmark, model, variant) simulation for the prewarm
// worker pool.
type runJob struct {
	abbr    string
	model   config.Model
	variant *Variant
}

// prewarm executes the jobs across the configured worker pool, populating the
// single-flight cache. Errors are deliberately dropped here: the figure's
// serial rendering loop re-issues every Run and surfaces the cached error in
// its usual deterministic order, so WriteText output — including failures —
// is identical at any parallelism.
func (h *Harness) prewarm(jobs []runJob) {
	h.mu.Lock()
	serial := h.workers <= 1
	h.mu.Unlock()
	if serial {
		return
	}
	_ = h.parallelMap(len(jobs), func(i int) error {
		_, _ = h.Run(jobs[i].abbr, jobs[i].model, jobs[i].variant)
		return nil
	})
}

// suiteJobs builds the prewarm list for every suite benchmark under each of
// the given models.
func suiteJobs(models ...config.Model) []runJob {
	jobs := make([]runJob, 0, len(models)*34)
	for _, abbr := range Benchmarks() {
		for _, m := range models {
			jobs = append(jobs, runJob{abbr: abbr, model: m})
		}
	}
	return jobs
}

// parallelMap runs f(0..n-1) across the worker pool (serially when the pool is
// one wide) and returns the lowest-index error, matching what the serial loop
// would have reported.
func (h *Harness) parallelMap(n int, f func(int) error) error {
	h.mu.Lock()
	w := h.workers
	h.mu.Unlock()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	ch := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Benchmarks returns the Table I abbreviations in registry order.
func Benchmarks() []string {
	out := make([]string, 0, 34)
	for _, b := range bench.All() {
		out = append(out, b.Abbr)
	}
	return out
}

// Fig15Benchmarks are the load-reuse-sensitive applications the paper calls
// out in Figure 15 (plus KM, its cache-sensitive outlier).
var Fig15Benchmarks = []string{"SF", "BT", "HS", "S2", "KM", "LK"}

// Fig18Benchmarks are the bank-conflict-sensitive applications of Figure 18.
var Fig18Benchmarks = []string{"GA", "BO", "BF"}

// GeoMean returns the geometric mean of xs (which must be positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	acc := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		acc += math.Log(x)
	}
	return math.Exp(acc / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortedKeys returns map keys in sorted order (deterministic rendering).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
