package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/harness"
)

// goldenPath is where -record writes the sweep's recorded answers,
// relative to the repository root.
const goldenPath = "perfbench/golden/headline.json"

//go:embed golden/headline.json
var goldenJSON []byte

// golden is the recorded answer of the headline sweep: every fresh
// simulation's cycles, issued warp instructions and a digest of its full
// result, plus the rendered headline text.
type golden struct {
	Runs map[string]goldenRun `json:"runs"`
	Text string               `json:"text"`
}

type goldenRun struct {
	Cycles uint64 `json:"cycles"`
	Issued uint64 `json:"issued"`
	Digest string `json:"digest"`
}

// resultDigest hashes everything a harness.Result carries.
func resultDigest(r *harness.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%d|%+v|%+v", r.Bench, r.Model, r.Cycles, r.Stats, r.Energy)
	return fmt.Sprintf("%016x", h.Sum64())
}

// sweepRun is one fresh simulation the sweep made, kept for its answer
// check and its decomposition.
type sweepRun struct {
	key    string
	abbr   string
	model  config.Model
	cfg    config.Config
	result *harness.Result
}

// sweepWorkload renders the headline experiment (34 Table I kernels x
// Base, RLPV and RPV at 15 SMs) on a fresh harness per pass, with the pool
// as wide as the machine. An op is one fresh simulation, timed around
// Harness.Execute through the Exec hook.
type sweepWorkload struct {
	want  golden
	exp   *harness.Experiment
	width int

	mu   sync.Mutex
	runs map[int64]*sweepRun // by op ID
}

func (w *sweepWorkload) setUp(o *options, dir, _ string) error {
	if !o.record {
		if err := json.Unmarshal(goldenJSON, &w.want); err != nil {
			return fmt.Errorf("golden answers: %w", err)
		}
	}
	exp, err := harness.ExperimentByName("headline")
	if err != nil {
		return err
	}
	w.exp = exp
	w.width = runtime.NumCPU()
	w.runs = map[int64]*sweepRun{}
	return w.warmUp()
}

// warmUp runs one small kernel under Base and under RLPV on a throwaway
// harness, so lazy initialization on both paths lands in set-up rather
// than in the first timed ops. Outside recording, the results must match
// the recorded answers.
func (w *sweepWorkload) warmUp() error {
	h := harness.New()
	for _, m := range []config.Model{config.Base, config.RLPV} {
		cfg := config.Default(m)
		cfg.NumSMs = h.SMs
		key := harness.RunKey(warmUpBench, m, nil, &cfg)
		r, err := h.Execute(key, warmUpBench, m, cfg)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", key, err)
		}
		if g, ok := w.want.Runs[key]; w.want.Text != "" && (!ok || g.Digest != resultDigest(r)) {
			return fmt.Errorf("warm-up %s differs from the recorded answer", key)
		}
	}
	return nil
}

// warmUpBench is a light suite kernel whose runs the headline sweep also
// makes.
const warmUpBench = "DW"

func (w *sweepWorkload) run(d time.Duration, tr *tracer) (*phaseResult, error) {
	p := &phaseResult{}
	start := time.Now()
	for pass := 0; time.Since(start) < d || pass == 0; pass++ {
		if err := w.pass(p, pass, start, tr); err != nil {
			return nil, err
		}
	}
	p.wall = time.Since(start)
	return p, nil
}

// pass renders the headline once on a fresh harness.
func (w *sweepWorkload) pass(p *phaseResult, pass int, start time.Time, tr *tracer) error {
	h := harness.New()
	h.SetParallelism(w.width)
	passSpan := tr.begin("harness.Experiment.Run", 0, 0)
	first := len(p.ops)
	h.Exec = func(key, abbr string, m config.Model, cfg config.Config) (*harness.Result, error) {
		id := nextOpID()
		sp := tr.begin("harness.Execute", id, passSpan)
		t0 := time.Now()
		r, err := executeWithDeadline(h, key, abbr, m, cfg)
		dur := time.Since(t0)
		tr.end(sp)
		o := op{id: id, start: t0.Sub(start), dur: dur, err: err, group: pass, class: m.String()}
		if err == nil {
			o.winst = r.Stats.Issued
		}
		w.mu.Lock()
		w.runs[id] = &sweepRun{key: key, abbr: abbr, model: m, cfg: cfg, result: r}
		p.ops = append(p.ops, o)
		w.mu.Unlock()
		return r, err
	}
	var text bytes.Buffer
	err := w.exp.Run(h, &text)
	tr.end(passSpan)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		for i := first; i < len(p.ops); i++ {
			p.ops[i].fail("headline: %v", err)
		}
		return nil
	}
	if w.want.Text != "" && text.String() != w.want.Text {
		for i := first; i < len(p.ops); i++ {
			p.ops[i].fail("rendered headline differs from the recorded one")
		}
	}
	if w.want.Text == "" {
		w.want.Text = text.String() // recording
	}
	return nil
}

// executeWithDeadline runs one fresh simulation, failing it at opDeadline.
// A simulation past its deadline cannot be stopped; it is abandoned and
// ends with the process.
func executeWithDeadline(h *harness.Harness, key, abbr string, m config.Model, cfg config.Config) (*harness.Result, error) {
	type out struct {
		r   *harness.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		r, err := h.Execute(key, abbr, m, cfg)
		ch <- out{r, err}
	}()
	t := time.NewTimer(opDeadline)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.r, o.err
	case <-t.C:
		return nil, fmt.Errorf("%s: no result within %v", key, opDeadline)
	}
}

func (w *sweepWorkload) check(p *phaseResult) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range p.ops {
		o := &p.ops[i]
		if o.err != nil {
			continue
		}
		r := w.runs[o.id]
		g, ok := w.want.Runs[r.key]
		switch {
		case !ok:
			o.fail("%s: no recorded answer", r.key)
		case g.Cycles != r.result.Cycles || g.Issued != r.result.Stats.Issued || g.Digest != resultDigest(r.result):
			o.fail("%s: cycles %d issued %d digest %s, recorded %d %d %s", r.key,
				r.result.Cycles, r.result.Stats.Issued, resultDigest(r.result), g.Cycles, g.Issued, g.Digest)
		}
	}
	return nil
}

// record writes the answers of a completed pass as the golden file.
func (w *sweepWorkload) record(p *phaseResult) error {
	if n := p.failed(); n > 0 {
		return fmt.Errorf("refusing to record: %d ops failed", n)
	}
	g := golden{Runs: map[string]goldenRun{}, Text: w.want.Text}
	for _, r := range w.runs {
		g.Runs[r.key] = goldenRun{Cycles: r.result.Cycles, Issued: r.result.Stats.Issued, Digest: resultDigest(r.result)}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// sweepDecomp is one spec's decomposed plain simulation.
type sweepDecomp struct {
	model          config.Model
	setup, runT    time.Duration
	issued, cycles uint64
}

// layers runs every distinct spec of the traced phase again, serially,
// decomposed into the calls harness.simulate composes, and checks that the
// decomposition reproduces each harness.Result exactly.
func (w *sweepWorkload) layers(p *phaseResult, tr *tracer, l layerValues) error {
	w.mu.Lock()
	bySpec := map[string]*sweepRun{}
	for i := range p.ops {
		if r := w.runs[p.ops[i].id]; r.result != nil {
			bySpec[r.key] = r
		}
	}
	w.mu.Unlock()
	keys := make([]string, 0, len(bySpec))
	for k := range bySpec {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	dec := map[string]*sweepDecomp{}
	coeff := energy.Default45nm()
	var mismatches []string
	for _, k := range keys {
		r := bySpec[k]
		id := nextOpID()
		root := tr.begin("decompose.sim", id, 0)
		bm, err := bench.ByAbbr(r.abbr)
		if err != nil {
			return err
		}
		var g *gpu.GPU
		tr.call("gpu.New", id, root, func() { g, err = gpu.New(r.cfg) })
		if err != nil {
			return err
		}
		g.SetParallel(false)
		g.SetEventDriven(true)
		var wl *bench.Workload
		ds := tr.call("bench.Setup", id, root, func() { wl, err = bm.Setup(g) })
		if err != nil {
			return err
		}
		var cycles uint64
		dr := tr.call("Workload.Run", id, root, func() { cycles, err = wl.Run(g) })
		if err != nil {
			return err
		}
		st := g.Stats()
		got := harness.Result{Bench: r.abbr, Model: r.model, Cycles: cycles, Stats: st, Energy: energy.Model(&coeff, &st, r.cfg.NumSMs)}
		tr.end(root)
		if !reflect.DeepEqual(&got, r.result) {
			mismatches = append(mismatches, k)
		}
		dec[k] = &sweepDecomp{model: r.model, setup: ds, runT: dr, issued: st.Issued, cycles: cycles}
	}
	if len(mismatches) > 0 {
		return fmt.Errorf("decomposed simulation differs from harness.Execute for %d specs, first %s", len(mismatches), mismatches[0])
	}

	var run, setup, rlpv, base time.Duration
	var issued, cycles uint64
	for _, d := range dec {
		run += d.runT
		setup += d.setup
		issued += d.issued
		cycles += d.cycles
		switch d.model {
		case config.RLPV:
			rlpv += d.runT
		case config.Base:
			base += d.runT
		}
	}
	var opTime, opSetup time.Duration
	w.mu.Lock()
	for i := range p.ops {
		opTime += p.ops[i].dur
		if d := dec[w.runs[p.ops[i].id].key]; d != nil {
			opSetup += d.setup
		}
	}
	w.mu.Unlock()
	l["harness.fresh_sims"] = float64(len(p.ops))
	l["harness.pool_busy_ratio"] = ratio(opTime.Seconds(), float64(w.width)*p.wall.Seconds())
	l["bench.setup_ms"] = ms(setup) / float64(len(dec))
	l["bench.setup_share"] = ratio(opSetup.Seconds(), opTime.Seconds())
	l["gpu.run_s"] = run.Seconds()
	l["gpu.winst_per_s"] = ratio(float64(issued), run.Seconds())
	l["gpu.warp_instrs"] = float64(issued)
	l["gpu.sim_cycles"] = float64(cycles)
	l["core.host_cost_ratio"] = ratio(rlpv.Seconds(), base.Seconds())
	return nil
}

func (w *sweepWorkload) storeBytes() int64 { return 0 }
func (w *sweepWorkload) close()            {}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
