package harness

import (
	"fmt"
	"io"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/profile"
	"github.com/wirsim/wir/internal/stats"
)

// --- Figure 2: repeated warp computations ---

// Fig2Row is one benchmark's repetition profile.
type Fig2Row struct {
	Bench      string
	Repeated   float64 // fraction of computations repeated within 1K window
	Repeated10 float64 // fraction repeated at least 10 times
}

// Fig2Result reproduces Figure 2.
type Fig2Result struct {
	Rows          []Fig2Row
	AvgRepeated   float64 // paper: 31.4%
	AvgRepeated10 float64 // paper: 16.0%
}

// Fig2 profiles every benchmark on the baseline machine with the
// 1K-instruction sliding window, once per harness: the profiles are not
// Results, so the run memo cannot hold them, and later calls return the
// first call's answer.
func (h *Harness) Fig2() (*Fig2Result, error) {
	h.fig2.once.Do(func() { h.fig2.r, h.fig2.err = h.profileFig2() })
	return h.fig2.r, h.fig2.err
}

// profileFig2 computes Fig2. Each benchmark builds its own GPU and profile,
// so the runs fan out over the worker pool; the rows slice keeps Table-I
// order regardless of completion order.
func (h *Harness) profileFig2() (*Fig2Result, error) {
	abbrs := Benchmarks()
	rows := make([]Fig2Row, len(abbrs))
	err := h.parallelMap(len(abbrs), func(i int) error {
		abbr := abbrs[i]
		bm, err := bench.ByAbbr(abbr)
		if err != nil {
			return err
		}
		cfg := config.Default(config.Base)
		if h.SMs > 0 {
			cfg.NumSMs = h.SMs
		}
		g, err := gpu.New(cfg)
		if err != nil {
			return err
		}
		p := profile.New()
		g.SetProfileHook(p.Observe)
		w, err := bm.Setup(g)
		if err != nil {
			return err
		}
		if _, err := w.Run(g); err != nil {
			return fmt.Errorf("fig2 %s: %w", abbr, err)
		}
		rows[i] = Fig2Row{Bench: abbr, Repeated: p.RepeatedRate(), Repeated10: p.Repeated10Rate()}
		if h.Progress != nil {
			h.mu.Lock()
			h.Progress(fmt.Sprintf("profiled %-3s repeated=%.1f%%", abbr, 100*rows[i].Repeated))
			h.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{Rows: rows}
	var reps, reps10 []float64
	for _, row := range rows {
		reps = append(reps, row.Repeated)
		reps10 = append(reps10, row.Repeated10)
	}
	out.AvgRepeated = Mean(reps)
	out.AvgRepeated10 = Mean(reps10)
	return out, nil
}

// WriteText renders the figure as a table.
func (r *Fig2Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 2: repeated computations per 1K-instruction window\n")
	fmt.Fprintf(w, "%-4s %10s %14s\n", "App", "repeated", "repeated>=10x")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-4s %9.1f%% %13.1f%%\n", row.Bench, 100*row.Repeated, 100*row.Repeated10)
	}
	fmt.Fprintf(w, "%-4s %9.1f%% %13.1f%%   (paper: 31.4%% / 16.0%%)\n", "AVG", 100*r.AvgRepeated, 100*r.AvgRepeated10)
}

// --- Figure 12: backend-processed instructions ---

// Fig12Row compares backend instruction counts between RLPV and Base.
type Fig12Row struct {
	Bench     string
	Relative  float64 // (backend + dummy MOVs) under RLPV / backend under Base
	DummyFrac float64 // dummy MOVs / issued instructions under RLPV
}

// Fig12Result reproduces Figure 12.
type Fig12Result struct {
	Rows         []Fig12Row
	AvgRelative  float64 // paper: ~81.3% (18.7% bypassed)
	AvgDummyFrac float64 // paper: 1.6%
}

// Fig12 measures the fraction of warp instructions still processed by the
// backend under the full RLPV design.
func (h *Harness) Fig12() (*Fig12Result, error) {
	h.prewarm(suiteJobs(config.Base, config.RLPV))
	out := &Fig12Result{}
	var rels, dums []float64
	for _, abbr := range Benchmarks() {
		base, err := h.Run(abbr, config.Base, nil)
		if err != nil {
			return nil, err
		}
		rlpv, err := h.Run(abbr, config.RLPV, nil)
		if err != nil {
			return nil, err
		}
		rel := stats.Ratio(rlpv.Stats.Backend+rlpv.Stats.DummyMovs, base.Stats.Backend)
		dum := stats.Ratio(rlpv.Stats.DummyMovs, rlpv.Stats.Issued)
		out.Rows = append(out.Rows, Fig12Row{Bench: abbr, Relative: rel, DummyFrac: dum})
		rels = append(rels, rel)
		dums = append(dums, dum)
	}
	out.AvgRelative = Mean(rels)
	out.AvgDummyFrac = Mean(dums)
	return out, nil
}

// WriteText renders the figure.
func (r *Fig12Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 12: backend-processed instructions, RLPV relative to Base\n")
	fmt.Fprintf(w, "%-4s %10s %10s\n", "App", "relative", "dummyMOV")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-4s %9.1f%% %9.2f%%\n", row.Bench, 100*row.Relative, 100*row.DummyFrac)
	}
	fmt.Fprintf(w, "%-4s %9.1f%% %9.2f%%   (paper: 18.7%% bypassed, 1.6%% dummy)\n",
		"AVG", 100*r.AvgRelative, 100*r.AvgDummyFrac)
}

// --- Figure 13: backend operation counts by model ---

// Fig13Models are the machine models compared in Figure 13.
var Fig13Models = []config.Model{config.NoVSB, config.Affine, config.RPV, config.RLPV, config.RLPVc}

// Fig13Result reproduces Figure 13: relative backend operation counts (SP,
// SFU and memory pipeline activations) per model, averaged over the suite.
type Fig13Result struct {
	Models []config.Model
	// Avg[m] = suite-average total backend ops relative to Base.
	Avg map[config.Model]float64
	// MemAvg[m] = suite-average memory-pipeline activations relative to Base.
	MemAvg map[config.Model]float64
	// Rows[b][m] = per-benchmark relative backend ops.
	Rows map[string]map[config.Model]float64
}

// Fig13 compares how many backend operations each design still executes.
func (h *Harness) Fig13() (*Fig13Result, error) {
	h.prewarm(suiteJobs(append([]config.Model{config.Base}, Fig13Models...)...))
	out := &Fig13Result{
		Models: Fig13Models,
		Avg:    map[config.Model]float64{},
		MemAvg: map[config.Model]float64{},
		Rows:   map[string]map[config.Model]float64{},
	}
	acc := map[config.Model][]float64{}
	accMem := map[config.Model][]float64{}
	for _, abbr := range Benchmarks() {
		base, err := h.Run(abbr, config.Base, nil)
		if err != nil {
			return nil, err
		}
		bops := base.Stats.SPOps + base.Stats.SFUOps + base.Stats.MemOps
		out.Rows[abbr] = map[config.Model]float64{}
		for _, m := range Fig13Models {
			r, err := h.Run(abbr, m, nil)
			if err != nil {
				return nil, err
			}
			ops := r.Stats.SPOps + r.Stats.SFUOps + r.Stats.MemOps + r.Stats.DummyMovs
			rel := stats.Ratio(ops, bops)
			out.Rows[abbr][m] = rel
			acc[m] = append(acc[m], rel)
			accMem[m] = append(accMem[m], stats.Ratio(r.Stats.MemOps, base.Stats.MemOps))
		}
	}
	for _, m := range Fig13Models {
		out.Avg[m] = Mean(acc[m])
		out.MemAvg[m] = Mean(accMem[m])
	}
	return out, nil
}

// WriteText renders the figure.
func (r *Fig13Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 13: relative backend operations executed (Base = 100%%)\n")
	fmt.Fprintf(w, "%-12s %10s %10s\n", "Model", "all ops", "mem pipe")
	for _, m := range r.Models {
		fmt.Fprintf(w, "%-12s %9.1f%% %9.1f%%\n", m, 100*r.Avg[m], 100*r.MemAvg[m])
	}
	fmt.Fprintf(w, "(paper: NoVSB bypasses <2%%; RLPV cuts up to 32.4%% of memory pipeline vs RPV)\n")
}

// --- Figure 14: GPU energy ---

// Fig14Models are the designs whose whole-GPU energy Figure 14 breaks down.
var Fig14Models = []config.Model{config.Base, config.RPV, config.RLPV}

// Fig14Row is one benchmark's relative GPU energy per model.
type Fig14Row struct {
	Bench string
	Rel   map[config.Model]float64
}

// Fig14Result reproduces Figure 14.
type Fig14Result struct {
	Rows []Fig14Row
	Avg  map[config.Model]float64 // paper: RPV 92.4%, RLPV 89.3% of Base
	// Breakdown fractions of Base energy by component (suite average).
	BaseBreakdown map[string]float64
}

// Fig14 measures whole-GPU energy for Base, RPV and RLPV.
func (h *Harness) Fig14() (*Fig14Result, error) {
	h.prewarm(suiteJobs(Fig14Models...))
	out := &Fig14Result{Avg: map[config.Model]float64{}, BaseBreakdown: map[string]float64{}}
	acc := map[config.Model][]float64{}
	for _, abbr := range Benchmarks() {
		base, err := h.Run(abbr, config.Base, nil)
		if err != nil {
			return nil, err
		}
		row := Fig14Row{Bench: abbr, Rel: map[config.Model]float64{}}
		for _, m := range Fig14Models {
			r, err := h.Run(abbr, m, nil)
			if err != nil {
				return nil, err
			}
			rel := r.Energy.Total() / base.Energy.Total()
			row.Rel[m] = rel
			acc[m] = append(acc[m], rel)
		}
		out.Rows = append(out.Rows, row)
		tot := base.Energy.Total()
		out.BaseBreakdown["frontend"] += base.Energy.Frontend / tot
		out.BaseBreakdown["regfile"] += base.Energy.RegFile / tot
		out.BaseBreakdown["fu"] += base.Energy.FU / tot
		out.BaseBreakdown["l1"] += base.Energy.L1 / tot
		out.BaseBreakdown["sm-static"] += base.Energy.SMStatic / tot
		out.BaseBreakdown["l2"] += base.Energy.L2 / tot
		out.BaseBreakdown["noc"] += base.Energy.NoC / tot
		out.BaseBreakdown["dram"] += base.Energy.DRAM / tot
		out.BaseBreakdown["chip-static"] += base.Energy.Chip / tot
	}
	for _, m := range Fig14Models {
		out.Avg[m] = Mean(acc[m])
	}
	n := float64(len(out.Rows))
	for k := range out.BaseBreakdown {
		out.BaseBreakdown[k] /= n
	}
	return out, nil
}

// WriteText renders the figure.
func (r *Fig14Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 14: GPU energy relative to Base (a=Base b=RPV c=RLPV)\n")
	fmt.Fprintf(w, "%-4s %8s %8s\n", "App", "RPV", "RLPV")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-4s %7.1f%% %7.1f%%\n", row.Bench, 100*row.Rel[config.RPV], 100*row.Rel[config.RLPV])
	}
	fmt.Fprintf(w, "%-4s %7.1f%% %7.1f%%   (paper: 92.4%% / 89.3%%)\n",
		"AVG", 100*r.Avg[config.RPV], 100*r.Avg[config.RLPV])
	fmt.Fprintf(w, "Base energy composition (suite average):\n")
	for _, k := range sortedKeys(r.BaseBreakdown) {
		fmt.Fprintf(w, "  %-12s %5.1f%%\n", k, 100*r.BaseBreakdown[k])
	}
}

// --- Figure 15: L1 accesses ---

// Fig15Row is one benchmark's L1 data-cache traffic under Base and RLPV.
type Fig15Row struct {
	Bench                string
	BaseHits, BaseMisses uint64
	RHits, RMisses       uint64
	RelAccesses          float64 // RLPV accesses / Base accesses
	RelMisses            float64
}

// Fig15Result reproduces Figure 15.
type Fig15Result struct {
	Rows []Fig15Row
	Avg  Fig15Row // suite-wide totals
}

// Fig15 compares L1 access and miss counts for the load-reuse-sensitive
// benchmarks (plus the suite average).
func (h *Harness) Fig15() (*Fig15Result, error) {
	h.prewarm(suiteJobs(config.Base, config.RLPV))
	out := &Fig15Result{}
	var tb, tr stats.Sim
	for _, abbr := range Benchmarks() {
		base, err := h.Run(abbr, config.Base, nil)
		if err != nil {
			return nil, err
		}
		rlpv, err := h.Run(abbr, config.RLPV, nil)
		if err != nil {
			return nil, err
		}
		tb.Add(&base.Stats)
		tr.Add(&rlpv.Stats)
		for _, sel := range Fig15Benchmarks {
			if sel == abbr {
				out.Rows = append(out.Rows, fig15Row(abbr, &base.Stats, &rlpv.Stats))
			}
		}
	}
	out.Avg = fig15Row("AVG", &tb, &tr)
	return out, nil
}

func fig15Row(name string, b, r *stats.Sim) Fig15Row {
	return Fig15Row{
		Bench:    name,
		BaseHits: b.L1DHits, BaseMisses: b.L1DMisses,
		RHits: r.L1DHits, RMisses: r.L1DMisses,
		RelAccesses: stats.Ratio(r.L1DAccesses, b.L1DAccesses),
		RelMisses:   stats.Ratio(r.L1DMisses, b.L1DMisses),
	}
}

// WriteText renders the figure.
func (r *Fig15Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 15: L1 data cache accesses, Base (a) vs RLPV (b)\n")
	fmt.Fprintf(w, "%-4s %12s %12s %12s %12s %9s %9s\n", "App", "base hits", "base miss", "rlpv hits", "rlpv miss", "rel acc", "rel miss")
	for _, row := range append(r.Rows, r.Avg) {
		fmt.Fprintf(w, "%-4s %12d %12d %12d %12d %8.1f%% %8.1f%%\n",
			row.Bench, row.BaseHits, row.BaseMisses, row.RHits, row.RMisses,
			100*row.RelAccesses, 100*row.RelMisses)
	}
	fmt.Fprintf(w, "(paper: LK misses drop 61.5%%; SF/BT/HS/S2 drop substantially; KM can increase)\n")
}

// --- Figure 16: SM energy ---

// Fig16Models are the designs compared on SM energy in Figure 16.
var Fig16Models = []config.Model{config.NoVSB, config.Affine, config.RPV, config.RLPV, config.RLPVc, config.AffineRLPV}

// Fig16Result reproduces Figure 16.
type Fig16Result struct {
	Models []config.Model
	Avg    map[config.Model]float64 // paper: RLPV 79.5%, Affine 86.4%, Affine+RLPV 72.1%
	Rows   map[string]map[config.Model]float64
}

// Fig16 measures SM-scope energy per design relative to Base.
func (h *Harness) Fig16() (*Fig16Result, error) {
	h.prewarm(suiteJobs(append([]config.Model{config.Base}, Fig16Models...)...))
	out := &Fig16Result{Models: Fig16Models, Avg: map[config.Model]float64{}, Rows: map[string]map[config.Model]float64{}}
	acc := map[config.Model][]float64{}
	for _, abbr := range Benchmarks() {
		base, err := h.Run(abbr, config.Base, nil)
		if err != nil {
			return nil, err
		}
		out.Rows[abbr] = map[config.Model]float64{}
		for _, m := range Fig16Models {
			r, err := h.Run(abbr, m, nil)
			if err != nil {
				return nil, err
			}
			rel := r.Energy.SM() / base.Energy.SM()
			out.Rows[abbr][m] = rel
			acc[m] = append(acc[m], rel)
		}
	}
	for _, m := range Fig16Models {
		out.Avg[m] = Mean(acc[m])
	}
	return out, nil
}

// WriteText renders the figure.
func (r *Fig16Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 16: SM energy relative to Base\n")
	for _, m := range r.Models {
		fmt.Fprintf(w, "%-12s %7.1f%%\n", m, 100*r.Avg[m])
	}
	fmt.Fprintf(w, "(paper: RLPV saves 20.5%%, Affine 13.6%%, Affine+RLPV 27.9%%)\n")
}

// --- Figure 17: speedup ---

// Fig17Models are the incremental reuse designs of Figure 17.
var Fig17Models = []config.Model{config.R, config.RL, config.RLP, config.RLPV}

// Fig17Result reproduces Figure 17.
type Fig17Result struct {
	Models []config.Model
	Rows   map[string]map[config.Model]float64 // speedup vs Base
	GMean  map[config.Model]float64
}

// Fig17 measures speedups of the four incremental designs over Base.
func (h *Harness) Fig17() (*Fig17Result, error) {
	h.prewarm(suiteJobs(append([]config.Model{config.Base}, Fig17Models...)...))
	out := &Fig17Result{Models: Fig17Models, Rows: map[string]map[config.Model]float64{}, GMean: map[config.Model]float64{}}
	acc := map[config.Model][]float64{}
	for _, abbr := range Benchmarks() {
		base, err := h.Run(abbr, config.Base, nil)
		if err != nil {
			return nil, err
		}
		out.Rows[abbr] = map[config.Model]float64{}
		for _, m := range Fig17Models {
			r, err := h.Run(abbr, m, nil)
			if err != nil {
				return nil, err
			}
			sp := float64(base.Cycles) / float64(r.Cycles)
			out.Rows[abbr][m] = sp
			acc[m] = append(acc[m], sp)
		}
	}
	for _, m := range Fig17Models {
		out.GMean[m] = GeoMean(acc[m])
	}
	return out, nil
}

// WriteText renders the figure.
func (r *Fig17Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 17: speedup relative to Base\n")
	fmt.Fprintf(w, "%-4s", "App")
	for _, m := range r.Models {
		fmt.Fprintf(w, " %8s", m)
	}
	fmt.Fprintln(w)
	for _, abbr := range Benchmarks() {
		row, ok := r.Rows[abbr]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-4s", abbr)
		for _, m := range r.Models {
			fmt.Fprintf(w, " %8.3f", row[m])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-4s", "GM")
	for _, m := range r.Models {
		fmt.Fprintf(w, " %8.3f", r.GMean[m])
	}
	fmt.Fprintf(w, "   (paper: most within +/-10%%; LK up to 2.03x under RLPV)\n")
}
