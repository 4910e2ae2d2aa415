// Package attr attributes simulator activity to static instructions: every
// counter the aggregate stats layer keeps per run, this layer keeps per
// (kernel, SM, PC) — issues, reuse-buffer hits and misses, bypasses, VSB
// false positives, dummy MOVs, bank retries, issue-to-retire cycles, an
// energy estimate, and the issue-stall cycles blamed on the blocking
// producer's PC via the metrics stall taxonomy. The SM and core hot paths
// feed it the same way they feed internal/metrics: nil-safely, behind a
// single pointer test, so uninstrumented runs pay nothing.
//
// The collected tables export three ways: a pprof profile (pprof.go) whose
// functions are kernels and whose lines are PCs, a ranked hotspot table
// (Hotspots/WriteHotspots, surfaced by `wirsim -hotspots` and the
// `-stats json` report), and direct access for tests that reconcile per-PC
// sums against the aggregate counters.
package attr

import (
	"fmt"
	"io"
	"sort"

	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/metrics"
)

// PCStats accumulates the activity of one static instruction on one SM.
// The simulator is single-goroutine (SMs tick sequentially), so plain
// fields suffice. The Inc* methods are nil-safe so the core engine can call
// them straight off a Flight whose attribution record may be absent.
type PCStats struct {
	Issued      uint64 // warp instructions issued from this PC
	Bypassed    uint64 // retired via reuse bypass (no backend execution)
	ReuseHits   uint64 // reuse-buffer result hits (incl. pending-retry hits)
	ReuseMisses uint64 // reuse-buffer misses
	VSBFalsePos uint64 // VSB hash hits refuted by the verify-read
	DummyMovs   uint64 // divergence dummy MOVs injected on behalf of this PC
	BankRetries uint64 // register-bank conflict retries (operand, verify, write, dummy)
	Cycles      uint64 // summed issue-to-retire latency of flights from this PC
	EnergyPJ    float64
	// Stalls are scheduler-slot stall cycles blamed on this PC as the
	// blocking producer (the oldest in-flight instruction of the stalled
	// warp).
	Stalls metrics.StallCounts
}

// IncReuseHit records a reuse-buffer result hit. Safe on a nil receiver.
func (p *PCStats) IncReuseHit() {
	if p != nil {
		p.ReuseHits++
	}
}

// IncReuseMiss records a reuse-buffer miss. Safe on a nil receiver.
func (p *PCStats) IncReuseMiss() {
	if p != nil {
		p.ReuseMisses++
	}
}

// IncVSBFalsePos records a VSB verify-read false positive. Safe on a nil
// receiver.
func (p *PCStats) IncVSBFalsePos() {
	if p != nil {
		p.VSBFalsePos++
	}
}

// AddStall blames n scheduler-slot stall cycles on this PC. Safe on a nil
// receiver.
func (p *PCStats) AddStall(r metrics.StallReason, n uint64) {
	if p != nil {
		p.Stalls[r] += n
	}
}

func (p *PCStats) add(o *PCStats) {
	p.Issued += o.Issued
	p.Bypassed += o.Bypassed
	p.ReuseHits += o.ReuseHits
	p.ReuseMisses += o.ReuseMisses
	p.VSBFalsePos += o.VSBFalsePos
	p.DummyMovs += o.DummyMovs
	p.BankRetries += o.BankRetries
	p.Cycles += o.Cycles
	p.EnergyPJ += o.EnergyPJ
	p.Stalls.Add(&o.Stalls)
}

// active reports whether any activity was recorded at this PC.
func (p *PCStats) active() bool {
	return p.Issued != 0 || p.DummyMovs != 0 || p.BankRetries != 0 ||
		p.Cycles != 0 || p.Stalls.Total() != 0
}

// Table holds the per-PC records of one kernel on one SM. PCs is indexed by
// program counter and sized to the kernel's code, so the SM resolves a
// record with one bounds-checked index at issue and carries the pointer on
// the Flight for the rest of the pipeline.
type Table struct {
	Kernel *kasm.Kernel
	SM     int
	PCs    []PCStats
}

// At returns the record for pc.
func (t *Table) At(pc int) *PCStats { return &t.PCs[pc] }

type tableKey struct {
	kernel *kasm.Kernel
	sm     int
}

// Collector owns every attribution table of a run plus the energy
// coefficients the SMs use for the per-PC estimate. Attach it with
// GPU.SetAttribution before the first Run so stall blame covers the whole
// run.
type Collector struct {
	// Cost prices the per-PC energy estimate. NewCollector seeds it with the
	// default 45nm set; override before running to match a custom model.
	Cost energy.Coefficients

	tables []*Table
	index  map[tableKey]*Table

	// unattributed collects stall cycles with no blamable producer PC:
	// empty/barrier/pipeline-full slots, and scoreboard hazards held by work
	// outside the flight list. Together with the per-PC stall tables it
	// reconstructs the aggregate StallReport exactly.
	unattributed metrics.StallCounts
}

// NewCollector returns an empty collector priced with the default 45nm
// energy coefficients.
func NewCollector() *Collector {
	return &Collector{
		Cost:  energy.Default45nm(),
		index: make(map[tableKey]*Table),
	}
}

// Table returns (creating on first use) the table for kernel k on SM sm.
func (c *Collector) Table(k *kasm.Kernel, sm int) *Table {
	key := tableKey{k, sm}
	if t, ok := c.index[key]; ok {
		return t
	}
	t := &Table{Kernel: k, SM: sm, PCs: make([]PCStats, len(k.Code))}
	c.index[key] = t
	c.tables = append(c.tables, t)
	return t
}

// NoteUnattributedStall charges n stall cycles that have no producer PC.
func (c *Collector) NoteUnattributedStall(r metrics.StallReason, n uint64) { c.unattributed[r] += n }

// Unattributed returns the stall cycles not blamed on any PC.
func (c *Collector) Unattributed() metrics.StallCounts { return c.unattributed }

// Totals sums every per-PC record across all tables. The result's counters
// reconcile exactly with the matching stats.Sim fields of the run
// (TestAttributionReconciles).
func (c *Collector) Totals() PCStats {
	var out PCStats
	for _, t := range c.tables {
		for i := range t.PCs {
			out.add(&t.PCs[i])
		}
	}
	return out
}

// StallTotals sums per-PC stall blame plus the unattributed remainder; it
// equals the aggregate StallReport's per-reason counts exactly.
func (c *Collector) StallTotals() metrics.StallCounts {
	out := c.unattributed
	for _, t := range c.tables {
		for i := range t.PCs {
			out.Add(&t.PCs[i].Stalls)
		}
	}
	return out
}

// Hotspots merges the tables across SMs by (kernel, PC) and returns the top
// n records ranked by attributed cycles (stall blame breaking ties), each
// annotated with the instruction's disassembly. n <= 0 returns all.
func (c *Collector) Hotspots(n int) []metrics.Hotspot {
	type key struct {
		kernel string
		pc     int
	}
	merged := make(map[key]*metrics.Hotspot)
	var order []key
	for _, t := range c.tables {
		for pc := range t.PCs {
			r := &t.PCs[pc]
			if !r.active() {
				continue
			}
			k := key{t.Kernel.Name, pc}
			h, ok := merged[k]
			if !ok {
				h = &metrics.Hotspot{Kernel: t.Kernel.Name, PC: pc, Op: t.Kernel.Disasm(pc)}
				merged[k] = h
				order = append(order, k)
			}
			h.Issued += r.Issued
			h.Bypassed += r.Bypassed
			h.ReuseHits += r.ReuseHits
			h.ReuseMisses += r.ReuseMisses
			h.VSBFalsePos += r.VSBFalsePos
			h.DummyMovs += r.DummyMovs
			h.BankRetries += r.BankRetries
			h.Cycles += r.Cycles
			h.EnergyPJ += r.EnergyPJ
			h.StallCycles += r.Stalls.Total()
		}
	}
	out := make([]metrics.Hotspot, 0, len(order))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.StallCycles != b.StallCycles {
			return a.StallCycles > b.StallCycles
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.PC < b.PC
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteHotspots renders a hotspot slice as an aligned text table.
func WriteHotspots(w io.Writer, hs []metrics.Hotspot) error {
	if _, err := fmt.Fprintf(w, "%-14s %4s  %-28s %10s %9s %9s %8s %8s %10s %12s\n",
		"kernel", "pc", "instruction", "cycles", "stalls", "issued", "bypass", "retries", "dummies", "energy(pJ)"); err != nil {
		return err
	}
	for _, h := range hs {
		op := h.Op
		if len(op) > 28 {
			op = op[:25] + "..."
		}
		if _, err := fmt.Fprintf(w, "%-14s %4d  %-28s %10d %9d %9d %8d %8d %10d %12.0f\n",
			h.Kernel, h.PC, op, h.Cycles, h.StallCycles, h.Issued, h.Bypassed,
			h.BankRetries, h.DummyMovs, h.EnergyPJ); err != nil {
			return err
		}
	}
	return nil
}
