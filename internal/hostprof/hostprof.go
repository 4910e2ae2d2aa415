// Package hostprof is the simulator's view of itself: a low-overhead nested
// phase timer and allocation tracker that attributes real wall-time and
// bytes-allocated to the phases of the simulation loop (block dispatch, SM
// stepping, issue, pipeline advance, reuse/VSB lookup, memory-system tick,
// trace/hook delivery, telemetry), plus quiescence telemetry — how many
// (SM, cycle) ticks did no work at all, and how long the quiet streaks run.
//
// Everything the observability stack shipped before this package watches the
// *simulated GPU*; hostprof watches the *simulator*, so the ≥10x serial
// speedup work on the ROADMAP can be steered by data instead of guesses. The
// headline quiescence number — the skip-opportunity fraction — directly
// sizes the payoff of event-driven stepping that skips quiescent SMs.
//
// The collector is attached with gpu.SetHostProf and is disabled by default;
// a simulator without one attached pays only nil checks in each SM tick.
// Attaching one never perturbs simulation state: the collector only reads
// clocks and counters, so outputs are bit-identical with hostprof on or off
// (proven by the conformance test). Each SM has its own accumulator, so the
// report breaks the step phase down per SM.
package hostprof

import (
	"runtime/metrics"
	"time"

	wmetrics "github.com/wirsim/wir/internal/metrics"
)

// Phase identifies one timed region of the simulation loop.
type Phase uint8

const (
	// Driver phases partition the GPU Run loop on the driver goroutine; their
	// self-times sum to the run's wall time.
	PhaseDispatch  Phase = iota // block dispatch over SMs
	PhaseStep                   // SM stepping (includes SM tick time)
	PhaseTelemetry              // sampler, watchdog bookkeeping, hook flush, end-of-launch work

	// SM phases break the stepping time down inside each SM's Tick.
	PhaseSMRegfile // register-file cycle begin + dummy-MOV bank arbitration
	PhaseSMExecute // pipeline advance across in-flight instructions (self time)
	PhaseSMReuse   // reuse-buffer/VSB lookup and pending-retry processing
	PhaseSMMem     // memory-system accesses (coalesced line injection)
	PhaseSMIssue   // scheduler fetch/issue, functional execution at issue
	PhaseSMHooks   // trace-event emission and retire/block-done hook delivery
	PhaseSMOther   // utilization sampling and per-tick leftovers

	NumPhases = int(PhaseSMOther) + 1
)

var phaseNames = [NumPhases]string{
	"dispatch", "step", "telemetry",
	"sm/regfile", "sm/execute", "sm/reuse", "sm/mem", "sm/issue", "sm/hooks", "sm/other",
}

// String returns the phase's report name.
func (p Phase) String() string { return phaseNames[p] }

// Parent returns the phase one level up in the static nesting used by the
// pprof export (PhaseDispatch's parent is the synthetic root "run").
func (p Phase) Parent() (Phase, bool) {
	switch p {
	case PhaseSMReuse, PhaseSMMem:
		return PhaseSMExecute, true
	case PhaseSMRegfile, PhaseSMExecute, PhaseSMIssue, PhaseSMHooks, PhaseSMOther:
		return PhaseStep, true
	default:
		return 0, false
	}
}

// epoch anchors the package's monotonic nanosecond clock.
var epoch = time.Now()

// nowNS reads the monotonic clock. One read is a vDSO call (~tens of ns),
// which bounds the profiler's overhead at a handful of reads per SM tick.
// Tests replace it with a clock that moves only when they step it.
var nowNS = func() int64 { return int64(time.Since(epoch)) }

// maxNest bounds the nested-timer depth: a lap region (depth 0) may contain a
// reuse or memory span, which may itself contain a hook span.
const maxNest = 4

// SMProf accumulates one SM's phase timings and quiescence counters. It is
// written only from that SM's Tick; the collector sums SMs at report time,
// after the run.
type SMProf struct {
	last  int64            // mark: end of the previous lap segment
	child [maxNest]int64   // nested time accumulated per open depth
	depth int              // current nesting depth (0 = lap level)
	wall  [NumPhases]int64 // self wall-time per phase, nanoseconds
	count [NumPhases]uint64

	// Quiescence counters. A tick is quiet when the SM did no work: nothing
	// issued, no in-flight instruction could advance or inject memory lines,
	// no dummy-MOV or pending-retry traffic. Idle ticks (no resident work at
	// all) are the subset event-driven stepping could skip for free.
	Ticks uint64
	Quiet uint64
	Idle  uint64

	streak  uint64              // length of the quiet streak in progress
	Streaks *wmetrics.Histogram // log2 run-length histogram of quiet streaks

	// Per-warp-slot occupancy: cycles the slot held a live warp, and cycles
	// that warp had instructions in flight.
	WarpResident []uint64
	WarpBusy     []uint64
}

// NewSMProf returns an accumulator for one SM with warpsPerSM warp slots.
func NewSMProf(warpsPerSM int) *SMProf {
	return &SMProf{
		Streaks:      wmetrics.NewHistogram(),
		WarpResident: make([]uint64, warpsPerSM),
		WarpBusy:     make([]uint64, warpsPerSM),
	}
}

// The four timer methods below are safe on a nil receiver and inline into
// their callers (Lap and Close through an outlined body), so an SM tick
// without a profiler pays only their nil checks.

// BeginTick marks the start of one SM tick's lap sequence.
func (p *SMProf) BeginTick() {
	if p == nil {
		return
	}
	p.last = nowNS()
	p.child[0] = 0
	p.depth = 0
}

// Lap charges the time since the previous mark — minus any nested spans
// closed within it — to ph as self time, and advances the mark.
func (p *SMProf) Lap(ph Phase) {
	if p != nil {
		p.lap(ph)
	}
}

func (p *SMProf) lap(ph Phase) {
	n := nowNS()
	p.wall[ph] += n - p.last - p.child[0]
	p.child[0] = 0
	p.count[ph]++
	p.last = n
}

// Open starts a nested span inside the current lap segment (or inside
// another span) and returns its start mark for Close.
func (p *SMProf) Open() int64 {
	if p == nil {
		return 0
	}
	p.depth++
	p.child[p.depth] = 0
	return nowNS()
}

// Close ends a nested span started by Open, charging its self time (span
// minus its own children) to ph and accumulating the whole span into the
// enclosing level so the parent's Lap or Close subtracts it exactly once.
func (p *SMProf) Close(ph Phase, t0 int64) {
	if p != nil {
		p.close(ph, t0)
	}
}

func (p *SMProf) close(ph Phase, t0 int64) {
	d := nowNS() - t0
	p.wall[ph] += d - p.child[p.depth]
	p.count[ph]++
	p.depth--
	p.child[p.depth] += d
}

// ObserveTick classifies the tick just completed. active means the SM did
// any work this tick; idle means it had no resident blocks or in-flight work
// at all.
func (p *SMProf) ObserveTick(active, idle bool) {
	p.Ticks++
	if idle {
		p.Idle++
	}
	if !active {
		p.Quiet++
		p.streak++
		return
	}
	if p.streak > 0 {
		p.Streaks.Observe(p.streak)
		p.streak = 0
	}
}

// ObserveSkippedTicks records n consecutive ticks the event-driven stepper
// skipped. A skipped tick is by construction quiet (the SM was proven to
// have no work), so the skip-opportunity fraction stays reconciled with
// dense stepping: the report counts the skipped cycles exactly as it would
// have counted them had they been ticked.
func (p *SMProf) ObserveSkippedTicks(n uint64, idle bool) {
	p.Ticks += n
	p.Quiet += n
	p.streak += n
	if idle {
		p.Idle += n
	}
}

// FlushStreak closes a quiet streak still in progress so the run-length
// histogram covers the whole run. Called at report time.
func (p *SMProf) FlushStreak() {
	if p.streak > 0 {
		p.Streaks.Observe(p.streak)
		p.streak = 0
	}
}

// WallNS returns the accumulated self wall-time of ph in nanoseconds.
func (p *SMProf) WallNS(ph Phase) int64 { return p.wall[ph] }

// CountOf returns how many times ph was charged.
func (p *SMProf) CountOf(ph Phase) uint64 { return p.count[ph] }

// heapAllocsMetric is the runtime's cumulative heap allocation counter; a
// single-sample Read is cheap enough to take at driver-phase boundaries.
const heapAllocsMetric = "/gc/heap/allocs:bytes"

// Collector gathers one GPU's host profile: the driver-loop phase accounting
// (with allocation deltas) plus one SMProf per SM. Driver methods run from
// the Run loop; each SM accumulator only from its SM's Tick.
type Collector struct {
	sms []*SMProf

	dlast  int64
	dwall  [NumPhases]int64
	dcount [NumPhases]uint64
	dalloc [NumPhases]uint64

	allocLast uint64
	allocSamp []metrics.Sample

	runStart int64
	runNS    int64
	runs     uint64
}

// NewCollector returns a collector for numSMs SMs with warpsPerSM warp slots
// each.
func NewCollector(numSMs, warpsPerSM int) *Collector {
	c := &Collector{
		sms:       make([]*SMProf, numSMs),
		allocSamp: []metrics.Sample{{Name: heapAllocsMetric}},
	}
	for i := range c.sms {
		c.sms[i] = NewSMProf(warpsPerSM)
	}
	return c
}

// SM returns SM i's accumulator.
func (c *Collector) SM(i int) *SMProf { return c.sms[i] }

// NumSMs returns how many per-SM accumulators the collector holds.
func (c *Collector) NumSMs() int { return len(c.sms) }

func (c *Collector) readAlloc() uint64 {
	metrics.Read(c.allocSamp)
	return c.allocSamp[0].Value.Uint64()
}

// RunBegin marks the start of one gpu.Run's driver loop.
func (c *Collector) RunBegin() {
	c.runStart = nowNS()
	c.dlast = c.runStart
	c.allocLast = c.readAlloc()
}

// DriverLap charges the wall time and heap bytes allocated since the
// previous driver mark to ph.
func (c *Collector) DriverLap(ph Phase) {
	n := nowNS()
	a := c.readAlloc()
	c.dwall[ph] += n - c.dlast
	if a > c.allocLast { // the counter is cumulative, but guard regardless
		c.dalloc[ph] += a - c.allocLast
	}
	c.dcount[ph]++
	c.dlast = n
	c.allocLast = a
}

// RunEnd closes the driver-loop accounting for one gpu.Run.
func (c *Collector) RunEnd() {
	c.runNS += nowNS() - c.runStart
	c.runs++
}

// DriverWallNS returns the accumulated driver self wall-time of ph.
func (c *Collector) DriverWallNS(ph Phase) int64 { return c.dwall[ph] }

// DriverAllocBytes returns the heap bytes attributed to driver phase ph.
func (c *Collector) DriverAllocBytes(ph Phase) uint64 { return c.dalloc[ph] }

// RunWallNS returns the total wall time spent inside gpu.Run loops.
func (c *Collector) RunWallNS() int64 { return c.runNS }

// Runs returns how many gpu.Run calls the collector observed.
func (c *Collector) Runs() uint64 { return c.runs }
