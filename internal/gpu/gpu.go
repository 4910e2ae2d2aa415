// Package gpu assembles the whole chip: the SMs, the shared memory system,
// and the thread-block dispatcher. It provides the top-level API to set up
// device memory, launch kernels, and collect statistics.
package gpu

import (
	"fmt"

	"github.com/wirsim/wir/internal/attr"
	"github.com/wirsim/wir/internal/chaos"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/hostprof"
	"github.com/wirsim/wir/internal/isa"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/reuseprof"
	"github.com/wirsim/wir/internal/sm"
	"github.com/wirsim/wir/internal/stats"
	"github.com/wirsim/wir/internal/trace"
)

// Launch describes one kernel launch.
type Launch struct {
	Kernel *kasm.Kernel
	GridX  int
	GridY  int
	GridZ  int
	DimX   int // threads per block, x
	DimY   int
	DimZ   int
}

// Blocks returns the total thread blocks in the grid.
func (l *Launch) Blocks() int {
	return l.GridX * maxi(l.GridY, 1) * maxi(l.GridZ, 1)
}

// ThreadsPerBlock returns the block size in threads.
func (l *Launch) ThreadsPerBlock() int {
	return l.DimX * maxi(l.DimY, 1) * maxi(l.DimZ, 1)
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// regHeadroom is the number of physical registers withheld from the occupancy
// calculation (see Occupancy).
const regHeadroom = 33

// GPU is one simulated chip.
type GPU struct {
	cfg    config.Config
	st     stats.Sim // memory-system counters accumulate here directly
	ms     *mem.System
	sms    []*sm.SM
	smStat []*stats.Sim

	cycles   uint64
	launches int

	sampler *metrics.Sampler
	hp      *hostprof.Collector

	launchHook  func(l *Launch, infos []sm.BlockInfo)
	launchAudit bool

	eventDriven bool // quiet-SM skipping + whole-GPU fast-forward (see SetEventDriven)
}

// New builds a GPU for the given configuration.
func New(cfg config.Config) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{cfg: cfg, eventDriven: true}
	g.ms = mem.NewSystem(&g.cfg, &g.st)
	g.sms = make([]*sm.SM, cfg.NumSMs)
	g.smStat = make([]*stats.Sim, cfg.NumSMs)
	for i := range g.sms {
		g.smStat[i] = &stats.Sim{}
		g.sms[i] = sm.New(i, &g.cfg, g.smStat[i], g.ms)
	}
	return g, nil
}

// Mem exposes the memory system for workload setup (allocation, host reads
// and writes, constant/texture segments).
func (g *GPU) Mem() *mem.System { return g.ms }

// SetProfileHook installs a per-instruction observation hook on every SM.
func (g *GPU) SetProfileHook(h sm.ProfileHook) {
	for _, s := range g.sms {
		s.Hook = h
	}
}

// SetTracer attaches a pipeline-event sink to every SM (nil detaches).
func (g *GPU) SetTracer(t trace.Sink) {
	for _, s := range g.sms {
		s.Trace = t
	}
}

// SetLaunchHook installs a hook observing every kernel launch before its
// first block dispatches. The infos slice holds the exact BlockInfo values
// the dispatcher will hand to the SMs, in linear block order — a golden-model
// checker emulates from these so grid decomposition cannot drift between the
// two models.
func (g *GPU) SetLaunchHook(h func(l *Launch, infos []sm.BlockInfo)) {
	g.launchHook = h
}

// SetRetireHook installs a per-retire observation hook on every SM (lockstep
// oracle checking). Nil detaches.
func (g *GPU) SetRetireHook(h sm.RetireHook) {
	for _, s := range g.sms {
		s.Retire = h
	}
}

// SetBlockDoneHook installs a block-completion hook on every SM. Nil
// detaches.
func (g *GPU) SetBlockDoneHook(h sm.BlockDoneHook) {
	for _, s := range g.sms {
		s.BlockDone = h
	}
}

// SetChaos attaches the deterministic fault injector to every SM and the
// memory system (nil detaches). The simulator is single-threaded, so one
// injector shared across SMs draws from one PRNG stream and a fixed seed
// reproduces the same faults.
func (g *GPU) SetChaos(inj *chaos.Injector) {
	for _, s := range g.sms {
		s.SetChaos(inj)
	}
	g.ms.SetChaos(inj)
}

// SetEventDriven enables (or disables) event-driven stepping for subsequent
// Run calls (on by default). Event-driven stepping is bit-identical to dense
// stepping, whatever observers are attached: an SM whose last tick proved it
// inert until a known future cycle is advanced with SkipTicks instead of
// Tick, and when every SM is quiet the whole chip fast-forwards to the next
// scheduled event (earliest SM wake, sampler interval, MSHR fill, or watchdog
// deadline). Dense stepping is the reference the conformance suites compare
// against.
func (g *GPU) SetEventDriven(on bool) { g.eventDriven = on }

// SetParallel does nothing: Run always ticks the SMs serially in index
// order. Independent simulations run in parallel on the harness worker pool
// instead (harness.SetParallelism, wirbench -j).
//
// Deprecated: goroutine-per-SM stepping was removed; drop the call.
func (g *GPU) SetParallel(bool) {}

// SetLaunchAudit enables (or disables) running the structural invariant
// auditors at every kernel-launch boundary, not just when the caller asks at
// end of run. A violation surfaces as an *AuditError from Run, so long
// multi-launch workloads catch a mid-run leak at the boundary that created
// it instead of attributing it to the final kernel.
func (g *GPU) SetLaunchAudit(on bool) { g.launchAudit = on }

// SetInstruments attaches telemetry instruments to every SM, the engines, and
// the memory system (nil detaches). Attach before the first Run so the stall
// attribution partitions every scheduler-slot cycle.
func (g *GPU) SetInstruments(ins *metrics.Instruments) {
	for _, s := range g.sms {
		s.SetInstruments(ins)
	}
}

// SetAttribution attaches a per-PC attribution collector to every SM (nil
// detaches). Attach before the first Run so the per-PC sums reconcile
// exactly with the aggregate counters and the stall blame partitions every
// scheduler-slot cycle. Attribution works with or without instruments.
func (g *GPU) SetAttribution(c *attr.Collector) {
	for _, s := range g.sms {
		s.SetAttribution(c)
	}
}

// NewHostProf builds a host-profile collector sized for this GPU (one SMProf
// per SM). Attach it with SetHostProf.
func (g *GPU) NewHostProf() *hostprof.Collector {
	return hostprof.NewCollector(g.cfg.NumSMs)
}

// SetHostProf attaches (or detaches, with nil) the host-side performance
// profiler: the Run loop records driver-phase wall time, and every SM's Tick
// times its phases. The profiler only reads clocks — simulation outputs are
// bit-identical with or without it. The collector must have at least NumSMs
// per-SM slots; use NewHostProf.
func (g *GPU) SetHostProf(c *hostprof.Collector) {
	g.hp = c
	for i, s := range g.sms {
		if c != nil {
			s.SetHostProf(c.SM(i))
		} else {
			s.SetHostProf(nil)
		}
	}
}

// NewReuseProf builds a reuse-telemetry collector sized for this GPU (one
// SMProf per SM). Attach it with SetReuseProf.
func (g *GPU) NewReuseProf() *reuseprof.Collector {
	return reuseprof.NewCollector(g.cfg.NumSMs)
}

// SetReuseProf attaches (or detaches, with nil) the decision-level reuse/VSB
// profiler: every reuse-buffer lookup outcome is classified into the miss
// taxonomy, evictions feed the lifetime ledger, and infinite-capacity shadow
// tables track achievable reuse. The profiler only observes engine decisions —
// simulation outputs are bit-identical with or without it. The collector must
// have at least NumSMs per-SM slots; use NewReuseProf.
func (g *GPU) SetReuseProf(c *reuseprof.Collector) {
	for i, s := range g.sms {
		if c != nil {
			s.SetReuseProf(c.SM(i))
		} else {
			s.SetReuseProf(nil)
		}
	}
}

// SetSampler attaches an interval sampler; the Run loop feeds it at each
// interval boundary. Nil detaches.
func (g *GPU) SetSampler(sp *metrics.Sampler) {
	g.sampler = sp
	if sp != nil && sp.NumSMs == 0 {
		sp.NumSMs = g.cfg.NumSMs
	}
}

// FlushSampler closes the sampler's final partial interval so the recorded
// time series covers the whole run. Call after the last Run.
func (g *GPU) FlushSampler() {
	if g.sampler != nil {
		g.sampler.Flush(g.cycles, g.Stats())
	}
}

// StallReport aggregates the per-scheduler-slot issue/stall accounting across
// all SMs. Meaningful when instruments were attached before the first Run;
// with none attached, all counts are zero.
func (g *GPU) StallReport() metrics.StallReport {
	var r metrics.StallReport
	r.PerSlot = make([]metrics.StallCounts, g.cfg.SchedulersPerSM)
	for _, s := range g.sms {
		r.SchedSlotCycles += s.Now() * uint64(g.cfg.SchedulersPerSM)
		for _, n := range s.IssuedCycles() {
			r.IssueCycles += n
		}
		for slot, c := range s.StallCounts() {
			r.PerSlot[slot].Add(&c)
			r.Stalls.Add(&c)
		}
	}
	return r
}

// RFConflictCounts sums the per-bank-group failed register-file port claims
// across all SMs.
func (g *GPU) RFConflictCounts() []uint64 {
	out := make([]uint64, g.cfg.RFBankGroups)
	for _, s := range g.sms {
		for i, n := range s.RFConflictCounts() {
			out[i] += n
		}
	}
	return out
}

// Occupancy returns the maximum resident blocks per SM for a launch, limited
// by block slots, warp slots, scratchpad capacity, and the register budget
// (the register file must back one physical register per logical register in
// the conventional mapping; reuse models keep the same occupancy so that
// performance comparisons isolate the reuse effect).
func (g *GPU) Occupancy(l *Launch) (int, error) {
	tpb := l.ThreadsPerBlock()
	if tpb <= 0 || tpb > g.cfg.WarpsPerSM*isa.WarpSize {
		return 0, fmt.Errorf("gpu: block size %d out of range", tpb)
	}
	warpsPerBlock := (tpb + isa.WarpSize - 1) / isa.WarpSize
	blocks := g.cfg.BlocksPerSM
	if b := g.cfg.WarpsPerSM / warpsPerBlock; b < blocks {
		blocks = b
	}
	if l.Kernel.SharedBytes > 0 {
		if b := g.cfg.SharedBytesPerSM / l.Kernel.SharedBytes; b < blocks {
			blocks = b
		}
	}
	if l.Kernel.Regs > 0 {
		// Reserve a small register headroom: reuse models need an in-flight
		// allocation float (a new physical register is taken before the old
		// mapping releases), and the zero register is never handed out. The
		// same budget applies to every model so occupancy — and therefore
		// scheduling behaviour — is identical across comparisons.
		budget := g.cfg.PhysRegsPerSM - regHeadroom
		if b := budget / (warpsPerBlock * l.Kernel.Regs); b < blocks {
			blocks = b
		}
	}
	if blocks <= 0 {
		return 0, fmt.Errorf("gpu: kernel %s does not fit on an SM (warps=%d regs=%d shared=%d)",
			l.Kernel.Name, warpsPerBlock, l.Kernel.Regs, l.Kernel.SharedBytes)
	}
	return blocks, nil
}

// Run executes a kernel launch to completion and returns the number of
// cycles it took. Statistics accumulate across launches; use Stats for the
// merged view.
func (g *GPU) Run(l *Launch) (uint64, error) {
	if _, err := g.Occupancy(l); err != nil {
		return 0, err
	}
	total := l.Blocks()
	next := 0
	start := g.cycles
	g.launches++

	// Materialize every block descriptor upfront: the dispatcher and any
	// launch hook (golden-model oracle) see the identical decomposition.
	infos := make([]sm.BlockInfo, total)
	for i := range infos {
		bx := i % l.GridX
		by := i / l.GridX % maxi(l.GridY, 1)
		bz := i / (l.GridX * maxi(l.GridY, 1))
		infos[i] = sm.BlockInfo{
			Kernel: l.Kernel,
			Launch: g.launches,
			BlockX: bx, BlockY: by, BlockZ: bz,
			GridX: l.GridX, GridY: maxi(l.GridY, 1), GridZ: maxi(l.GridZ, 1),
			DimX: l.DimX, DimY: maxi(l.DimY, 1), DimZ: maxi(l.DimZ, 1),
			Threads: l.ThreadsPerBlock(),
		}
	}
	if g.launchHook != nil {
		g.launchHook(l, infos)
	}

	// The absolute backstop bounds any launch even with the configurable
	// watchdog disabled; the configurable watchdog fires on retire progress,
	// which also catches control-only livelock (control instructions never
	// retire through the backend).
	const watchdogSlack = 50_000_000
	deadline := g.cycles + watchdogSlack
	wd := g.cfg.WatchdogCycles
	lastRetired := g.totalRetired()
	lastProgress := g.cycles
	// Host-profile driver laps: the setup above plus each dispatch sweep is
	// charged to dispatch, the tick sweep to step, and everything else in the
	// loop body (sampler, watchdog bookkeeping, end-of-launch work) to
	// telemetry, so the three phases partition the run's wall time exactly.
	if g.hp != nil {
		g.hp.RunBegin()
	}
	for {
		// Dispatch as many blocks as fit, round-robin over SMs.
		for next < total {
			placed := false
			for _, s := range g.sms {
				if next >= total {
					break
				}
				if s.TryLaunchBlock(infos[next]) {
					next++
					placed = true
					// A new block invalidates the SM's last computed wake
					// cycle: force dense stepping until the next Tick proves
					// quiet again.
					s.Wake()
				}
			}
			if !placed {
				break
			}
		}
		if g.hp != nil {
			g.hp.DriverLap(hostprof.PhaseDispatch)
		}
		// Tick the SMs in index order: within a cycle SM i's whole tick,
		// shared memory-system accesses included, precedes SM i+1's.
		idle := true
		for _, s := range g.sms {
			if g.eventDriven && s.WakeAt() > s.Now()+1 {
				s.SkipTicks(1)
			} else {
				s.Tick()
			}
			if !s.Idle() {
				idle = false
			}
		}
		if g.hp != nil {
			g.hp.DriverLap(hostprof.PhaseStep)
		}
		g.cycles++
		if g.sampler.Due(g.cycles) {
			g.sampler.Observe(g.cycles, g.Stats())
		}
		if next >= total && idle {
			break
		}
		if r := g.totalRetired(); r != lastRetired {
			lastRetired = r
			lastProgress = g.cycles
		}
		if wd > 0 && g.cycles-lastProgress >= wd {
			return 0, g.watchdogError(l, next, total, g.cycles-lastProgress, wd)
		}
		if g.cycles > deadline {
			return 0, g.watchdogError(l, next, total, g.cycles-lastProgress, watchdogSlack)
		}
		if g.eventDriven {
			g.skipAhead(lastProgress, deadline, wd)
		}
		if g.hp != nil {
			g.hp.DriverLap(hostprof.PhaseTelemetry)
		}
	}
	// A finished launch is a device-wide synchronization point: memory
	// written during it (or by the host before the next launch) must not be
	// served from pre-boundary load-reuse entries.
	for _, s := range g.sms {
		s.FlushLoadReuse()
	}
	if g.launchAudit {
		if err := g.CheckInvariants(); err != nil {
			return 0, &AuditError{Kernel: l.Kernel.Name, Launch: g.launches, Err: err}
		}
	}
	if g.hp != nil {
		g.hp.DriverLap(hostprof.PhaseTelemetry)
		g.hp.RunEnd()
	}
	return g.cycles - start, nil
}

// skipAhead fast-forwards the whole chip across a provably quiet span. When
// every SM's wake cycle lies beyond the next cycle, no SM can issue, retire,
// or touch the shared memory system until the earliest of them wakes — so the
// driver advances each SM's clock in closed form instead of sweeping quiet
// ticks one by one. The jump is clamped so every externally scheduled event
// still happens on exactly the cycle dense stepping would observe it: the
// configurable watchdog and the absolute deadline fire on their precise
// cycle, the sampler observes its interval boundary, and a pending MSHR fill
// (defensive: a waiting flight's ReadyAt already bounds the wake) is not
// jumped over. Dispatch needs no clamp: a full chip only regains block
// capacity through completions, which latch dense stepping first.
func (g *GPU) skipAhead(lastProgress, deadline uint64, wd uint64) {
	minWake := ^uint64(0)
	for _, s := range g.sms {
		if w := s.WakeAt(); w < minWake {
			minWake = w
		}
	}
	if minWake <= g.cycles+2 {
		return // the next cycle (or the one after) does work; nothing to gain
	}
	target := minWake - 1
	if wd > 0 && target > lastProgress+wd-1 {
		target = lastProgress + wd - 1
	}
	if target > deadline {
		target = deadline
	}
	if nd := g.sampler.NextDue(); target > nd-1 {
		target = nd - 1
	}
	if f := g.ms.NextFill(); f != ^uint64(0) && target > f-1 {
		target = f - 1
	}
	if target <= g.cycles {
		return
	}
	n := target - g.cycles
	for _, s := range g.sms {
		s.SkipTicks(n)
	}
	g.cycles += n
}

// Stats merges the per-SM counters with the memory-system counters and
// returns the chip-wide view.
func (g *GPU) Stats() stats.Sim {
	out := g.st
	for i, s := range g.smStat {
		out.Add(s)
		if c := g.sms[i].Now(); c > out.Cycles {
			out.Cycles = c
		}
	}
	return out
}

// CheckInvariants asks every SM to verify its structural invariants (engine
// conservation, verify-cache coherence, and — once drained — the idle-state
// refcount/rename/free-list audit), then audits the memory system's MSHR
// bookkeeping.
func (g *GPU) CheckInvariants() error {
	for _, s := range g.sms {
		if err := s.CheckInvariants(); err != nil {
			return err
		}
	}
	return g.ms.CheckInvariants(g.cycles)
}
