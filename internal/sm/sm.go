// Package sm implements the streaming multiprocessor timing model: per-warp
// SIMT stacks, scoreboards, two GTO warp schedulers over two warp groups, the
// banked-register-file backend with SP/SFU/MEM pipelines, and the three added
// WIR stages (rename, reuse, register allocation) driven through the core
// engine. One SM.Tick call advances the SM by one core cycle.
package sm

import (
	"fmt"

	"github.com/wirsim/wir/internal/trace"

	"github.com/wirsim/wir/internal/attr"
	"github.com/wirsim/wir/internal/chaos"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/core"
	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/hostprof"
	"github.com/wirsim/wir/internal/isa"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/regfile"
	"github.com/wirsim/wir/internal/reuseprof"
	"github.com/wirsim/wir/internal/stats"
)

// ProfileHook observes every issued instruction for redundancy profiling
// (Figure 2). srcs are the operand register values in operand order, result
// the computed value, and mask the active lane mask. notRepeatable marks
// instructions the paper always counts as not repeated (control flow and
// stores).
type ProfileHook func(in *isa.Instr, srcs []isa.Vec, result isa.Vec, mask isa.Mask, notRepeatable bool)

// BlockInfo describes one thread block handed to an SM for execution.
type BlockInfo struct {
	Kernel  *kasm.Kernel
	Launch  int // monotonically increasing launch index (for tracing)
	BlockX  int
	BlockY  int
	BlockZ  int
	GridX   int
	GridY   int
	GridZ   int
	DimX    int
	DimY    int
	DimZ    int
	Threads int
}

// SM is one streaming multiprocessor.
type SM struct {
	ID  int
	cfg *config.Config
	st  *stats.Sim
	rf  *regfile.File
	eng *core.Engine
	ms  *mem.System

	warps  []*warpCtx
	blocks []*blockCtx

	flights  []*core.Flight
	pendingQ []*core.Flight
	dummies  []dummyOp

	schedLast []int // per scheduler: last issued warp (GTO greedy pointer)
	now       uint64
	seq       uint64 // monotonic launch sequence for age ordering

	// issueState memoizes canIssue per warp slot (issueUnknown = recompute).
	// Every mutation of issue-visible warp state — pc/stack/exited via issue,
	// scoreboard counts via issue/retire, barrier set/clear, block
	// launch/complete — resets the slot to issueUnknown; between mutations a
	// warp's readiness cannot change, so scheduler scans read this packed
	// array instead of re-walking SIMT stacks and scoreboards, and skip
	// known-stalled warps without touching their warpCtx at all.
	issueState []uint8

	liveBlocks  int
	utilCounter int

	// Event-driven stepping state. wake is the earliest cycle this SM can do
	// any work (0 = step densely; ^uint64(0) = only an external event — block
	// dispatch or the watchdog — ends the quiet). dirty latches quiet-tick
	// state transitions (warp exit, barrier release, block completion inside
	// canIssue's mergeStack) that can change issuability without issuing, so
	// the next cycle always steps densely after one.
	wake  uint64
	dirty bool

	// Per-SM scratch reused across ticks so the steady-state tick allocates
	// nothing: operand values for execute, scratchpad bank-conflict counting,
	// and a pool of retired Flights whose slice backings are kept warm.
	srcScratch [3]isa.Vec
	bankWords  [32][32]uint32
	bankLen    [32]uint8
	pool       []*core.Flight

	Hook ProfileHook
	// Trace, when non-nil, receives pipeline events (issue, bypass,
	// dispatch, retire, dummy, barrier).
	Trace trace.Sink
	// Retire, when non-nil, receives every retired non-control instruction
	// with its architectural writeback (lockstep oracle checking).
	Retire RetireHook
	// BlockDone, when non-nil, receives each completed block with its final
	// scratchpad image, before the SM releases it.
	BlockDone BlockDoneHook

	// chaos, when non-nil, injects deterministic faults into the pipeline.
	chaos *chaos.Injector

	// Telemetry (attached with SetInstruments; nil = disabled, and the hot
	// paths pay only the nil check).
	mx           *metrics.Instruments
	stalls       []metrics.StallCounts // per scheduler slot
	issuedCycles []uint64              // per scheduler slot: cycles that issued
	gRegs        *metrics.Gauge
	gReuseOcc    *metrics.Gauge
	gVSBOcc      *metrics.Gauge

	// Per-PC attribution (attached with SetAttribution; nil = disabled, and
	// the hot paths pay only the nil check).
	attr     *attr.Collector
	attrCost *energy.Coefficients

	// Host-side phase profiler (attached with SetHostProf; nil = disabled,
	// and Tick pays only the nil checks of its nil-safe timer calls).
	hp *hostprof.SMProf

	// Reuse-decision profiler (attached with SetReuseProf; nil = disabled,
	// and the hot paths pay only the nil check).
	rp *reuseprof.SMProf
}

// SetInstruments attaches (or detaches, with nil) the telemetry instruments
// to the SM and its engine and registers the SM's live-occupancy gauges.
// Stall attribution is recorded only while instruments are attached; attach
// before the first Tick so stall fractions partition the whole run.
func (s *SM) SetInstruments(mx *metrics.Instruments) {
	s.mx = mx
	s.eng.SetInstruments(mx)
	s.ms.SetInstruments(mx)
	if mx != nil && mx.Registry != nil {
		s.gRegs = mx.Registry.Gauge(fmt.Sprintf("wir_sm%d_regs_in_use", s.ID))
		s.gReuseOcc = mx.Registry.Gauge(fmt.Sprintf("wir_sm%d_reuse_occupancy", s.ID))
		s.gVSBOcc = mx.Registry.Gauge(fmt.Sprintf("wir_sm%d_vsb_occupancy", s.ID))
	} else {
		s.gRegs, s.gReuseOcc, s.gVSBOcc = nil, nil, nil
	}
}

// SetAttribution attaches (or detaches, with nil) the per-PC attribution
// collector. Like the instruments, attach before the first Tick so the
// per-PC sums reconcile with the aggregate counters over the whole run; a
// block caches its table at launch, so attach only while none is resident.
// Attribution also enables the per-slot issue/stall accounting, so a
// StallReport is meaningful with attribution attached even when the
// instruments are not.
func (s *SM) SetAttribution(c *attr.Collector) {
	s.attr = c
	if c != nil {
		s.attrCost = &c.Cost
	} else {
		s.attrCost = nil
	}
}

// SetHostProf attaches (or detaches, with nil) the host-side phase profiler
// for this SM. With one attached, Tick times each phase of the cycle. The
// profiler only reads clocks, so simulation outputs are bit-identical either
// way.
func (s *SM) SetHostProf(p *hostprof.SMProf) { s.hp = p }

// SetReuseProf attaches (or detaches, with nil) this SM's reuse-decision
// profiler. Like attribution, attach before the first Tick so taxonomy sums
// reconcile with the aggregate counters over the whole run, and only while
// no block is resident.
func (s *SM) SetReuseProf(p *reuseprof.SMProf) {
	s.rp = p
	s.eng.SetReuseProf(p)
}

// StallCounts returns a copy of the per-scheduler-slot stall attribution.
func (s *SM) StallCounts() []metrics.StallCounts {
	out := make([]metrics.StallCounts, len(s.stalls))
	copy(out, s.stalls)
	return out
}

// IssuedCycles returns, per scheduler slot, how many cycles issued an
// instruction. Together with StallCounts this partitions every
// scheduler-slot cycle of the run: issued + stalls = Now() per slot.
func (s *SM) IssuedCycles() []uint64 {
	out := make([]uint64, len(s.issuedCycles))
	copy(out, s.issuedCycles)
	return out
}

// RFConflictCounts returns the register file's per-bank-group failed port
// claims.
func (s *SM) RFConflictCounts() []uint64 { return s.rf.ConflictCounts() }

// emit sends a pipeline event to the tracer if one is attached, charging the
// construction and delivery to the hooks phase when profiling.
func (s *SM) emit(k trace.Kind, fl *core.Flight) {
	if s.Trace == nil {
		return
	}
	t0 := s.hp.Open()
	wc := s.warps[fl.Warp]
	info := &s.blocks[wc.block].info
	blockLin := (info.BlockZ*info.GridY+info.BlockY)*info.GridX + info.BlockX
	e := trace.Event{
		Kind: k, Cycle: s.now, SM: s.ID, Warp: fl.Warp, PC: fl.PC,
		Seq: fl.SeqInWarp, Op: fl.In.Op.String(),
		Launch: info.Launch, Block: blockLin, WarpInBlock: wc.inBlock,
		Kernel: info.Kernel.Name,
	}
	if k == trace.KindRetire && fl.HasResult {
		e.Result = trace.HashResult((*[32]uint32)(&fl.Result))
	}
	s.Trace.Emit(e)
	s.hp.Close(hostprof.PhaseSMHooks, t0)
}

// warpCtx is the state of one warp slot.
type warpCtx struct {
	active   bool
	block    int // block slot
	inBlock  int // warp index within the block
	threads  isa.Mask
	stack    []simtEntry
	exited   isa.Mask
	done     bool
	barrier  bool
	pendReg  [isa.NumLogicalRegs]uint8
	pendPred [isa.NumPredRegs]uint8
	issueSeq uint64 // program-order counter for trace streams
	preds    [isa.NumPredRegs]isa.Mask
	inflight int
	seq      uint64
}

// blockCtx is the state of one resident thread block slot.
type blockCtx struct {
	active  bool
	info    BlockInfo
	warps   []int
	arrived int
	shared  []uint32
	seq     uint64
	atab    *attr.Table      // per-PC attribution table, cached at launch
	rtab    *reuseprof.Table // per-PC reuse-telemetry table, cached at launch
}

type simtEntry struct {
	pc   int
	rpc  int // reconvergence PC; -1 for the base entry
	mask isa.Mask
}

type dummyOp struct {
	src, dst regfile.PhysID
	readDone bool
	rec      *attr.PCStats // attribution record of the injecting PC (nil ok)
}

// New builds one SM.
func New(id int, cfg *config.Config, st *stats.Sim, ms *mem.System) *SM {
	vce := 0
	if cfg.Model.VerifyCache() {
		vce = cfg.VerifyCacheSize
	}
	rf := regfile.New(cfg.PhysRegsPerSM, cfg.RFBankGroups, vce)
	s := &SM{
		ID:         id,
		cfg:        cfg,
		st:         st,
		rf:         rf,
		eng:        core.NewEngine(cfg, st, rf),
		ms:         ms,
		warps:      make([]*warpCtx, cfg.WarpsPerSM),
		blocks:     make([]*blockCtx, cfg.BlocksPerSM),
		schedLast:  make([]int, cfg.SchedulersPerSM),
		issueState: make([]uint8, cfg.WarpsPerSM),

		stalls:       make([]metrics.StallCounts, cfg.SchedulersPerSM),
		issuedCycles: make([]uint64, cfg.SchedulersPerSM),
	}
	// Pre-size the pipeline slices to their structural bounds so steady-state
	// ticks never grow them: checkPendingQueue can append resolved flights
	// past the canIssue cap, hence the extra PendingQueueSize headroom.
	s.flights = make([]*core.Flight, 0, maxFlightsPerSM+cfg.PendingQueueSize)
	s.pendingQ = make([]*core.Flight, 0, cfg.PendingQueueSize)
	s.dummies = make([]dummyOp, 0, 2*isa.WarpSize)
	s.pool = make([]*core.Flight, 0, maxFlightsPerSM+cfg.PendingQueueSize)
	for i := range s.warps {
		s.warps[i] = &warpCtx{}
	}
	for i := range s.blocks {
		s.blocks[i] = &blockCtx{}
	}
	return s
}

// FlushLoadReuse drops reusable load results at a kernel-launch boundary.
func (s *SM) FlushLoadReuse() { s.eng.FlushLoadEntries() }

// Now returns the SM's current cycle.
func (s *SM) Now() uint64 { return s.now }

// Idle reports whether the SM has no resident blocks and no in-flight work.
func (s *SM) Idle() bool {
	return s.liveBlocks == 0 && len(s.flights) == 0 && len(s.pendingQ) == 0 && len(s.dummies) == 0
}

// warpsPerGroup returns the number of warps each scheduler owns.
func (s *SM) warpsPerGroup() int { return s.cfg.WarpsPerSM / s.cfg.SchedulersPerSM }

// TryLaunchBlock places a block onto the SM if a slot and resources are
// available, returning false otherwise.
func (s *SM) TryLaunchBlock(info BlockInfo) bool {
	warpsNeeded := (info.Threads + isa.WarpSize - 1) / isa.WarpSize
	slot := -1
	for i, b := range s.blocks {
		if !b.active {
			slot = i
			break
		}
	}
	if slot < 0 {
		return false
	}
	// Gather free warp slots.
	free := make([]int, 0, warpsNeeded)
	for w, wc := range s.warps {
		if !wc.active {
			free = append(free, w)
			if len(free) == warpsNeeded {
				break
			}
		}
	}
	if len(free) < warpsNeeded {
		return false
	}
	if !s.eng.BlockLaunch(slot, free, info.Kernel.Regs) {
		return false
	}
	s.seq++
	b := s.blocks[slot]
	*b = blockCtx{active: true, info: info, warps: free, seq: s.seq}
	if s.attr != nil {
		b.atab = s.attr.Table(info.Kernel, s.ID)
	}
	if s.rp != nil {
		b.rtab = s.rp.Table(info.Kernel)
	}
	if info.Kernel.SharedBytes > 0 {
		b.shared = make([]uint32, (info.Kernel.SharedBytes+3)/4)
	}
	for i, w := range free {
		wc := s.warps[w]
		s.issueState[w] = issueUnknown
		lanes := info.Threads - i*isa.WarpSize
		if lanes > isa.WarpSize {
			lanes = isa.WarpSize
		}
		var m isa.Mask
		if lanes == isa.WarpSize {
			m = isa.FullMask
		} else {
			m = isa.Mask(1<<uint(lanes)) - 1
		}
		stack := wc.stack[:0] // keep the grown SIMT-stack backing across launches
		*wc = warpCtx{
			active:  true,
			block:   slot,
			inBlock: i,
			threads: m,
			seq:     s.seq,
		}
		wc.stack = append(stack, simtEntry{pc: 0, rpc: -1, mask: m})
	}
	s.liveBlocks++
	return true
}

// checkBarrierRelease releases a block's barrier once every live (non-exited)
// warp has arrived.
func (s *SM) checkBarrierRelease(slot int) {
	b := s.blocks[slot]
	if !b.active || b.arrived == 0 {
		return
	}
	live := 0
	for _, ow := range b.warps {
		if !s.warps[ow].done {
			live++
		}
	}
	if b.arrived >= live {
		b.arrived = 0
		s.dirty = true // released warps become issuable without an issue this tick
		for _, ow := range b.warps {
			s.warps[ow].barrier = false
			s.issueState[ow] = issueUnknown
		}
		s.eng.OnBarrier(slot, b.warps)
		if s.Trace != nil {
			s.Trace.Emit(trace.Event{Kind: trace.KindBarrier, Cycle: s.now, SM: s.ID, Warp: b.warps[0], Op: "bar", Kernel: b.info.Kernel.Name})
		}
	}
}

// completeBlockIfDone releases a block whose warps have all exited and
// drained.
func (s *SM) completeBlockIfDone(slot int) {
	b := s.blocks[slot]
	if !b.active {
		return
	}
	for _, w := range b.warps {
		wc := s.warps[w]
		if !wc.done || wc.inflight > 0 {
			return
		}
	}
	if s.BlockDone != nil {
		t0 := s.hp.Open()
		s.BlockDone(&b.info, b.shared)
		s.hp.Close(hostprof.PhaseSMHooks, t0)
	}
	s.eng.BlockComplete(slot, b.warps)
	for _, w := range b.warps {
		s.warps[w].active = false
		s.issueState[w] = issueUnknown
	}
	b.active = false
	b.shared = nil
	s.liveBlocks--
	s.dirty = true // a freed slot can admit a new block next cycle
}

// Tick advances the SM by one cycle. With a host profiler attached it also
// laps each phase of the cycle; the profiler's methods are nil-safe, so an
// unprofiled tick pays only their nil checks.
func (s *SM) Tick() {
	hp := s.hp
	issuedBefore := s.st.Issued
	s.dirty = false
	s.now++

	hp.BeginTick()
	s.rf.BeginCycle()
	s.eng.BeginCycle()
	s.processDummies()
	hp.Lap(hostprof.PhaseSMRegfile)

	reuseSlots := s.cfg.SchedulersPerSM
	renameSlots := s.cfg.SchedulersPerSM
	s.advanceFlights(&renameSlots, &reuseSlots)
	hp.Lap(hostprof.PhaseSMExecute)

	s.checkPendingQueue(&reuseSlots)
	hp.Lap(hostprof.PhaseSMReuse)

	s.issueCycle()
	hp.Lap(hostprof.PhaseSMIssue)

	s.sampleUtilization()
	if s.rp != nil {
		s.rp.ObserveCycle(s.eng.ReuseOccupancy(), s.now)
	}
	s.computeWake(issuedBefore)
	hp.Lap(hostprof.PhaseSMOther)
}

// computeWake derives, at the end of a tick, the earliest future cycle at
// which this SM can do any work. A dense tick has per-cycle side effects
// whenever something issued, dummy MOVs or pending-retry traffic exist, a
// quiet-tick state transition was latched (dirty), the engine is draining in
// low-register mode (BeginCycle evicts every cycle there), or any in-flight
// instruction is actionable — retrying a memory injection or already past its
// ReadyAt (bank/FU retries roll side effects each cycle). Absent all of that,
// the SM is provably inert until the earliest flight completion, and the
// stepper may skip straight to it.
func (s *SM) computeWake(issuedBefore uint64) {
	if s.st.Issued != issuedBefore || len(s.dummies) > 0 || len(s.pendingQ) > 0 ||
		s.dirty || s.eng.LowRegMode() {
		s.wake = s.now + 1
		return
	}
	wake := ^uint64(0)
	for _, fl := range s.flights {
		if fl.ReadyAt <= s.now+1 ||
			(fl.Stage == core.StageExec && fl.MemPending) {
			s.wake = s.now + 1
			return
		}
		if fl.ReadyAt < wake {
			wake = fl.ReadyAt
		}
	}
	s.wake = wake
}

// WakeAt returns the earliest cycle the SM can do work, as of its last tick.
// ^uint64(0) means only an external event (block dispatch, watchdog) can end
// the quiet.
func (s *SM) WakeAt() uint64 { return s.wake }

// Wake forces dense stepping from the next cycle onward; the GPU calls it
// when an external event (a block launched onto this SM) invalidates the last
// computed wake cycle.
func (s *SM) Wake() { s.wake = 0 }

// SkipTicks advances the SM clock by n cycles without stepping, standing in
// for n consecutive quiet dense ticks. The caller (the event-driven stepper)
// must have proven the SM cannot do work in any of them: s.now+n must not
// reach WakeAt. All per-cycle telemetry that dense quiet ticks would have
// recorded — utilization samples and gauges, the per-slot stall counts and
// their per-PC blame, the reuse-profiler occupancy series — is recorded in
// closed form, so every downstream artifact is bit-identical to dense
// stepping.
func (s *SM) SkipTicks(n uint64) {
	if n == 0 {
		return
	}
	first := s.now + 1
	s.now += n
	s.skipUtilization(n)
	if s.mx != nil || s.attr != nil {
		per := s.warpsPerGroup()
		for g := range s.stalls {
			s.chargeStall(g, g*per, (g+1)*per, n)
		}
	}
	if s.rp != nil {
		s.rp.ObserveQuietCycles(s.eng.ReuseOccupancy(), first, n)
	}
}

// skipUtilization applies n ticks of sampleUtilization in closed form. The
// register-use count cannot change across quiet ticks, so every sample in the
// span observes the same value.
func (s *SM) skipUtilization(n uint64) {
	total := uint64(s.utilCounter) + n
	k := total / 32
	s.utilCounter = int(total % 32)
	if k == 0 {
		return
	}
	u := uint64(s.eng.RegsInUse())
	s.st.RegUtilSum += u * k
	s.st.UtilSamples += k
	if u > s.st.RegUtilPeak {
		s.st.RegUtilPeak = u
	}
	if s.mx != nil {
		// Dense ticks would have refreshed the gauges with these same
		// constant values on each sample.
		s.gRegs.Set(float64(u))
		s.gReuseOcc.Set(float64(s.eng.ReuseOccupancy()))
		s.gVSBOcc.Set(float64(s.eng.VSBOccupancy()))
	}
}

func (s *SM) sampleUtilization() {
	s.utilCounter++
	if s.utilCounter >= 32 {
		s.utilCounter = 0
		u := uint64(s.eng.RegsInUse())
		s.st.RegUtilSum += u
		s.st.UtilSamples++
		if u > s.st.RegUtilPeak {
			s.st.RegUtilPeak = u
		}
		if s.mx != nil {
			// Piggyback the live gauges on the utilization sampling cadence
			// so a /metrics scrape sees fresh occupancy without a per-cycle
			// atomic store on the hot path.
			s.gRegs.Set(float64(u))
			s.gReuseOcc.Set(float64(s.eng.ReuseOccupancy()))
			s.gVSBOcc.Set(float64(s.eng.VSBOccupancy()))
		}
	}
}

// processDummies advances injected dummy MOVs: one bank read then one bank
// write each, arbitrated like any other access.
func (s *SM) processDummies() {
	kept := s.dummies[:0]
	for i := range s.dummies {
		d := s.dummies[i]
		if !d.readDone {
			if s.rf.TryRead(d.src) {
				s.st.RFReads++
				d.readDone = true
			} else {
				s.st.BankRetries++
				if d.rec != nil {
					d.rec.BankRetries++
				}
				kept = append(kept, d)
				continue
			}
		}
		if s.rf.TryWrite(d.dst) {
			s.st.RFWrites++
		} else {
			s.st.BankRetries++
			if d.rec != nil {
				d.rec.BankRetries++
			}
			kept = append(kept, d)
		}
	}
	s.dummies = kept
}
