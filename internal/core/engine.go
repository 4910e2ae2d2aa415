package core

import (
	"fmt"

	"github.com/wirsim/wir/internal/alloc"
	"github.com/wirsim/wir/internal/chaos"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/hash"
	"github.com/wirsim/wir/internal/isa"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/regfile"
	"github.com/wirsim/wir/internal/rename"
	"github.com/wirsim/wir/internal/reuse"
	"github.com/wirsim/wir/internal/reuseprof"
	"github.com/wirsim/wir/internal/stats"
	"github.com/wirsim/wir/internal/vsb"
)

// Engine is the per-SM register-management and reuse engine. In reuse models
// it owns the rename tables, reuse buffer, VSB and free pool; in the Base and
// Affine models it degenerates to static per-warp register allocation so the
// SM pipeline can drive every model through one interface.
type Engine struct {
	cfg   *config.Config
	model config.Model
	st    *stats.Sim
	rf    *regfile.File

	// Reuse-model state.
	rt   *rename.Tables
	vsbf *vsb.Buffer
	rb   *reuse.Buffer
	pool *alloc.Pool
	h    *hash.H3

	sharedStoreFlag []bool // per warp: scratchpad store since last barrier
	globalStoreFlag []bool // per warp: global store since last barrier
	barrierCount    []uint8
	barrierSat      []bool // per block slot: counter saturated, stop load reuse

	lowReg       bool
	evictCursor  int
	accessedThis bool                 // a reuse/VSB access happened this cycle
	warpRegs     []int                // per warp: logical registers of its kernel (capped policy)
	ins          *metrics.Instruments // optional telemetry; nil when detached
	chaos        *chaos.Injector      // optional fault injector; nil when detached
	rp           *reuseprof.SMProf    // optional reuse-decision profiler; nil when detached

	// Base/Affine static allocation.
	staticBase []regfile.PhysID // per warp
	staticLen  []int
	ranges     *rangeAlloc
	staticUse  int
}

// NewEngine builds the engine for one SM.
func NewEngine(cfg *config.Config, st *stats.Sim, rf *regfile.File) *Engine {
	e := &Engine{
		cfg:             cfg,
		model:           cfg.Model,
		st:              st,
		rf:              rf,
		sharedStoreFlag: make([]bool, cfg.WarpsPerSM),
		globalStoreFlag: make([]bool, cfg.WarpsPerSM),
		barrierCount:    make([]uint8, cfg.BlocksPerSM),
		barrierSat:      make([]bool, cfg.BlocksPerSM),
		warpRegs:        make([]int, cfg.WarpsPerSM),
		staticBase:      make([]regfile.PhysID, cfg.WarpsPerSM),
		staticLen:       make([]int, cfg.WarpsPerSM),
	}
	if e.model.Reuse() {
		e.rt = rename.New(cfg.WarpsPerSM)
		e.rb = reuse.NewAssoc(cfg.ReuseEntries, maxInt(1, cfg.ReuseWays))
		if e.model.UseVSB() {
			e.vsbf = vsb.NewAssoc(cfg.VSBEntries, maxInt(1, cfg.VSBWays))
		} else {
			e.vsbf = vsb.New(0)
		}
		e.pool = alloc.New(cfg.PhysRegsPerSM)
		e.h = hash.New(0x5151DE5EED)
	} else {
		e.ranges = newRangeAlloc(cfg.PhysRegsPerSM)
	}
	return e
}

// SetInstruments attaches (or detaches, with nil) the telemetry instruments.
func (e *Engine) SetInstruments(ins *metrics.Instruments) { e.ins = ins }

// SetChaos attaches (or detaches, with nil) the fault injector.
func (e *Engine) SetChaos(inj *chaos.Injector) { e.chaos = inj }

// SetReuseProf attaches (or detaches, with nil) this SM's reuse-decision
// profiler. Purely observational: no stage decision reads it.
func (e *Engine) SetReuseProf(p *reuseprof.SMProf) { e.rp = p }

// noteEvict ledgers the removal of a valid reuse-buffer entry: the buffer
// captured the departing entry's age and hit count (LastEvictInfo) at the
// moment of removal; this pairs them with the cause and the evicted tag.
func (e *Engine) noteEvict(t reuse.Tag, cause reuseprof.EvictCause) {
	if e.rp == nil {
		return
	}
	age, hits := e.rb.LastEvictInfo()
	e.rp.Evict(t, cause, age, hits)
}

// ReuseOccupancy returns the number of valid reuse-buffer entries (0 for
// non-reuse models).
func (e *Engine) ReuseOccupancy() int {
	if e.rb == nil {
		return 0
	}
	return e.rb.Occupancy()
}

// VSBOccupancy returns the number of valid VSB entries (0 for non-reuse
// models).
func (e *Engine) VSBOccupancy() int {
	if e.vsbf == nil {
		return 0
	}
	return e.vsbf.Occupancy()
}

// Reuse reports whether the WIR machinery is active.
func (e *Engine) Reuse() bool { return e.model.Reuse() }

// Model returns the configured machine model.
func (e *Engine) Model() config.Model { return e.model }

// RegsInUse returns the number of physical registers currently allocated, for
// the Figure 19 utilization statistic.
func (e *Engine) RegsInUse() int {
	if e.Reuse() {
		return e.pool.InUse()
	}
	return e.staticUse
}

// LowRegMode reports whether the SM is currently draining reuse structures to
// free registers.
func (e *Engine) LowRegMode() bool { return e.lowReg }

// FreeRegs returns the number of free physical registers (pool free count in
// reuse models, unallocated range capacity otherwise).
func (e *Engine) FreeRegs() int {
	if e.Reuse() {
		return e.pool.FreeCount()
	}
	return e.cfg.PhysRegsPerSM - e.staticUse
}

// --- block lifecycle ---

// BlockLaunch prepares engine state for a block occupying the given SM-local
// warp indices. regsPerWarp is the kernel's logical register count. It
// reports whether register resources could be reserved (static models only;
// reuse models always succeed because allocation is dynamic).
func (e *Engine) BlockLaunch(slot int, warps []int, regsPerWarp int) bool {
	if e.Reuse() {
		for _, w := range warps {
			e.rt.Reset(w)
			e.sharedStoreFlag[w] = false
			e.globalStoreFlag[w] = false
			e.warpRegs[w] = regsPerWarp
		}
		e.barrierCount[slot] = 0
		e.barrierSat[slot] = false
		if e.model.CappedRegisters() {
			e.updateCap()
		}
		return true
	}
	need := regsPerWarp * len(warps)
	base, ok := e.ranges.alloc(need)
	if !ok {
		return false
	}
	e.staticUse += need
	for i, w := range warps {
		e.staticBase[w] = regfile.PhysID(int(base) + i*regsPerWarp)
		e.staticLen[w] = regsPerWarp
		e.warpRegs[w] = regsPerWarp
	}
	// Architectural registers read as zero at warp start. Reuse models get
	// this for free (invalid rename entries map to the zero register); the
	// static mapping must scrub recycled registers to match, or divergent
	// lane merges could observe a previous block's values.
	for i := 0; i < need; i++ {
		e.rf.Write(base+regfile.PhysID(i), isa.Vec{})
	}
	return true
}

// BlockComplete releases all engine state of a finishing block.
func (e *Engine) BlockComplete(slot int, warps []int) {
	if !e.Reuse() {
		for _, w := range warps {
			if e.staticLen[w] > 0 {
				e.ranges.release(e.staticBase[w], e.staticLen[w])
				e.staticUse -= e.staticLen[w]
				e.staticLen[w] = 0
			}
			e.warpRegs[w] = 0
		}
		return
	}
	for _, w := range warps {
		e.rt.Mappings(w, func(_ isa.Reg, ent rename.Entry) {
			e.release(ent.Phys)
		})
		e.rt.Reset(w)
		e.warpRegs[w] = 0
	}
	// Scratchpad-load reuse entries of this block must not survive into a
	// future block that recycles the slot (same 4-bit block ID, fresh
	// scratchpad contents).
	for i := 0; i < e.rb.Entries(); i++ {
		ent := e.rb.At(i)
		if ent.Valid && ent.Tag.Block == uint8(slot) {
			ev, _ := e.rb.EvictSlot(i)
			e.noteEvict(ev.Tag, reuseprof.EvictBlock)
			e.releaseEntry(ev)
		}
	}
	if e.model.CappedRegisters() {
		e.updateCap()
	}
}

// cappedSlack is the allocation float added to the capped-register limit: a
// write must allocate its new physical register before the old mapping can be
// released at retire, so the pipeline needs headroom proportional to its
// in-flight depth or it wedges with every register pinned by a rename table.
// The paper's capped policy implicitly assumes this float; we make it
// explicit.
const cappedSlack = 32

func (e *Engine) updateCap() {
	total := 1 + cappedSlack // the zero register plus in-flight float
	for _, n := range e.warpRegs {
		total += n
	}
	e.pool.SetLimit(total)
}

// FlushLoadEntries evicts every global and scratchpad load entry from the
// reuse buffer. A kernel-launch boundary is an implicit device-wide
// synchronization: the host (or a later kernel) may overwrite memory, so
// loads recorded before the boundary must not be reused after it. Constant
// and texture entries are read-only for the lifetime of a workload and
// survive. The paper's hazard rules (section VI-A) cover intra-kernel
// ordering only; this flush is the inter-kernel counterpart.
func (e *Engine) FlushLoadEntries() {
	if !e.Reuse() {
		return
	}
	for i := 0; i < e.rb.Entries(); i++ {
		ent := e.rb.At(i)
		if !ent.Valid || ent.Tag.Op != isa.OpLd {
			continue
		}
		if ent.Tag.Space == isa.SpaceGlobal || ent.Tag.Space == isa.SpaceShared {
			ev, _ := e.rb.EvictSlot(i)
			e.noteEvict(ev.Tag, reuseprof.EvictFlush)
			e.releaseEntry(ev)
		}
	}
}

// OnBarrier records a barrier (or fence) executed by block slot: the block's
// barrier count advances and the store flags of its warps clear (paper
// section VI-A).
func (e *Engine) OnBarrier(slot int, warps []int) {
	if !e.Reuse() {
		return
	}
	if e.barrierCount[slot] >= uint8(e.cfg.MaxBarrierCount) {
		e.barrierSat[slot] = true
	} else {
		e.barrierCount[slot]++
	}
	for _, w := range warps {
		e.sharedStoreFlag[w] = false
		e.globalStoreFlag[w] = false
	}
}

// --- value access ---

// RegValue returns the architectural value of warp w's logical register r.
func (e *Engine) RegValue(w int, r isa.Reg) isa.Vec {
	if e.Reuse() {
		ent := e.rt.Lookup(w, r)
		if !ent.Valid {
			return isa.Vec{}
		}
		return e.rf.Value(ent.Phys)
	}
	return e.rf.Value(e.staticPhys(w, r))
}

// RegValueInto writes the architectural value of warp w's logical register r
// into *dst. Identical to RegValue but skips the 128-byte return copy — the
// issue path reads up to three operands per instruction through this.
func (e *Engine) RegValueInto(dst *isa.Vec, w int, r isa.Reg) {
	if e.Reuse() {
		ent := e.rt.Lookup(w, r)
		if !ent.Valid {
			*dst = isa.Vec{}
			return
		}
		*dst = e.rf.Value(ent.Phys)
		return
	}
	*dst = e.rf.Value(e.staticPhys(w, r))
}

func (e *Engine) staticPhys(w int, r isa.Reg) regfile.PhysID {
	if int(r) >= e.staticLen[w] {
		// Kernel reads a register beyond its declared count; map to the
		// first register of the warp's range (kernels are validated against
		// this in the assembler, so this is defensive).
		return e.staticBase[w]
	}
	return e.staticBase[w] + regfile.PhysID(r)
}

// --- reference counting helpers ---

func (e *Engine) addRef(p regfile.PhysID) {
	e.pool.AddRef(p)
	e.st.RefCountOps++
}

func (e *Engine) release(p regfile.PhysID) {
	if freed := e.pool.Release(p); freed {
		e.st.RegReleases++
	}
	e.st.RefCountOps++
}

func (e *Engine) releaseEntry(ent reuse.Entry) {
	reuse.References(ent, e.release)
}

// CheckInvariants verifies reference-count conservation; tests call it after
// runs.
func (e *Engine) CheckInvariants() error {
	if !e.Reuse() {
		if e.staticUse < 0 {
			return fmt.Errorf("core: negative static register use %d", e.staticUse)
		}
		return nil
	}
	return e.pool.CheckConservation()
}

// AuditIdle runs the end-of-kernel invariant audit. It must be called only
// when the SM has fully drained (no resident blocks, no in-flight work), when
// every reference left in the pool is accounted for by exactly three holders:
// the permanent zero-register reference, the reuse buffer's recorded sources
// and results, and the VSB's result registers. It reports rename-table leaks
// (a valid mapping — pinned or not — surviving block completion), reference
// leaks (counts above the reconstructed expectation, e.g. a lost in-flight
// release), and premature releases (counts below it, which would let a live
// reuse result be recycled and silently corrupt a later hit).
func (e *Engine) AuditIdle() error {
	if !e.Reuse() {
		if e.staticUse != 0 {
			return fmt.Errorf("core: idle SM still holds %d static registers", e.staticUse)
		}
		return nil
	}
	if err := e.pool.CheckConservation(); err != nil {
		return err
	}
	for w := 0; w < e.cfg.WarpsPerSM; w++ {
		var leak error
		e.rt.Mappings(w, func(r isa.Reg, ent rename.Entry) {
			if leak == nil {
				leak = fmt.Errorf("core: idle SM has rename mapping w%d r%d -> phys %d (pin=%v)", w, r, ent.Phys, ent.Pin)
			}
		})
		if leak != nil {
			return leak
		}
	}
	expected := make([]uint32, e.pool.NumRegs())
	expected[e.pool.Zero] = 1
	for i := 0; i < e.rb.Entries(); i++ {
		reuse.References(e.rb.At(i), func(p regfile.PhysID) { expected[p]++ })
	}
	e.vsbf.Refs(func(p regfile.PhysID) { expected[p]++ })
	for p := range expected {
		if got := e.pool.Refs(regfile.PhysID(p)); got != expected[p] {
			return fmt.Errorf("core: idle refcount mismatch on phys %d: pool says %d, structures account for %d", p, got, expected[p])
		}
	}
	return nil
}

// --- low register mode (paper section V-E) ---

// BeginCycle resets per-cycle engine state and performs low-register-mode
// maintenance: if no reuse/VSB access happened in the previous cycle while in
// low-register mode, evict an entry to drain references.
func (e *Engine) BeginCycle() {
	if !e.Reuse() {
		return
	}
	if e.lowReg {
		e.st.LowRegMode++
		if !e.accessedThis {
			e.evictOne()
		}
		// Leave low-register mode once a safety margin of registers is free
		// and the policy cap is no longer binding.
		if !e.pool.AtLimit() && e.pool.FreeCount() >= lowRegExitMargin {
			e.lowReg = false
		}
	}
	e.accessedThis = false
}

const lowRegExitMargin = 16

func (e *Engine) enterLowReg() {
	if !e.lowReg {
		e.lowReg = true
	}
	e.evictOne()
}

// evictOne drops one reuse-buffer or VSB entry (alternating) to release
// register references.
func (e *Engine) evictOne() {
	e.evictCursor++
	if e.evictCursor%2 == 0 {
		if ent, ok := e.rb.EvictAny(e.evictCursor / 2 % maxInt(1, e.rb.Entries())); ok {
			e.st.ReuseEvicts++
			e.noteEvict(ent.Tag, reuseprof.EvictCapacity)
			e.releaseEntry(ent)
			return
		}
	}
	if e.vsbf != nil {
		if p, ok := e.vsbf.EvictAny(e.evictCursor % maxInt(1, maxInt(1, e.vsbf.Entries()))); ok {
			e.release(p)
			return
		}
	}
	if ent, ok := e.rb.EvictAny(e.evictCursor % maxInt(1, e.rb.Entries())); ok {
		e.st.ReuseEvicts++
		e.noteEvict(ent.Tag, reuseprof.EvictCapacity)
		e.releaseEntry(ent)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
