// Package oracle implements a functional golden-model emulator and a lockstep
// retire checker for the cycle-level simulator. The emulator executes each
// kernel launch architecturally — in program order, one warp at a time, with
// no pipeline, no renaming, and no reuse — and records the expected register
// writeback of every instruction a warp will issue. As the cycle model runs,
// every retired instruction is compared against its expected writeback, every
// completed block's scratchpad is compared against the emulated image, and at
// the end the global-memory stores are compared word by word. Any mismatch
// becomes a structured Divergence naming the kernel, SM, warp, PC and the
// differing lanes, so a reuse or renaming bug is localized to the first
// instruction it corrupts instead of surfacing as a wrong final output.
//
// The oracle assumes kernels are data-race free: cross-warp and cross-block
// communication through shared or global memory must be ordered by barriers
// (OpBar) or launch boundaries. Racy kernels can report false divergences
// because the emulator serializes warps where the cycle model interleaves
// them. Everything in this repository's benchmark and fuzz suites satisfies
// this.
package oracle

import (
	"fmt"
	"sort"
	"strings"

	"github.com/wirsim/wir/internal/attr"
	"github.com/wirsim/wir/internal/isa"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/sm"
)

// Mem is the functional memory view the emulator reads through (satisfied by
// mem.System). The emulator never writes it: kernel stores land in a private
// overlay so the oracle's image stays independent of the cycle model's.
type Mem interface {
	LoadGlobal(addr uint32) uint32
	LoadConst(addr uint32) uint32
	LoadTex(addr uint32) uint32
}

// maxBlockSteps bounds the instructions the emulator executes per block, so a
// kernel with a control-flow bug turns into an "emulation" divergence instead
// of hanging the oracle (the cycle-model side of the same bug is the
// watchdog's job).
const maxBlockSteps = 8_000_000

// retainLimit is how many divergences a checker retains; further ones are
// counted but not stored.
const retainLimit = 16

// Divergence is one structured mismatch between the cycle model and the
// golden model.
type Divergence struct {
	Class  string // "value", "pc", "mask", "extra", "missing", "shared", "memory", "emulation"
	Kernel string
	SM     int // cycle-model SM that retired the instruction; -1 when not applicable
	Launch int
	Block  int // linear block index within the launch; -1 when not applicable
	Warp   int // warp index within the block; -1 when not applicable
	PC     int // -1 when not applicable
	Seq    uint64
	Disasm string
	Detail string

	kernel *kasm.Kernel // for attribution lookup in Report
}

func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] kernel=%s", d.Class, d.Kernel)
	if d.Launch > 0 {
		fmt.Fprintf(&b, " launch=%d", d.Launch)
	}
	if d.Block >= 0 {
		fmt.Fprintf(&b, " block=%d", d.Block)
	}
	if d.Warp >= 0 {
		fmt.Fprintf(&b, " warp=%d", d.Warp)
	}
	if d.SM >= 0 {
		fmt.Fprintf(&b, " sm=%d", d.SM)
	}
	if d.PC >= 0 {
		fmt.Fprintf(&b, " pc=%d", d.PC)
	}
	if d.Seq > 0 {
		fmt.Fprintf(&b, " seq=%d", d.Seq)
	}
	if d.Disasm != "" {
		fmt.Fprintf(&b, "\n    %s", d.Disasm)
	}
	if d.Detail != "" {
		fmt.Fprintf(&b, "\n    %s", d.Detail)
	}
	return b.String()
}

// expect is the golden-model record of one issued warp instruction, indexed by
// its program-order sequence number within the warp (the cycle model's
// SeqInWarp counter, which counts exactly the non-control instructions issued
// with a nonzero effective mask).
type expect struct {
	pc     int
	op     isa.Op
	mask   isa.Mask
	val    isa.Vec
	hasVal bool
}

type streamKey struct {
	launch int
	block  int // linear block index
	warp   int // warp index within the block
}

type stream struct {
	expects  []expect
	consumed int // retire events checked against this stream
}

type sharedKey struct {
	launch int
	block  int
}

// Checker holds the golden model's expectations and collects divergences.
// Wire it to a GPU with Attach, or drive BeginLaunch/OnRetire/OnBlockDone/
// CheckMemory directly.
type Checker struct {
	// Base is the functional memory the emulator reads through (the GPU's
	// mem.System). Required.
	Base Mem
	// Attr, when set, annotates the divergence report with the per-PC
	// attribution counters of the faulting PC.
	Attr *attr.Collector

	overlay map[uint32]uint32 // global stores the golden model performed
	streams map[streamKey]*stream
	shared  map[sharedKey][]uint32 // final scratchpad image per block

	divs  []Divergence
	total int
}

// New returns a checker reading functional memory through base.
func New(base Mem) *Checker {
	return &Checker{
		Base:    base,
		overlay: make(map[uint32]uint32),
		streams: make(map[streamKey]*stream),
		shared:  make(map[sharedKey][]uint32),
	}
}

// Divergences returns the retained divergences (at most retainLimit).
func (c *Checker) Divergences() []Divergence { return c.divs }

// Total returns the number of divergences observed, including those beyond
// the retention limit.
func (c *Checker) Total() int { return c.total }

// Ok reports whether no divergence has been observed.
func (c *Checker) Ok() bool { return c.total == 0 }

// Err returns nil when no divergence has been observed, and an error carrying
// the full report otherwise.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("oracle: %d divergence(s)\n%s", c.total, c.Report())
}

// Report renders the retained divergences, annotated with per-PC attribution
// counters when a collector is attached.
func (c *Checker) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %d divergence(s), showing %d\n", c.total, len(c.divs))
	for i := range c.divs {
		d := &c.divs[i]
		fmt.Fprintf(&b, "  #%d %s\n", i+1, d.String())
		if c.Attr != nil && d.kernel != nil && d.SM >= 0 && d.PC >= 0 {
			p := c.Attr.Table(d.kernel, d.SM).At(d.PC)
			fmt.Fprintf(&b, "    attr: issued=%d bypassed=%d reuseHits=%d reuseMisses=%d vsbFalsePos=%d\n",
				p.Issued, p.Bypassed, p.ReuseHits, p.ReuseMisses, p.VSBFalsePos)
		}
	}
	return b.String()
}

func (c *Checker) diverge(d Divergence) {
	c.total++
	if len(c.divs) < retainLimit {
		c.divs = append(c.divs, d)
	}
}

// loadGlobal reads the golden model's view of global memory: its own stores
// first, the backing store otherwise.
func (c *Checker) loadGlobal(addr uint32) uint32 {
	if v, ok := c.overlay[addr]; ok {
		return v
	}
	return c.Base.LoadGlobal(addr)
}

// BeginLaunch emulates one kernel launch architecturally and records the
// expected writeback stream of every warp. Call it before the cycle model
// starts ticking the launch; infos must be the exact BlockInfo set the
// dispatcher will hand to the SMs.
func (c *Checker) BeginLaunch(infos []sm.BlockInfo) {
	for i := range infos {
		c.emulateBlock(&infos[i])
	}
}

// blockLin is the linear block index used to key trace events and streams
// (matches the SM tracer's computation).
func blockLin(info *sm.BlockInfo) int {
	return (info.BlockZ*info.GridY+info.BlockY)*info.GridX + info.BlockX
}

// wstate is the architectural state of one emulated warp.
type wstate struct {
	stack   []simtEntry
	exited  isa.Mask
	done    bool
	barrier bool
	regs    [isa.NumLogicalRegs]isa.Vec
	preds   [isa.NumPredRegs]isa.Mask
	stream  *stream
	inBlock int
}

type simtEntry struct {
	pc   int
	rpc  int // reconvergence PC; -1 for the base entry
	mask isa.Mask
}

// emulateBlock runs one thread block to completion on the golden model,
// filling the per-warp expectation streams and the final scratchpad image.
func (c *Checker) emulateBlock(info *sm.BlockInfo) {
	k := info.Kernel
	bl := blockLin(info)
	nWarps := (info.Threads + isa.WarpSize - 1) / isa.WarpSize
	var shared []uint32
	if k.SharedBytes > 0 {
		shared = make([]uint32, (k.SharedBytes+3)/4)
	}

	warps := make([]*wstate, nWarps)
	for i := range warps {
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
		st := &stream{}
		c.streams[streamKey{launch: info.Launch, block: bl, warp: i}] = st
		warps[i] = &wstate{
			stack:   []simtEntry{{pc: 0, rpc: -1, mask: m}},
			stream:  st,
			inBlock: i,
		}
	}

	arrived := 0
	steps := 0
	for {
		// Run each runnable warp until it blocks on a barrier or finishes.
		// Warps serialize here where the cycle model interleaves them; the
		// results agree for race-free kernels because barriers are the only
		// intra-launch ordering points.
		for _, w := range warps {
			for !w.done && !w.barrier {
				if steps++; steps > maxBlockSteps {
					c.diverge(Divergence{
						Class: "emulation", Kernel: k.Name, SM: -1,
						Launch: info.Launch, Block: bl, Warp: w.inBlock, PC: -1,
						Detail: fmt.Sprintf("block exceeded %d emulated instructions (runaway control flow?)", maxBlockSteps),
						kernel: k,
					})
					return
				}
				c.step(info, w, shared, &arrived)
			}
		}
		live := 0
		for _, w := range warps {
			if !w.done {
				live++
			}
		}
		if live == 0 {
			break
		}
		// Every live warp is parked at the barrier; release mirrors the SM's
		// rule (arrived >= live non-done warps).
		if arrived >= live && arrived > 0 {
			arrived = 0
			for _, w := range warps {
				w.barrier = false
			}
			continue
		}
		c.diverge(Divergence{
			Class: "emulation", Kernel: k.Name, SM: -1,
			Launch: info.Launch, Block: bl, Warp: -1, PC: -1,
			Detail: fmt.Sprintf("emulated barrier deadlock: %d arrived, %d live warps", arrived, live),
			kernel: k,
		})
		return
	}
	if shared != nil {
		c.shared[sharedKey{launch: info.Launch, block: bl}] = shared
	}
}

// mergeStack mirrors the SM's SIMT stack maintenance: pop entries that
// reached their reconvergence PC and drop fully-exited ones.
func mergeStack(w *wstate) {
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		top.mask &^= w.exited
		if top.mask == 0 && len(w.stack) > 1 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.rpc >= 0 && top.pc == top.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.mask == 0 {
			w.stack = w.stack[:0]
			w.done = true
		}
		return
	}
}

// step executes one instruction of warp w architecturally, mirroring the
// SM's issue-time semantics exactly (effective masking, divergence stack,
// predicate merge, per-lane old-value merge, scratchpad bounds rules).
func (c *Checker) step(info *sm.BlockInfo, w *wstate, shared []uint32, arrived *int) {
	mergeStack(w)
	if w.done || len(w.stack) == 0 {
		return
	}
	top := &w.stack[len(w.stack)-1]
	pc := top.pc
	in := &info.Kernel.Code[pc]

	mask := top.mask
	if in.Pred != isa.PredNone {
		pm := w.preds[in.Pred]
		if in.PredNeg {
			pm = ^pm
		}
		if in.Op != isa.OpBra {
			mask &= pm
		}
	}

	if in.IsControl() {
		c.control(w, in, pc, mask, arrived)
		return
	}
	if mask == 0 {
		top.pc++
		return
	}

	srcs := make([]isa.Vec, in.NSrc)
	for i := 0; i < in.NSrc; i++ {
		srcs[i] = w.regs[in.Src[i]]
	}
	var old isa.Vec
	if in.HasDst() {
		old = w.regs[in.Dst]
	}

	e := expect{pc: pc, op: in.Op, mask: mask}
	switch in.Op {
	case isa.OpS2R:
		v := specialVec(info, w.inBlock, in.SReg)
		for i := 0; i < isa.WarpSize; i++ {
			if !mask.Active(i) {
				v[i] = old[i]
			}
		}
		w.regs[in.Dst] = v
		e.val, e.hasVal = v, true
	case isa.OpISetP, isa.OpFSetP:
		a := srcs[0]
		var b isa.Vec
		if in.NSrc > 1 {
			b = srcs[1]
		} else if in.HasImm {
			for i := range b {
				b[i] = in.Imm
			}
		}
		var m isa.Mask
		for i := 0; i < isa.WarpSize; i++ {
			if isa.Compare(in.Op, in.Cond, a[i], b[i]) {
				m |= 1 << uint(i)
			}
		}
		prev := w.preds[in.PDst]
		w.preds[in.PDst] = (prev &^ mask) | (m & mask)
	case isa.OpSel:
		p := w.preds[in.PDst]
		out := old
		for i := 0; i < isa.WarpSize; i++ {
			if mask.Active(i) {
				if p.Active(i) {
					out[i] = srcs[0][i]
				} else {
					out[i] = srcs[1][i]
				}
			}
		}
		w.regs[in.Dst] = out
		e.val, e.hasVal = out, true
	case isa.OpLd:
		addrs := laneAddr(srcs[0], in)
		out := old
		for i := 0; i < isa.WarpSize; i++ {
			if !mask.Active(i) {
				continue
			}
			switch in.Space {
			case isa.SpaceShared:
				out[i] = sharedLoad(shared, addrs[i])
			case isa.SpaceGlobal:
				out[i] = c.loadGlobal(addrs[i] &^ 3)
			case isa.SpaceConst:
				out[i] = c.Base.LoadConst(addrs[i] &^ 3)
			case isa.SpaceTex:
				out[i] = c.Base.LoadTex(addrs[i] &^ 3)
			}
		}
		w.regs[in.Dst] = out
		e.val, e.hasVal = out, true
	case isa.OpSt:
		addrs := laneAddr(srcs[0], in)
		val := srcs[1]
		for i := 0; i < isa.WarpSize; i++ {
			if !mask.Active(i) {
				continue
			}
			switch in.Space {
			case isa.SpaceShared:
				sharedStore(shared, addrs[i], val[i])
			case isa.SpaceGlobal:
				c.overlay[addrs[i]&^3] = val[i]
			}
		}
	default:
		v := isa.ExecVec(in, srcs, old, mask)
		w.regs[in.Dst] = v
		e.val, e.hasVal = v, true
	}

	w.stream.expects = append(w.stream.expects, e)
	top.pc++
}

// control mirrors the SM's issue-time resolution of branches, barriers,
// fences and exits. Fences have no functional effect in the golden model.
func (c *Checker) control(w *wstate, in *isa.Instr, pc int, mask isa.Mask, arrived *int) {
	top := &w.stack[len(w.stack)-1]
	switch in.Op {
	case isa.OpJmp:
		top.pc = in.Target
	case isa.OpBra:
		pm := isa.FullMask
		if in.Pred != isa.PredNone {
			pm = w.preds[in.Pred]
			if in.PredNeg {
				pm = ^pm
			}
		}
		taken := top.mask & pm
		ntaken := top.mask &^ taken
		switch {
		case taken == 0:
			top.pc = pc + 1
		case ntaken == 0:
			top.pc = in.Target
		default:
			join := in.Join
			top.pc = join
			w.stack = append(w.stack,
				simtEntry{pc: pc + 1, rpc: join, mask: ntaken},
				simtEntry{pc: in.Target, rpc: join, mask: taken},
			)
		}
	case isa.OpBar:
		top.pc = pc + 1
		w.barrier = true
		*arrived++
	case isa.OpMemF:
		top.pc = pc + 1
	case isa.OpExit:
		w.exited |= mask
		top.pc = pc + 1
		mergeStack(w)
	case isa.OpNop:
		top.pc = pc + 1
	}
}

// specialVec mirrors the SM's special-register materialization.
func specialVec(info *sm.BlockInfo, inBlock int, sr isa.SpecialReg) isa.Vec {
	var v isa.Vec
	for lane := 0; lane < isa.WarpSize; lane++ {
		lin := inBlock*isa.WarpSize + lane
		var x uint32
		switch sr {
		case isa.SrTidX:
			x = uint32(lin % info.DimX)
		case isa.SrTidY:
			x = uint32(lin / info.DimX % maxi(info.DimY, 1))
		case isa.SrTidZ:
			x = uint32(lin / (info.DimX * maxi(info.DimY, 1)))
		case isa.SrCtaidX:
			x = uint32(info.BlockX)
		case isa.SrCtaidY:
			x = uint32(info.BlockY)
		case isa.SrCtaidZ:
			x = uint32(info.BlockZ)
		case isa.SrNtidX:
			x = uint32(info.DimX)
		case isa.SrNtidY:
			x = uint32(maxi(info.DimY, 1))
		case isa.SrNtidZ:
			x = uint32(maxi(info.DimZ, 1))
		case isa.SrNctaidX:
			x = uint32(info.GridX)
		case isa.SrNctaidY:
			x = uint32(maxi(info.GridY, 1))
		case isa.SrNctaidZ:
			x = uint32(maxi(info.GridZ, 1))
		case isa.SrLaneID:
			x = uint32(lane)
		case isa.SrWarpID:
			x = uint32(inBlock)
		case isa.SrTid:
			x = uint32(lin)
		}
		v[lane] = x
	}
	return v
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func laneAddr(base isa.Vec, in *isa.Instr) isa.Vec {
	if !in.HasImm {
		return base
	}
	var out isa.Vec
	for i := range base {
		out[i] = base[i] + in.Imm
	}
	return out
}

func sharedLoad(sh []uint32, addr uint32) uint32 {
	i := addr / 4
	if int(i) >= len(sh) {
		return 0
	}
	return sh[i]
}

func sharedStore(sh []uint32, addr, v uint32) {
	i := addr / 4
	if int(i) < len(sh) {
		sh[i] = v
	}
}

// OnRetire checks one retired instruction against the golden model. It is the
// sm.RetireHook entry point.
func (c *Checker) OnRetire(ev *sm.RetireEvent) {
	key := streamKey{launch: ev.Launch, block: ev.Block, warp: ev.WarpInBlock}
	st := c.streams[key]
	name := ""
	if ev.Kernel != nil {
		name = ev.Kernel.Name
	}
	if st == nil {
		c.diverge(Divergence{
			Class: "extra", Kernel: name, SM: ev.SM,
			Launch: ev.Launch, Block: ev.Block, Warp: ev.WarpInBlock,
			PC: ev.PC, Seq: ev.Seq,
			Detail: "retired instruction from a launch/block the oracle never emulated",
			kernel: ev.Kernel,
		})
		return
	}
	idx := int(ev.Seq) - 1
	if idx < 0 || idx >= len(st.expects) {
		c.diverge(Divergence{
			Class: "extra", Kernel: name, SM: ev.SM,
			Launch: ev.Launch, Block: ev.Block, Warp: ev.WarpInBlock,
			PC: ev.PC, Seq: ev.Seq, Disasm: disasm(ev.Kernel, ev.PC),
			Detail: fmt.Sprintf("warp retired %d instructions but the oracle expected %d", ev.Seq, len(st.expects)),
			kernel: ev.Kernel,
		})
		return
	}
	st.consumed++
	e := &st.expects[idx]
	if e.pc != ev.PC || e.op != ev.In.Op {
		c.diverge(Divergence{
			Class: "pc", Kernel: name, SM: ev.SM,
			Launch: ev.Launch, Block: ev.Block, Warp: ev.WarpInBlock,
			PC: ev.PC, Seq: ev.Seq, Disasm: disasm(ev.Kernel, ev.PC),
			Detail: fmt.Sprintf("control-flow divergence: expected pc=%d %v, retired pc=%d %v", e.pc, e.op, ev.PC, ev.In.Op),
			kernel: ev.Kernel,
		})
		return
	}
	if e.mask != ev.Mask {
		c.diverge(Divergence{
			Class: "mask", Kernel: name, SM: ev.SM,
			Launch: ev.Launch, Block: ev.Block, Warp: ev.WarpInBlock,
			PC: ev.PC, Seq: ev.Seq, Disasm: disasm(ev.Kernel, ev.PC),
			Detail: fmt.Sprintf("active-mask divergence: expected %08x, got %08x", uint32(e.mask), uint32(ev.Mask)),
			kernel: ev.Kernel,
		})
		return
	}
	if e.hasVal && ev.HasArch && e.val != ev.Arch {
		c.diverge(Divergence{
			Class: "value", Kernel: name, SM: ev.SM,
			Launch: ev.Launch, Block: ev.Block, Warp: ev.WarpInBlock,
			PC: ev.PC, Seq: ev.Seq, Disasm: disasm(ev.Kernel, ev.PC),
			Detail: "writeback mismatch: " + laneDiff(e.val, ev.Arch),
			kernel: ev.Kernel,
		})
	}
}

// OnBlockDone checks a completed block: every warp's expectation stream must
// be fully consumed and the scratchpad image must match the golden model's.
// It is the sm.BlockDoneHook entry point (called before the SM drops the
// scratchpad).
func (c *Checker) OnBlockDone(info *sm.BlockInfo, shared []uint32) {
	bl := blockLin(info)
	nWarps := (info.Threads + isa.WarpSize - 1) / isa.WarpSize
	for w := 0; w < nWarps; w++ {
		st := c.streams[streamKey{launch: info.Launch, block: bl, warp: w}]
		if st == nil {
			continue // already reported as "extra" at retire time
		}
		if st.consumed < len(st.expects) {
			e := &st.expects[st.consumed]
			c.diverge(Divergence{
				Class: "missing", Kernel: info.Kernel.Name, SM: -1,
				Launch: info.Launch, Block: bl, Warp: w,
				PC: e.pc, Seq: uint64(st.consumed + 1), Disasm: disasm(info.Kernel, e.pc),
				Detail: fmt.Sprintf("block completed with %d of %d expected instructions retired", st.consumed, len(st.expects)),
				kernel: info.Kernel,
			})
		}
	}
	want := c.shared[sharedKey{launch: info.Launch, block: bl}]
	if want == nil && shared == nil {
		return
	}
	n := len(want)
	if len(shared) > n {
		n = len(shared)
	}
	for i := 0; i < n; i++ {
		var wv, gv uint32
		if i < len(want) {
			wv = want[i]
		}
		if i < len(shared) {
			gv = shared[i]
		}
		if wv != gv {
			c.diverge(Divergence{
				Class: "shared", Kernel: info.Kernel.Name, SM: -1,
				Launch: info.Launch, Block: bl, Warp: -1, PC: -1,
				Detail: fmt.Sprintf("scratchpad word %d (byte 0x%x): expected %08x, got %08x", i, i*4, wv, gv),
				kernel: info.Kernel,
			})
			return // one per block keeps the report readable
		}
	}
}

// CheckMemory compares every global store the golden model performed against
// the cycle model's memory image. Call it after the last launch completes.
func (c *Checker) CheckMemory() {
	addrs := make([]uint32, 0, len(c.overlay))
	for a := range c.overlay {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		want := c.overlay[a]
		got := c.Base.LoadGlobal(a)
		if want != got {
			c.diverge(Divergence{
				Class: "memory", Kernel: "", SM: -1, Block: -1, Warp: -1, PC: -1,
				Detail: fmt.Sprintf("global word 0x%x: expected %08x, got %08x", a, want, got),
			})
		}
	}
}

// laneDiff renders the differing lanes of two warp vectors.
func laneDiff(want, got isa.Vec) string {
	var b strings.Builder
	n := 0
	for i := 0; i < isa.WarpSize; i++ {
		if want[i] == got[i] {
			continue
		}
		if n == 6 {
			b.WriteString(" ...")
			break
		}
		if n > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "lane %d: expected %08x, got %08x", i, want[i], got[i])
		n++
	}
	if n == 0 {
		return "(vectors equal)"
	}
	return b.String()
}

func disasm(k *kasm.Kernel, pc int) string {
	if k == nil || pc < 0 || pc >= len(k.Code) {
		return ""
	}
	return k.Disasm(pc)
}
