package sm

import (
	"github.com/wirsim/wir/internal/attr"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/core"
	"github.com/wirsim/wir/internal/isa"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/reuseprof"
	"github.com/wirsim/wir/internal/trace"
)

// issueCycle lets each scheduler issue up to one warp instruction. The
// default policy is greedy-then-oldest (GTO): keep issuing from the last warp
// until it stalls, then fall back to the oldest ready warp of the group.
// Loose round-robin (LRR) rotates across ready warps instead.
func (s *SM) issueCycle() {
	per := s.warpsPerGroup()
	lrr := s.cfg.Scheduler == config.SchedLRR
	for g := 0; g < s.cfg.SchedulersPerSM; g++ {
		lo, hi := g*per, (g+1)*per
		pick := -1
		if lrr {
			start := s.schedLast[g] + 1
			if start < lo || start >= hi {
				start = lo
			}
			for k := 0; k < per; k++ {
				w := lo + (start-lo+k)%per
				// Memoized-stalled warps are skipped without the call: a
				// memo hit inside canIssue is side-effect-free, so eliding
				// it cannot change timing.
				if s.issueState[w] == issueStall {
					continue
				}
				if s.canIssue(w) {
					pick = w
					break
				}
			}
		} else if last := s.schedLast[g]; last >= lo && last < hi && s.canIssue(last) {
			pick = last
		} else {
			var bestSeq uint64
			for w := lo; w < hi; w++ {
				// Same side-effect-free elision as the LRR scan above.
				if s.issueState[w] == issueStall {
					continue
				}
				if !s.canIssue(w) {
					continue
				}
				wc := s.warps[w]
				if pick < 0 || wc.seq < bestSeq || (wc.seq == bestSeq && w < pick) {
					pick = w
					bestSeq = wc.seq
				}
			}
		}
		if pick >= 0 {
			s.issueWarp(pick)
			s.schedLast[g] = pick
			if s.mx != nil || s.attr != nil {
				s.issuedCycles[g]++
			}
		} else if s.mx != nil || s.attr != nil {
			s.chargeStall(g, lo, hi, 1)
		}
	}
}

// chargeStall charges n cycles in which scheduler group g (warps [lo,hi))
// issued nothing. The reason goes to the slot's stall counts and, with
// attribution attached, to the blocking producer's PC; cycles with no
// blamable producer (empty group, barrier, pipeline backpressure, work
// outside the flight list) accumulate in the collector so the per-PC sums
// still partition the aggregate stall report exactly. A dense tick charges
// one cycle; SkipTicks charges a whole quiet span at once, which is exact
// because a skipped span changes no warp or flight state, so every cycle of
// it has the same reason and the same producer.
func (s *SM) chargeStall(g, lo, hi int, n uint64) {
	reason, blamed := s.classifyStall(lo, hi)
	s.stalls[g][reason] += n
	if s.attr != nil {
		if blamed != nil && blamed.Attr != nil {
			blamed.Attr.AddStall(reason, n)
		} else {
			s.attr.NoteUnattributedStall(reason, n)
		}
	}
}

// classifyStall names the reason scheduler group [lo,hi) issued nothing this
// cycle and, when the winning reason traces to an in-flight producer, returns
// that flight so per-PC attribution can blame its PC. Exactly one reason is
// charged per empty slot cycle, so the per-reason counts partition the
// non-issue cycles. When warps stall for different reasons in the same cycle,
// the most specific reason across the group wins (resource waits > generic
// scoreboard > pipeline backpressure > barrier > empty); specificity is the
// StallReason ordering.
func (s *SM) classifyStall(lo, hi int) (metrics.StallReason, *core.Flight) {
	best := metrics.StallEmpty
	var bestFl *core.Flight
	upgrade := func(r metrics.StallReason, fl *core.Flight) {
		if r > best {
			best = r
			bestFl = fl
		}
	}
	for w := lo; w < hi; w++ {
		wc := s.warps[w]
		if !wc.active || wc.done || len(wc.stack) == 0 {
			continue // contributes "empty"
		}
		if wc.barrier {
			upgrade(metrics.StallBarrier, nil)
			continue
		}
		if len(s.flights) >= maxFlightsPerSM {
			upgrade(metrics.StallPipeline, nil)
			continue
		}
		// The warp has a next instruction but a scoreboard hazard; name the
		// resource its oldest in-flight instruction is waiting on. (canIssue
		// ran for every warp in the group this cycle, or in the last real
		// tick before a skipped span; warps it served from the memo have had
		// no state change since their last mergeStack, so the stack state is
		// current either way.)
		upgrade(s.hazardReason(w))
	}
	return best, bestFl
}

// hazardReason attributes warp w's scoreboard hazard to the state of its
// oldest in-flight instruction, returning that instruction as the blamed
// producer (nil when the hazard is held by work outside the flight list).
func (s *SM) hazardReason(w int) (metrics.StallReason, *core.Flight) {
	var oldest *core.Flight
	for _, fl := range s.flights {
		if fl.Warp == w && (oldest == nil || fl.Issued < oldest.Issued) {
			oldest = fl
		}
	}
	for _, fl := range s.pendingQ {
		if fl.Warp == w && (oldest == nil || fl.Issued < oldest.Issued) {
			oldest = fl
		}
	}
	if oldest == nil {
		// The hazard is held by work outside the flight list (e.g. a dummy
		// MOV still draining through the banks).
		return metrics.StallScoreboard, nil
	}
	switch {
	case oldest.Stage == core.StageWaiting:
		return metrics.StallPendingReuse, oldest
	case oldest.Blocked == core.BlockMSHR:
		return metrics.StallMSHRFull, oldest
	case oldest.Blocked == core.BlockBank:
		return metrics.StallBankConflict, oldest
	case oldest.Blocked == core.BlockFU:
		return metrics.StallFUBusy, oldest
	case oldest.Blocked == core.BlockReg:
		return metrics.StallRegShort, oldest
	case oldest.Stage == core.StageExec && oldest.FU == isa.FUMem:
		return metrics.StallMemLatency, oldest
	default:
		return metrics.StallScoreboard, oldest
	}
}

// issueState values: canIssue's per-warp memo.
const (
	issueUnknown uint8 = iota // recompute (warp state changed since last verdict)
	issueReady                // hazard-free next instruction, modulo the flights-full gate
	issueStall                // cannot issue until some warp-state mutation resets the memo
)

// canIssue reports whether warp w has a hazard-free next instruction. The
// flights-full gate stays outside the memo: it is global backpressure, not
// warp state, and the unmemoized code returned early on it without running
// mergeStack — that ordering is preserved exactly. On a memo miss the stack
// merge and scoreboard walk run once and the verdict is cached until the
// next warp-state mutation resets issueState[w]; for a clean warp mergeStack
// is a provable no-op (pc/exited/mask only change through sites that reset
// the memo), so skipping it cannot alter timing.
func (s *SM) canIssue(w int) bool {
	if st := s.issueState[w]; st != issueUnknown {
		return st == issueReady && len(s.flights) < maxFlightsPerSM
	}
	wc := s.warps[w]
	if !wc.active || wc.done || wc.barrier {
		// Inactive/finished/waiting warps memoize as stalled too: every
		// transition out of those states runs through a memo-resetting site
		// (block launch/completion, barrier release).
		s.issueState[w] = issueStall
		return false
	}
	if len(s.flights) >= maxFlightsPerSM {
		return false
	}
	s.mergeStack(wc)
	ready := false
	if len(wc.stack) != 0 {
		ready = s.scoreboardReady(wc, s.instrAt(wc))
	}
	if ready {
		s.issueState[w] = issueReady
	} else {
		s.issueState[w] = issueStall
	}
	return ready
}

// maxFlightsPerSM bounds the number of in-flight warp instructions an SM
// tracks, standing in for finite pipeline buffering.
const maxFlightsPerSM = 96

func (s *SM) instrAt(wc *warpCtx) *isa.Instr {
	k := s.blocks[wc.block].info.Kernel
	return &k.Code[wc.stack[len(wc.stack)-1].pc]
}

// scoreboardReady checks RAW/WAW hazards against the per-warp scoreboard
// (logical register IDs, as in the baseline GPU and the WIR design).
func (s *SM) scoreboardReady(wc *warpCtx, in *isa.Instr) bool {
	for _, r := range in.Sources() {
		if wc.pendReg[r] > 0 {
			return false
		}
	}
	if in.HasDst() && wc.pendReg[in.Dst] > 0 {
		return false
	}
	if in.Pred != isa.PredNone && wc.pendPred[in.Pred] > 0 {
		return false
	}
	if in.PDst != isa.PredNone && wc.pendPred[in.PDst] > 0 {
		return false
	}
	return true
}

// mergeStack pops SIMT entries that reached their reconvergence point and
// drops fully-exited entries.
func (s *SM) mergeStack(wc *warpCtx) {
	for len(wc.stack) > 0 {
		top := &wc.stack[len(wc.stack)-1]
		top.mask &^= wc.exited
		if top.mask == 0 && len(wc.stack) > 1 {
			wc.stack = wc.stack[:len(wc.stack)-1]
			continue
		}
		if top.rpc >= 0 && top.pc == top.rpc {
			wc.stack = wc.stack[:len(wc.stack)-1]
			continue
		}
		if top.mask == 0 {
			// All lanes exited: the warp is done. This can fire inside
			// canIssue on a tick that issues nothing, so latch it for the
			// wake computation — block state changed under a quiet tick.
			wc.stack = wc.stack[:0]
			wc.done = true
			s.dirty = true
			s.checkBarrierRelease(wc.block)
			s.completeBlockIfDone(wc.block)
		}
		return
	}
}

// issueWarp issues the next instruction of warp w: control resolves
// immediately; everything else executes functionally and enters the pipeline
// as a Flight.
func (s *SM) issueWarp(w int) {
	wc := s.warps[w]
	s.issueState[w] = issueUnknown // pc and scoreboard are about to move
	top := &wc.stack[len(wc.stack)-1]
	pc := top.pc
	in := s.instrAt(wc)
	s.st.Issued++
	var rec *attr.PCStats
	if s.attr != nil {
		// Every issued instruction — control and fully-predicated-off ones
		// included — counts here, mirroring st.Issued, and is charged the
		// frontend energy the aggregate model charges per issue.
		rec = s.blocks[wc.block].atab.At(pc)
		rec.Issued++
		rec.EnergyPJ += s.attrCost.Frontend
	}
	var rrec *reuseprof.PCStats
	if s.rp != nil {
		// Resolved once here so the engine's reuse hooks are nil-safe method
		// calls on the flight, mirroring Attr.
		rrec = s.blocks[wc.block].rtab.At(pc)
	}
	if in.Op.IsFloat() {
		s.st.FPInstrs++
	}

	// Effective mask: SIMT mask AND guard predicate.
	mask := top.mask
	if in.Pred != isa.PredNone {
		pm := wc.preds[in.Pred]
		if in.PredNeg {
			pm = ^pm
		}
		if in.Op != isa.OpBra {
			mask &= pm
		}
	}

	if in.IsControl() {
		s.st.Control++
		if s.Hook != nil {
			s.Hook(in, nil, isa.Vec{}, mask, true)
		}
		s.executeControl(w, wc, in, pc)
		return
	}

	if mask == 0 {
		// Fully predicated off: consumes an issue slot, no backend work.
		if s.Hook != nil {
			s.Hook(in, nil, isa.Vec{}, mask, true)
		}
		top.pc++
		return
	}

	divergent := mask != isa.FullMask
	if divergent {
		s.st.Divergent++
	}
	if in.IsStore() {
		switch in.Space {
		case isa.SpaceGlobal:
			s.st.GlobalStores++
		case isa.SpaceShared:
			s.st.SharedStores++
		}
	}

	wc.issueSeq++
	fl := s.newFlight()
	fl.Warp = w
	fl.Block = wc.block
	fl.PC = pc
	fl.In = in
	fl.FU = in.Op.Unit()
	fl.Mask = mask
	fl.Divergent = divergent
	fl.Issued = s.now
	fl.SeqInWarp = wc.issueSeq
	fl.RBIndex = -1
	fl.Attr = rec
	fl.RProf = rrec
	srcs := s.execute(wc, fl)
	if s.Hook != nil {
		s.Hook(in, srcs, fl.Result, mask, in.IsStore() || !in.Reusable())
	}

	// Scoreboard reservation.
	if in.HasDst() {
		wc.pendReg[in.Dst]++
	}
	if (in.Op == isa.OpISetP || in.Op == isa.OpFSetP) && in.PDst != isa.PredNone {
		wc.pendPred[in.PDst]++
	}
	wc.inflight++
	top.pc++

	s.emit(trace.KindIssue, fl)
	if s.eng.Reuse() {
		fl.Stage = core.StageRename
		fl.ReadyAt = s.now + uint64(s.frontDelay())
	} else {
		s.eng.Rename(fl) // static mapping: resolve bank addresses immediately
		fl.Stage = core.StageRead
		fl.ReadyAt = s.now + 1
	}
	s.flights = append(s.flights, fl)
}

// frontDelay and backDelay split the configured extra backend latency across
// the front (rename+reuse) and back (allocation) halves of the added
// pipeline.
func (s *SM) frontDelay() int {
	d := s.cfg.BackendDelay / 2
	if d < 1 {
		d = 1
	}
	return d
}

func (s *SM) backDelay() int {
	d := s.cfg.BackendDelay - s.cfg.BackendDelay/2
	if d < 1 {
		d = 1
	}
	return d
}

// executeControl resolves branches, barriers, fences and exits at issue.
func (s *SM) executeControl(w int, wc *warpCtx, in *isa.Instr, pc int) {
	top := &wc.stack[len(wc.stack)-1]
	switch in.Op {
	case isa.OpJmp:
		top.pc = in.Target
	case isa.OpBra:
		pm := isa.FullMask
		if in.Pred != isa.PredNone {
			pm = wc.preds[in.Pred]
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
			// Divergence: the current entry becomes the reconvergence entry;
			// the not-taken and taken paths execute as children (taken side
			// first).
			join := in.Join
			top.pc = join
			wc.stack = append(wc.stack,
				simtEntry{pc: pc + 1, rpc: join, mask: ntaken},
				simtEntry{pc: in.Target, rpc: join, mask: taken},
			)
		}
	case isa.OpBar:
		s.st.Barriers++
		top.pc = pc + 1
		wc.barrier = true
		s.blocks[wc.block].arrived++
		s.checkBarrierRelease(wc.block)
	case isa.OpMemF:
		s.st.Barriers++
		top.pc = pc + 1
		// A fence advances the block's reuse barrier count but clears only
		// the fencing warp's own store flags; other warps' hazards persist.
		s.eng.OnBarrier(wc.block, []int{w})
	case isa.OpExit:
		wc.exited |= top.mask
		top.pc = pc + 1
		s.mergeStack(wc)
	case isa.OpNop:
		top.pc = pc + 1
	}
}
