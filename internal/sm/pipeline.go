package sm

import (
	"github.com/wirsim/wir/internal/chaos"
	"github.com/wirsim/wir/internal/core"
	"github.com/wirsim/wir/internal/hostprof"
	"github.com/wirsim/wir/internal/isa"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/reuse"
	"github.com/wirsim/wir/internal/trace"
)

// advanceFlights walks the in-flight instructions in age order and advances
// each by at most one stage transition per cycle, arbitrating the shared
// resources (rename/reuse slots, register bank ports, FU dispatch slots).
func (s *SM) advanceFlights(renameSlots, reuseSlots *int) {
	spSlots := s.cfg.SchedulersPerSM // one SP pipeline per scheduler
	sfuSlots := 1
	memSlots := 1

	kept := s.flights[:0]
	for _, fl := range s.flights {
		done := false
		switch fl.Stage {
		case core.StageRename:
			if s.now >= fl.ReadyAt && *renameSlots > 0 {
				*renameSlots--
				s.eng.Rename(fl)
				s.eng.ComputeTag(fl)
				fl.Stage = core.StageReuse
				fl.ReadyAt = s.now + 1
			}
		case core.StageReuse:
			if s.now >= fl.ReadyAt && *reuseSlots > 0 {
				*reuseSlots--
				t0 := s.hp.Open()
				s.reuseStage(fl)
				s.hp.Close(hostprof.PhaseSMReuse, t0)
				if fl.Stage == core.StageWaiting {
					// Parked in the pending queue; tracked there.
					continue
				}
			}
		case core.StageRead:
			if s.now >= fl.ReadyAt {
				s.readAndDispatch(fl, &spSlots, &sfuSlots, &memSlots)
			}
		case core.StageExec:
			if fl.MemPending {
				s.injectMemLines(fl)
			}
			if s.now >= fl.ReadyAt && !fl.MemPending {
				fl.Stage = core.StageAlloc
				back := uint64(s.backDelay())
				if !s.eng.Reuse() {
					back = 1
				}
				fl.ReadyAt = s.now + back - 1
			}
		case core.StageAlloc:
			if s.now >= fl.ReadyAt && s.eng.AllocStep(fl) {
				if fl.DummyMov {
					s.st.DummyMovs++
					if fl.Attr != nil && s.attrCost != nil {
						// The dummy MOV is frontend work plus one bank read
						// and one bank write, charged to the PC whose
						// divergent redefine injected it.
						fl.Attr.DummyMovs++
						fl.Attr.EnergyPJ += s.attrCost.Frontend + 2*rfBanksPerAccess*s.attrCost.RFBank
					}
					s.dummies = append(s.dummies, dummyOp{src: fl.DummySrc, dst: fl.DstPhys, rec: fl.Attr})
					s.emit(trace.KindDummy, fl)
				}
				fl.Stage = core.StageRetire
				fl.ReadyAt = s.now + 1
			}
		case core.StageRetire:
			if s.now >= fl.ReadyAt {
				if s.chaos.RollWedge() {
					// Drop the flight without retiring: the scoreboard never
					// clears and the warp wedges, which the watchdog must
					// convert into a diagnostic. The dropped flight is not
					// recycled — the diagnosis is worth more than the object.
					s.chaos.Note(chaos.Wedge, false)
					done = true
					break
				}
				s.retire(fl)
				done = true
				// Every observer of the retired flight (engine, hooks, trace)
				// copies what it needs synchronously, so the object can go
				// straight back to the pool.
				s.recycleFlight(fl)
			}
		}
		if !done {
			kept = append(kept, fl)
		}
	}
	s.flights = kept
}

// newFlight returns a zeroed Flight, reusing a pooled one when available so
// the steady-state issue path performs no heap allocation. Pooled flights
// keep the backing arrays their MemLines/Refs slices grew in earlier trips
// through the pipeline.
func (s *SM) newFlight() *core.Flight {
	if n := len(s.pool); n > 0 {
		fl := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return fl
	}
	return &core.Flight{}
}

// recycleFlight resets a retired flight and returns it to the pool.
func (s *SM) recycleFlight(fl *core.Flight) {
	fl.Reset()
	s.pool = append(s.pool, fl)
}

// reuseStage runs the reuse-buffer stage of fl: ineligible instructions fall
// through to operand read; eligible ones look up the buffer and either bypass
// (hit), park in the pending queue (pending hit), or continue to execution
// (miss, possibly reserving the slot).
func (s *SM) reuseStage(fl *core.Flight) {
	if !fl.TagOK {
		fl.Stage = core.StageRead
		fl.ReadyAt = s.now + 1
		return
	}
	switch s.eng.ReuseLookup(fl) {
	case reuse.Hit:
		s.emit(trace.KindBypass, fl)
		fl.Stage = core.StageRetire
		fl.ReadyAt = s.now + 1
	case reuse.PendingHit:
		if len(s.pendingQ) < s.cfg.PendingQueueSize {
			fl.PendingWait = true
			fl.PendingSince = s.now
			fl.Stage = core.StageWaiting
			s.pendingQ = append(s.pendingQ, fl)
		} else {
			s.st.PendingDrops++
			fl.Stage = core.StageRead
			fl.ReadyAt = s.now + 1
		}
	default: // miss
		fl.Stage = core.StageRead
		fl.ReadyAt = s.now + 1
	}
}

// checkPendingQueue lets the head of the pending-retry queue re-access the
// reuse buffer when the reuse stage has a spare slot this cycle (paper
// section VI-B: "when there is no new instruction from the rename stage").
func (s *SM) checkPendingQueue(reuseSlots *int) {
	if len(s.pendingQ) == 0 || *reuseSlots <= 0 {
		return
	}
	*reuseSlots--
	fl := s.pendingQ[0]
	// Shift rather than reslice: the queue's backing array must stay put so
	// steady-state re-queueing never reallocates. The queue is small (bounded
	// by PendingQueueSize), so the copy is cheaper than the allocation churn.
	copy(s.pendingQ, s.pendingQ[1:])
	s.pendingQ = s.pendingQ[:len(s.pendingQ)-1]
	resolved, still := s.eng.CheckPending(fl)
	if !still && s.mx != nil {
		s.mx.PendingWait.Observe(s.now - fl.PendingSince)
	}
	switch {
	case resolved:
		s.emit(trace.KindBypass, fl)
		fl.Stage = core.StageRetire
		fl.ReadyAt = s.now + 1
		s.flights = append(s.flights, fl)
	case still:
		s.pendingQ = append(s.pendingQ, fl) // re-queued, retry later
	default:
		// The pending entry was lost; fall through to execution.
		fl.Stage = core.StageRead
		fl.ReadyAt = s.now + 1
		s.flights = append(s.flights, fl)
	}
}

// readAndDispatch collects register operands through the bank arbiter and,
// once complete, dispatches the instruction to its functional unit.
func (s *SM) readAndDispatch(fl *core.Flight, spSlots, sfuSlots, memSlots *int) {
	if !fl.Dispatched {
		srcs := fl.DistinctSources()
		for fl.SrcRead < len(srcs) {
			p := srcs[fl.SrcRead]
			if !s.rf.TryRead(p) {
				s.st.BankRetries++
				fl.Blocked = core.BlockBank
				fl.Retries++
				return
			}
			s.st.RFReads++
			if s.eng.Model().AffineTracking() && s.rf.Affine(p) {
				s.st.AffineRegOps++
			}
			fl.SrcRead++
		}
		// Dispatch to the functional unit.
		switch fl.FU {
		case isa.FUSP:
			if *spSlots <= 0 {
				fl.Blocked = core.BlockFU
				return
			}
			*spSlots--
			s.st.SPOps++
			if s.eng.Model().AffineTracking() && s.affineExecutable(fl) {
				s.st.AffineFUOps++
			}
			fl.ReadyAt = s.now + uint64(fl.In.Op.Latency())
		case isa.FUSFU:
			if *sfuSlots <= 0 {
				fl.Blocked = core.BlockFU
				return
			}
			*sfuSlots--
			s.st.SFUOps++
			fl.ReadyAt = s.now + uint64(fl.In.Op.Latency())
		case isa.FUMem:
			if *memSlots <= 0 {
				fl.Blocked = core.BlockFU
				return
			}
			*memSlots--
			s.st.MemOps++
			s.startMemAccess(fl)
		}
		fl.Blocked = core.BlockNone
		fl.Dispatched = true
		fl.Stage = core.StageExec
		s.st.Backend++
		s.emit(trace.KindDispatch, fl)
	}
}

// affineExecutable reports whether the Affine machine can execute fl at
// single-lane energy: an affine-preserving opcode whose register inputs and
// output are all affine (section VII-A).
func (s *SM) affineExecutable(fl *core.Flight) bool {
	switch fl.In.Op {
	case isa.OpMov, isa.OpMovI, isa.OpIAdd, isa.OpISub, isa.OpIMul:
	default:
		return false
	}
	if !fl.HasResult || !isAffineVec(fl.Result) {
		return false
	}
	for i := 0; i < fl.In.NSrc; i++ {
		if !s.rf.Affine(fl.SrcPhys[i]) {
			return false
		}
	}
	return true
}

func isAffineVec(v isa.Vec) bool {
	stride := v[1] - v[0]
	for i := 2; i < isa.WarpSize; i++ {
		if v[i]-v[i-1] != stride {
			return false
		}
	}
	return true
}

// startMemAccess begins the memory-system portion of a load or store.
func (s *SM) startMemAccess(fl *core.Flight) {
	base := s.now + uint64(fl.In.Op.Latency())
	switch fl.MemSpace {
	case isa.SpaceShared:
		s.st.SharedAcc += uint64(fl.MemConflicts)
		fl.ReadyAt = base + mem.SharedLatency + uint64(fl.MemConflicts-1)
		fl.MemIdx = len(fl.MemLines)
	case isa.SpaceGlobal, isa.SpaceConst, isa.SpaceTex:
		fl.MemIdx = 0
		fl.MemMaxDone = base
		fl.ReadyAt = base
		s.injectMemLines(fl)
	default:
		fl.ReadyAt = base
	}
}

// injectMemLines feeds the instruction's coalesced lines into the memory
// system, resuming across cycles when MSHRs fill up. The memory-system time
// is charged to the mem phase when profiling.
func (s *SM) injectMemLines(fl *core.Flight) {
	t0 := s.hp.Open()
	s.injectMemLinesWork(fl)
	s.hp.Close(hostprof.PhaseSMMem, t0)
}

func (s *SM) injectMemLinesWork(fl *core.Flight) {
	for fl.MemIdx < len(fl.MemLines) {
		l := fl.MemLines[fl.MemIdx]
		var done uint64
		switch {
		case fl.MemSpace == isa.SpaceGlobal && fl.In.IsStore():
			done = s.ms.AccessGlobalStore(s.ID, l, s.now)
			// Stores release the warp after the pipeline latency; the memory
			// system finishes in the background.
			done = s.now + mem.L1HitLatency
		case fl.MemSpace == isa.SpaceGlobal:
			d, ok := s.ms.AccessGlobalLoad(s.ID, l, s.now)
			if !ok {
				fl.Blocked = core.BlockMSHR
				fl.MemPending = true
				return // MSHRs full; retry next cycle
			}
			done = d
		case fl.MemSpace == isa.SpaceConst:
			done = s.ms.AccessConst(s.ID, l, s.now)
		case fl.MemSpace == isa.SpaceTex:
			done = s.ms.AccessTex(s.ID, l, s.now)
		}
		if done > fl.MemMaxDone {
			fl.MemMaxDone = done
		}
		fl.MemIdx++
	}
	fl.MemPending = false
	fl.Blocked = core.BlockNone
	if fl.MemMaxDone > fl.ReadyAt {
		fl.ReadyAt = fl.MemMaxDone
	}
}

// retire completes fl: the engine updates rename/reuse state, the scoreboard
// clears, and statistics are recorded.
func (s *SM) retire(fl *core.Flight) {
	wc := s.warps[fl.Warp]
	if fl.ChaosDirty {
		// A bypassed dirty flight took the donor's clean value instead of the
		// corrupted result, so the fault healed architecturally.
		s.chaos.Note(chaos.OperandBit, !fl.Bypassed)
	}
	s.eng.Retire(fl)
	s.st.Retired++
	if s.Retire != nil {
		t0 := s.hp.Open()
		s.Retire(s.retireEvent(wc, fl))
		s.hp.Close(hostprof.PhaseSMHooks, t0)
	}
	s.emit(trace.KindRetire, fl)
	if s.mx != nil {
		s.mx.IssueLatency.Observe(s.now - fl.Issued)
		s.mx.BankRetries.Observe(uint64(fl.Retries))
	}
	if fl.Attr != nil {
		fl.Attr.Cycles += s.now - fl.Issued
		fl.Attr.BankRetries += uint64(fl.Retries)
		if fl.Bypassed {
			fl.Attr.Bypassed++
		}
		if s.attrCost != nil {
			fl.Attr.EnergyPJ += s.backendEnergy(fl)
		}
	}
	in := fl.In
	if in.HasDst() {
		wc.pendReg[in.Dst]--
	}
	if (in.Op == isa.OpISetP || in.Op == isa.OpFSetP) && in.PDst != isa.PredNone {
		wc.pendPred[in.PDst]--
	}
	s.issueState[fl.Warp] = issueUnknown // a released scoreboard slot may unblock the warp
	if fl.Bypassed {
		s.st.Bypassed++
		s.st.RFReadsSaved += uint64(in.NSrc)
		s.st.RFWritesSav++
		if in.IsLoad() {
			s.st.LoadsReused++
		}
	}
	wc.inflight--
	fl.Stage = core.StageDone
	if wc.done {
		s.completeBlockIfDone(wc.block)
	}
}

// rfBanksPerAccess is the number of 128-bit banks one full-width warp
// register access touches (mirrors the aggregate energy model's factor).
const rfBanksPerAccess = 8

// backendEnergy estimates the backend dynamic energy of one retired flight
// for per-PC attribution: register-bank traffic (operand reads, the result
// write if one was performed, and a bank verify-read if one happened), plus
// the functional-unit or memory-path activation. Bypassed flights did none
// of this and cost only their frontend issue, charged at issue time. This is
// a documented estimate of baseline-SM dynamic energy — WIR-structure and
// static terms stay whole-run in the aggregate model.
func (s *SM) backendEnergy(fl *core.Flight) float64 {
	c := s.attrCost
	e := float64(fl.SrcRead) * rfBanksPerAccess * c.RFBank
	if fl.NeedWrite {
		e += rfBanksPerAccess * c.RFBank
	}
	if fl.VerifiedBank {
		e += rfBanksPerAccess * c.RFBank
	}
	if !fl.Dispatched {
		return e
	}
	switch fl.In.Op.Unit() {
	case isa.FUSP:
		e += float64(isa.WarpSize) * c.SPLane
	case isa.FUSFU:
		e += float64(isa.WarpSize) * c.SFULane
	case isa.FUMem:
		e += c.MemPipe
		switch fl.MemSpace {
		case isa.SpaceShared:
			e += float64(fl.MemConflicts) * c.SharedAcc
		case isa.SpaceGlobal:
			e += float64(len(fl.MemLines)) * c.L1DAcc
		case isa.SpaceConst:
			e += float64(len(fl.MemLines)) * c.ConstAcc
		case isa.SpaceTex:
			e += float64(len(fl.MemLines)) * c.TexAcc
		}
	}
	return e
}
