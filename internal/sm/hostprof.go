package sm

import (
	"github.com/wirsim/wir/internal/core"
	"github.com/wirsim/wir/internal/hostprof"
)

// SetHostProf attaches (or detaches, with nil) the host-side phase profiler
// for this SM. With one attached, Tick times each phase of the cycle and
// classifies the tick for quiescence telemetry. The profiler only reads
// simulator state — simulation outputs are bit-identical either way.
func (s *SM) SetHostProf(p *hostprof.SMProf) { s.hp = p }

// hasWork reports whether the SM has dummy-MOV or pending-retry traffic, or
// an in-flight instruction that can make a stage transition (or inject memory
// lines) this cycle: the entry half of the "did this tick do work"
// classification.
func (s *SM) hasWork() bool {
	if len(s.dummies) > 0 || len(s.pendingQ) > 0 {
		return true
	}
	for _, fl := range s.flights {
		if s.now >= fl.ReadyAt {
			return true
		}
		if fl.Stage == core.StageExec && fl.MemPending {
			return true
		}
	}
	return false
}

// observeQuiescence classifies the completed tick and samples warp-slot
// occupancy. A tick is quiet when the SM had no actionable flight, dummy, or
// pending-retry work at entry and issued nothing — i.e. the whole tick was
// bookkeeping an event-driven stepper could skip.
func (s *SM) observeQuiescence(hadWork bool, issuedBefore uint64) {
	active := hadWork || s.st.Issued != issuedBefore
	s.hp.ObserveTick(active, s.Idle())
	for w, wc := range s.warps {
		if wc.active && !wc.done {
			s.hp.WarpResident[w]++
			if wc.inflight > 0 {
				s.hp.WarpBusy[w]++
			}
		}
	}
}
