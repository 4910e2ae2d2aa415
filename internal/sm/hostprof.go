package sm

import (
	"github.com/wirsim/wir/internal/core"
	"github.com/wirsim/wir/internal/hostprof"
)

// SetHostProf attaches (or detaches, with nil) the host-side phase profiler
// for this SM. With none attached, Tick pays a single nil check; with one
// attached, Tick runs the profiled variant, which times each phase of the
// cycle and classifies the tick for quiescence telemetry. The profiler only
// reads simulator state — simulation outputs are bit-identical either way.
func (s *SM) SetHostProf(p *hostprof.SMProf) { s.hp = p }

// tickProfiled is Tick with phase laps and quiescence classification. It must
// mirror Tick's sequence exactly; the conformance suite holds the two paths
// bit-identical.
func (s *SM) tickProfiled() {
	hp := s.hp
	issuedBefore := s.st.Issued
	s.dirty = false

	s.now++
	// hadWork is latched after the cycle increment so the ReadyAt comparison
	// sees the same clock the phases below will.
	hadWork := len(s.dummies) > 0 || len(s.pendingQ) > 0 || s.anyFlightActionable()

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
		// Mirrors Tick's sampling point exactly (after utilization, inside
		// the same cycle) so the series is identical under either path.
		s.rp.ObserveCycle(s.eng.ReuseOccupancy(), s.now)
	}
	s.observeQuiescence(hp, hadWork, issuedBefore)
	s.computeWake(issuedBefore)
	hp.Lap(hostprof.PhaseSMOther)
}

// anyFlightActionable reports whether any in-flight instruction can make a
// stage transition (or inject memory lines) this cycle — the flight-side half
// of the "did this tick do work" classification.
func (s *SM) anyFlightActionable() bool {
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
func (s *SM) observeQuiescence(hp *hostprof.SMProf, hadWork bool, issuedBefore uint64) {
	active := hadWork || s.st.Issued != issuedBefore
	hp.ObserveTick(active, s.Idle())
	for w, wc := range s.warps {
		if wc.active && !wc.done {
			hp.WarpResident[w]++
			if wc.inflight > 0 {
				hp.WarpBusy[w]++
			}
		}
	}
}
