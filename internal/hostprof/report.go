package hostprof

import (
	"encoding/json"
	"io"
	"runtime"

	wmetrics "github.com/wirsim/wir/internal/metrics"
)

// Schema identifies the host-profile report format.
const Schema = "wir-hostprof/1"

// PhaseReport is one phase's accumulated self time in the report.
type PhaseReport struct {
	Phase      string  `json:"phase"`
	WallMS     float64 `json:"wall_ms"`
	Count      uint64  `json:"count,omitempty"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"` // driver phases only
}

// SMReport is one SM's phase breakdown and quiescence telemetry.
type SMReport struct {
	SM     int           `json:"sm"`
	Phases []PhaseReport `json:"phases"`

	Ticks uint64 `json:"ticks"`
	Quiet uint64 `json:"quiet_ticks"`
	Idle  uint64 `json:"idle_ticks"`

	// QuietStreaks is the log2 run-length histogram of consecutive quiet
	// ticks: its Sum equals Quiet and its Count is the number of streaks.
	QuietStreaks wmetrics.HistogramSnapshot `json:"quiet_streaks"`

	// Per-warp-slot occupancy, summed across slots for compactness.
	WarpResidentTicks uint64 `json:"warp_resident_ticks"`
	WarpBusyTicks     uint64 `json:"warp_busy_ticks"`
}

// Quiescence is the run-level quiescence summary.
type Quiescence struct {
	// SkipOpportunity is the headline number: the fraction of (SM, cycle)
	// ticks that did no work, i.e. the upper bound on the tick volume an
	// event-driven stepper could skip.
	SkipOpportunity float64 `json:"skip_opportunity"`
	// IdleFraction is the stricter subset: ticks with no resident work at
	// all, skippable without any wakeup bookkeeping.
	IdleFraction float64 `json:"idle_fraction"`
	TotalTicks   uint64  `json:"total_ticks"`
	QuietTicks   uint64  `json:"quiet_ticks"`
	IdleTicks    uint64  `json:"idle_ticks"`
	// MeanQuietStreak is the average length of a quiet run (cycles).
	MeanQuietStreak float64 `json:"mean_quiet_streak"`
}

// Report is the top-level wir-hostprof/1 document.
type Report struct {
	Schema string `json:"schema"`

	// Provenance of the measuring host.
	GoVersion  string `json:"go_version"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Runs      uint64  `json:"runs"`
	RunWallMS float64 `json:"run_wall_ms"`

	// Driver is the driver-goroutine partition of the run loop; its phases'
	// wall times sum to RunWallMS (exactly, up to clock resolution).
	Driver []PhaseReport `json:"driver"`

	// SMs breaks the "step" driver phase down per SM and carries the
	// quiescence counters.
	SMs []SMReport `json:"sms"`

	Quiescence Quiescence `json:"quiescence"`
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// Report renders the collector's accumulated data. It flushes in-progress
// quiet streaks, so call it after all runs complete.
func (c *Collector) Report() *Report {
	r := &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Runs:       c.runs,
		RunWallMS:  msOf(c.runNS),
	}
	for ph := PhaseDispatch; ph <= PhaseTelemetry; ph++ {
		r.Driver = append(r.Driver, PhaseReport{
			Phase:      ph.String(),
			WallMS:     msOf(c.dwall[ph]),
			Count:      c.dcount[ph],
			AllocBytes: c.dalloc[ph],
		})
	}
	var q Quiescence
	streaks := wmetrics.NewHistogram()
	for i, sp := range c.sms {
		sp.FlushStreak()
		sr := SMReport{
			SM:           i,
			Ticks:        sp.Ticks,
			Quiet:        sp.Quiet,
			Idle:         sp.Idle,
			QuietStreaks: sp.Streaks.Snapshot(),
		}
		for ph := PhaseSMRegfile; ph < Phase(NumPhases); ph++ {
			sr.Phases = append(sr.Phases, PhaseReport{
				Phase:  ph.String(),
				WallMS: msOf(sp.wall[ph]),
				Count:  sp.count[ph],
			})
		}
		for _, n := range sp.WarpResident {
			sr.WarpResidentTicks += n
		}
		for _, n := range sp.WarpBusy {
			sr.WarpBusyTicks += n
		}
		r.SMs = append(r.SMs, sr)
		q.TotalTicks += sp.Ticks
		q.QuietTicks += sp.Quiet
		q.IdleTicks += sp.Idle
		streaks.Merge(sp.Streaks)
	}
	if q.TotalTicks > 0 {
		q.SkipOpportunity = float64(q.QuietTicks) / float64(q.TotalTicks)
		q.IdleFraction = float64(q.IdleTicks) / float64(q.TotalTicks)
	}
	q.MeanQuietStreak = streaks.Mean()
	r.Quiescence = q
	return r
}

// SkipOpportunity recomputes the headline quiescence fraction without
// rendering a full report.
func (c *Collector) SkipOpportunity() float64 {
	var ticks, quiet uint64
	for _, sp := range c.sms {
		ticks += sp.Ticks
		quiet += sp.Quiet
	}
	if ticks == 0 {
		return 0
	}
	return float64(quiet) / float64(ticks)
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
