package metrics

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/wirsim/wir/internal/stats"
)

// SampleSchema identifies the JSONL interval time-series format; bump on any
// incompatible change.
const SampleSchema = "wir-intervals/1"

// Sample is one interval of the time series: the counter activity within
// (Start, End] plus the derived per-interval rates the paper's evaluation
// plots over time.
type Sample struct {
	Index int    `json:"i"`
	Start uint64 `json:"start"` // exclusive
	End   uint64 `json:"end"`   // inclusive

	// Derived rates for the interval. IPC is per SM (the simulator's SMs run
	// in lockstep, so interval cycles are wall cycles).
	IPC         float64 `json:"ipc"`
	BypassRate  float64 `json:"bypass_rate"`
	VSBHitRate  float64 `json:"vsb_hit_rate"`
	RFTraffic   float64 `json:"rf_traffic"` // RF reads+writes per cycle
	L1DMissRate float64 `json:"l1d_miss_rate"`

	// Counters is the per-field delta of stats.Sim over the interval.
	Counters map[string]uint64 `json:"counters"`

	delta stats.Sim
}

// Sampler snapshots cumulative run statistics every Every cycles and keeps
// the per-interval deltas. It is driven from the simulation loop (GPU.Run),
// so it sees a coherent view of the non-atomic stats counters; the optional
// Registry receives headline gauges at each boundary for live scraping.
type Sampler struct {
	Every    uint64
	Registry *Registry // optional: publish headline gauges per interval
	NumSMs   int       // for per-SM IPC; 0 treats the chip as one SM

	samples   []Sample
	prev      stats.Sim
	prevCycle uint64
	flushed   bool
}

// NewSampler returns a sampler with the given interval length in cycles
// (minimum 1).
func NewSampler(every uint64) *Sampler {
	if every == 0 {
		every = 1
	}
	return &Sampler{Every: every}
}

// Due reports whether cycle is an interval boundary. Nil-safe.
func (sp *Sampler) Due(cycle uint64) bool {
	return sp != nil && cycle > sp.prevCycle && (cycle-sp.prevCycle) >= sp.Every
}

// NextDue returns the first cycle at which Due will report true — the
// upcoming interval boundary — or the maximum cycle when no sampler is
// attached. The event-driven stepper clamps fast-forward jumps to this so
// every interval is closed at exactly the cycle dense stepping would close
// it at.
func (sp *Sampler) NextDue() uint64 {
	if sp == nil {
		return ^uint64(0)
	}
	return sp.prevCycle + sp.Every
}

// Observe closes the interval ending at cycle with the cumulative counters
// cum. Call at interval boundaries; Flush closes the final partial interval.
func (sp *Sampler) Observe(cycle uint64, cum stats.Sim) {
	if sp == nil || cycle <= sp.prevCycle {
		return
	}
	d := stats.Delta(&cum, &sp.prev)
	cycles := cycle - sp.prevCycle
	sms := sp.NumSMs
	if sms <= 0 {
		sms = 1
	}
	s := Sample{
		Index:       len(sp.samples),
		Start:       sp.prevCycle,
		End:         cycle,
		IPC:         float64(d.Issued) / float64(cycles) / float64(sms),
		BypassRate:  stats.Ratio(d.Bypassed, d.Issued),
		VSBHitRate:  stats.Ratio(d.VSBHits, d.VSBLookups),
		RFTraffic:   float64(d.RFReads+d.RFWrites) / float64(cycles),
		L1DMissRate: stats.Ratio(d.L1DMisses, d.L1DAccesses),
		Counters:    d.Map(),
		delta:       d,
	}
	sp.samples = append(sp.samples, s)
	sp.prev = cum
	sp.prevCycle = cycle

	if r := sp.Registry; r != nil {
		r.Gauge("wir_interval_ipc").Set(s.IPC)
		r.Gauge("wir_interval_bypass_rate").Set(s.BypassRate)
		r.Gauge("wir_interval_vsb_hit_rate").Set(s.VSBHitRate)
		r.Gauge("wir_interval_rf_traffic").Set(s.RFTraffic)
		r.Gauge("wir_interval_l1d_miss_rate").Set(s.L1DMissRate)
		r.SetCounter("wir_cycles", cycle)
		r.SetCounter("wir_instructions_issued", cum.Issued)
		r.SetCounter("wir_instructions_bypassed", cum.Bypassed)
	}
}

// Flush closes the final partial interval so the recorded intervals cover
// the whole run: the summed interval counters then reconcile exactly with
// the final cumulative totals. Idempotent for the same (cycle, cum).
func (sp *Sampler) Flush(cycle uint64, cum stats.Sim) {
	if sp == nil {
		return
	}
	if cycle > sp.prevCycle {
		sp.Observe(cycle, cum)
	}
	sp.flushed = true
}

// Samples returns the recorded intervals.
func (sp *Sampler) Samples() []Sample {
	if sp == nil {
		return nil
	}
	return sp.samples
}

// SumDeltas accumulates every recorded interval's raw delta; after Flush
// this equals the run's final cumulative counters (fields summed, including
// the max-semantics fields, whose deltas telescope the same way).
func (sp *Sampler) SumDeltas() stats.Sim {
	var total stats.Sim
	if sp == nil {
		return total
	}
	for _, s := range sp.samples {
		total.Add(&s.delta)
	}
	// Add uses max semantics for Cycles/RegUtilPeak; overwrite with the
	// telescoped sums so reconciliation is exact.
	total.Cycles = 0
	total.RegUtilPeak = 0
	for _, s := range sp.samples {
		total.Cycles += s.delta.Cycles
		total.RegUtilPeak += s.delta.RegUtilPeak
	}
	return total
}

// intervalHeader is the first JSONL line of an exported time series.
type intervalHeader struct {
	Schema   string `json:"schema"`
	Interval uint64 `json:"interval"`
	NumSMs   int    `json:"sms,omitempty"`
}

// WriteJSONL writes the time series as JSON lines: a schema header followed
// by one Sample object per interval.
func (sp *Sampler) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(intervalHeader{Schema: SampleSchema, Interval: sp.Every, NumSMs: sp.NumSMs}); err != nil {
		return err
	}
	for i := range sp.samples {
		if err := enc.Encode(&sp.samples[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a time series written by WriteJSONL, validating the
// schema header.
func ReadJSONL(r io.Reader) ([]Sample, error) {
	dec := json.NewDecoder(r)
	var hdr intervalHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("metrics: reading interval header: %w", err)
	}
	if hdr.Schema != SampleSchema {
		return nil, fmt.Errorf("metrics: unsupported interval schema %q (want %q)", hdr.Schema, SampleSchema)
	}
	var out []Sample
	for {
		var s Sample
		if err := dec.Decode(&s); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("metrics: reading interval %d: %w", len(out), err)
		}
		out = append(out, s)
	}
}
