package metrics

import (
	"encoding/json"
	"io"

	"github.com/wirsim/wir/internal/stats"
)

// ReportSchema identifies the machine-readable stats report format.
const ReportSchema = "wir-stats/1"

// Report is the machine-readable end-of-run report emitted by
// `wirsim -stats json` and the CI benchmark smoke step. Counters carries the
// full stats.Sim by field name; Derived the headline rates; Stalls the issue
// stall attribution; Histograms the instrument snapshots.
type Report struct {
	Schema    string `json:"schema"`
	Benchmark string `json:"benchmark,omitempty"`
	Model     string `json:"model"`
	SMs       int    `json:"sms"`
	Cycles    uint64 `json:"cycles"`
	// ConfigHash is the canonical 16-hex content address of this run's cache
	// key (harness.KeyHash of harness.RunKey): the same token the single-flight
	// cache and the wirserve result store key by, so a client can match a
	// report to a store entry byte-for-byte.
	ConfigHash string `json:"config_hash,omitempty"`

	Counters map[string]uint64  `json:"counters"`
	Derived  map[string]float64 `json:"derived"`

	StallAttribution *StallSection                `json:"stall_attribution,omitempty"`
	Histograms       map[string]HistogramSnapshot `json:"histograms,omitempty"`
	RFBankConflicts  []uint64                     `json:"rf_bank_conflicts_per_group,omitempty"`
	Energy           map[string]float64           `json:"energy_uj,omitempty"`
	// Hotspots is the per-PC attribution top-N (internal/attr), present when
	// attribution was attached to the run.
	Hotspots []Hotspot `json:"hotspots,omitempty"`
}

// Hotspot is one merged per-PC attribution record, ranked by attributed
// cycles. It lives here (not in internal/attr) so the report schema has no
// dependency on the collection machinery.
type Hotspot struct {
	Kernel      string  `json:"kernel"`
	PC          int     `json:"pc"`
	Op          string  `json:"op"` // disassembly of the instruction
	Issued      uint64  `json:"issued"`
	Bypassed    uint64  `json:"bypassed,omitempty"`
	ReuseHits   uint64  `json:"reuse_hits,omitempty"`
	ReuseMisses uint64  `json:"reuse_misses,omitempty"`
	VSBFalsePos uint64  `json:"vsb_false_pos,omitempty"`
	DummyMovs   uint64  `json:"dummy_movs,omitempty"`
	BankRetries uint64  `json:"bank_retries,omitempty"`
	Cycles      uint64  `json:"cycles"`
	EnergyPJ    float64 `json:"energy_pj"`
	StallCycles uint64  `json:"stall_cycles"`
	// ShadowHits and LostReuse are filled by the reuse profiler
	// (internal/reuseprof) when attached: lookups an infinite-capacity reuse
	// buffer would have served, and how far achieved reuse falls short.
	ShadowHits uint64 `json:"shadow_hits,omitempty"`
	LostReuse  uint64 `json:"lost_reuse,omitempty"`
}

// StallSection is the JSON rendering of a StallReport.
type StallSection struct {
	SchedSlotCycles uint64             `json:"sched_slot_cycles"`
	IssueCycles     uint64             `json:"issue_cycles"`
	StallCycles     uint64             `json:"stall_cycles"`
	Reasons         map[string]uint64  `json:"reasons"`
	Fractions       map[string]float64 `json:"fractions"` // of non-issue cycles; sums to 1.0
}

// NewReport builds a report skeleton from the final counters: Counters and
// Derived are filled; the caller attaches stalls, histograms and energy.
func NewReport(benchmark, model string, sms int, st *stats.Sim) *Report {
	return &Report{
		Schema:    ReportSchema,
		Benchmark: benchmark,
		Model:     model,
		SMs:       sms,
		Cycles:    st.Cycles,
		Counters:  st.Map(),
		Derived: map[string]float64{
			"ipc_per_sm":     stats.Ratio(st.Issued, st.Cycles) / float64(maxIntR(sms, 1)),
			"bypass_rate":    st.BypassRate(),
			"fp_rate":        st.FPRate(),
			"vsb_hit_rate":   st.VSBHitRate(),
			"reuse_hit_rate": st.ReuseHitRate(),
			"l1d_miss_rate":  st.L1DMissRate(),
			"avg_reg_util":   st.AvgRegUtil(),
		},
	}
}

// AttachStalls fills the stall-attribution section from a StallReport.
func (r *Report) AttachStalls(sr *StallReport) {
	if sr == nil {
		return
	}
	r.StallAttribution = &StallSection{
		SchedSlotCycles: sr.SchedSlotCycles,
		IssueCycles:     sr.IssueCycles,
		StallCycles:     sr.StallCycles(),
		Reasons:         sr.Named(),
		Fractions:       sr.Fractions(),
	}
}

// AttachInstruments snapshots the instrument histograms into the report.
func (r *Report) AttachInstruments(ins *Instruments) {
	if ins == nil {
		return
	}
	r.Histograms = map[string]HistogramSnapshot{
		"reuse_distance":         ins.ReuseDistance.Snapshot(),
		"bank_retries_per_instr": ins.BankRetries.Snapshot(),
		"mshr_occupancy":         ins.MSHROccupancy.Snapshot(),
		"pending_wait_cycles":    ins.PendingWait.Snapshot(),
		"issue_latency_cycles":   ins.IssueLatency.Snapshot(),
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report written by WriteJSON, validating the schema.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != ReportSchema {
		return nil, errSchema(r.Schema)
	}
	return &r, nil
}

type errSchema string

func (e errSchema) Error() string {
	return "metrics: unsupported report schema " + string(e) + " (want " + ReportSchema + ")"
}

func maxIntR(a, b int) int {
	if a > b {
		return a
	}
	return b
}
