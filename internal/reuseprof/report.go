package reuseprof

import (
	"encoding/json"
	"io"
	"sort"
	"strings"

	"github.com/wirsim/wir/internal/metrics"
)

// Schema identifies the machine-readable reuse-telemetry report format.
const Schema = "wir-reuse/1"

// Report is the wir-reuse/1 JSON document: the full miss-reason taxonomy
// (every bucket always present, even when zero, so consumers can assert
// sum(taxonomy) == lookups without existence checks), the VSB verification
// taxonomy, the shadow headroom section, the eviction-lifetime ledger, and
// per-SM plus per-kernel breakdowns.
type Report struct {
	Schema string `json:"schema"`

	Lookups     uint64            `json:"lookups"`
	Taxonomy    map[string]uint64 `json:"taxonomy"`
	VSBLookups  uint64            `json:"vsb_lookups"`
	VSBTaxonomy map[string]uint64 `json:"vsb_taxonomy"`

	Shadow ShadowSection `json:"shadow"`

	Evictions     []EvictionSection         `json:"evictions"`
	MissEvictGap  metrics.HistogramSnapshot `json:"miss_evicted_gap"`
	OccupancyMean float64                   `json:"occupancy_mean"`

	SMs     []SMSection     `json:"sms"`
	Kernels []KernelSection `json:"kernels,omitempty"`
}

// ShadowSection is the achieved-vs-achievable headroom summary.
type ShadowSection struct {
	RealHits      uint64  `json:"real_hits"`
	ShadowHits    uint64  `json:"shadow_hits"`
	AchievedRatio float64 `json:"achieved_ratio"`
	VSBShadowHits uint64  `json:"vsb_shadow_hits"`
	DistinctTags  uint64  `json:"distinct_tags"`
}

// EvictionSection is the ledger of one eviction cause.
type EvictionSection struct {
	Cause      string                    `json:"cause"`
	Count      uint64                    `json:"count"`
	Age        metrics.HistogramSnapshot `json:"age"`
	HitsBefore metrics.HistogramSnapshot `json:"hits_before"`
}

// SMSection is one SM's taxonomy and headroom summary.
type SMSection struct {
	SM            int               `json:"sm"`
	Lookups       uint64            `json:"lookups"`
	Taxonomy      map[string]uint64 `json:"taxonomy"`
	ShadowHits    uint64            `json:"shadow_hits"`
	OccupancyMean float64           `json:"occupancy_mean"`
}

// KernelSection aggregates per-PC records across SMs for one kernel and
// carries its top lost-reuse PCs: the PCs whose shadow hits exceed their
// real hits, ranked by that difference (largest first, ties by PC) and cut
// to topLostPerKernel. It is the one lost-reuse ranking the tools print
// (`wirsim -reuseprof-json`, `jq '.kernels[].top_lost'`).
type KernelSection struct {
	Kernel     string   `json:"kernel"`
	Lookups    uint64   `json:"lookups"`
	Hits       uint64   `json:"hits"`
	ShadowHits uint64   `json:"shadow_hits"`
	LostReuse  uint64   `json:"lost_reuse"`
	TopLost    []LostPC `json:"top_lost,omitempty"`
}

// LostPC is one PC's lost-reuse record inside a KernelSection.
type LostPC struct {
	PC         int    `json:"pc"`
	Lookups    uint64 `json:"lookups"`
	Hits       uint64 `json:"hits"`
	ShadowHits uint64 `json:"shadow_hits"`
	LostReuse  uint64 `json:"lost_reuse"`
}

// topLostPerKernel bounds the per-kernel lost-reuse list in the report.
const topLostPerKernel = 8

func taxMap(t [NumBuckets]uint64) map[string]uint64 {
	m := make(map[string]uint64, NumBuckets)
	for i := Bucket(0); i < NumBuckets; i++ {
		m[i.String()] = t[i]
	}
	return m
}

func vsbTaxMap(t [NumVSBBuckets]uint64) map[string]uint64 {
	m := make(map[string]uint64, NumVSBBuckets)
	for i := VSBBucket(0); i < NumVSBBuckets; i++ {
		m[i.String()] = t[i]
	}
	return m
}

// mergedTables folds the per-SM tables into one table per kernel name, in
// sorted kernel order.
func (c *Collector) mergedTables() []*Table {
	byName := make(map[string]*Table)
	for _, s := range c.sms {
		addTables(byName, s.byName)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Table, 0, len(names))
	for _, name := range names {
		out = append(out, byName[name])
	}
	return out
}

func lost(p *PCStats) uint64 {
	if p.ShadowHits > p.Hits {
		return p.ShadowHits - p.Hits
	}
	return 0
}

// Report builds the wir-reuse/1 document from the collector's current state.
func (c *Collector) Report() Report {
	tax := c.Tax()
	var vsbLookups uint64
	for _, n := range c.VSBTax() {
		vsbLookups += n
	}
	r := Report{
		Schema:      Schema,
		Lookups:     c.Lookups(),
		Taxonomy:    taxMap(tax),
		VSBLookups:  vsbLookups,
		VSBTaxonomy: vsbTaxMap(c.VSBTax()),
		Shadow: ShadowSection{
			RealHits:      c.RealHits(),
			ShadowHits:    c.ShadowHits(),
			AchievedRatio: c.AchievedRatio(),
			VSBShadowHits: c.VSBShadowHits(),
			DistinctTags:  c.DistinctTags(),
		},
	}

	gap := metrics.NewHistogram()
	var occSum, occSamples uint64
	for _, s := range c.sms {
		gap.Merge(s.EvictedGap)
		occSum += s.OccSum
		occSamples += s.OccSamples
		r.SMs = append(r.SMs, SMSection{
			SM:            s.ID,
			Lookups:       sumTax(s.Tax),
			Taxonomy:      taxMap(s.Tax),
			ShadowHits:    s.ShadowHits,
			OccupancyMean: s.OccMean(),
		})
	}
	r.MissEvictGap = gap.Snapshot()
	if occSamples > 0 {
		r.OccupancyMean = float64(occSum) / float64(occSamples)
	}

	for cause := EvictCause(0); cause < NumEvictCauses; cause++ {
		age := metrics.NewHistogram()
		hits := metrics.NewHistogram()
		var count uint64
		for _, s := range c.sms {
			count += s.EvictCount[cause]
			age.Merge(s.EvictAge[cause])
			hits.Merge(s.EvictHits[cause])
		}
		r.Evictions = append(r.Evictions, EvictionSection{
			Cause:      cause.String(),
			Count:      count,
			Age:        age.Snapshot(),
			HitsBefore: hits.Snapshot(),
		})
	}

	for _, t := range c.mergedTables() {
		ks := KernelSection{Kernel: t.Kernel}
		var lostPCs []LostPC
		for pc := range t.PCs {
			p := &t.PCs[pc]
			ks.Lookups += p.Lookups
			ks.Hits += p.Hits
			ks.ShadowHits += p.ShadowHits
			if l := lost(p); l > 0 {
				lostPCs = append(lostPCs, LostPC{
					PC: pc, Lookups: p.Lookups, Hits: p.Hits,
					ShadowHits: p.ShadowHits, LostReuse: l,
				})
			}
		}
		if ks.ShadowHits > ks.Hits {
			ks.LostReuse = ks.ShadowHits - ks.Hits
		}
		sort.Slice(lostPCs, func(i, j int) bool {
			if lostPCs[i].LostReuse != lostPCs[j].LostReuse {
				return lostPCs[i].LostReuse > lostPCs[j].LostReuse
			}
			return lostPCs[i].PC < lostPCs[j].PC
		})
		if len(lostPCs) > topLostPerKernel {
			lostPCs = lostPCs[:topLostPerKernel]
		}
		ks.TopLost = lostPCs
		r.Kernels = append(r.Kernels, ks)
	}
	return r
}

func sumTax(t [NumBuckets]uint64) uint64 {
	var n uint64
	for _, b := range t {
		n += b
	}
	return n
}

// WriteJSON writes the wir-reuse/1 report as indented JSON.
func (c *Collector) WriteJSON(w io.Writer) error {
	r := c.Report()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&r)
}

// promName turns a bucket/cause name into a Prometheus-safe suffix.
func promName(s string) string { return strings.ReplaceAll(s, "-", "_") }

// Publish exports the collector's headline numbers into a metrics registry:
// one counter per taxonomy bucket (reuse_tax_*, vsb_tax_*), the shadow
// counters, and achieved-ratio/occupancy gauges. Call at a safe point (end of
// run or interval boundary); values are overwritten, not accumulated.
func (c *Collector) Publish(reg *metrics.Registry) {
	if c == nil || reg == nil {
		return
	}
	tax := c.Tax()
	for i := Bucket(0); i < NumBuckets; i++ {
		reg.SetCounter("reuse_tax_"+promName(i.String()), tax[i])
	}
	vtax := c.VSBTax()
	for i := VSBBucket(0); i < NumVSBBuckets; i++ {
		reg.SetCounter("vsb_tax_"+promName(i.String()), vtax[i])
	}
	for cause := EvictCause(0); cause < NumEvictCauses; cause++ {
		reg.SetCounter("reuse_evict_"+promName(cause.String()), c.EvictTotal(cause))
	}
	reg.SetCounter("reuse_shadow_hits", c.ShadowHits())
	reg.SetCounter("vsb_shadow_hits", c.VSBShadowHits())
	reg.Gauge("reuse_achieved_ratio").Set(c.AchievedRatio())
	var occSum, occSamples uint64
	for _, s := range c.sms {
		occSum += s.OccSum
		occSamples += s.OccSamples
	}
	if occSamples > 0 {
		reg.Gauge("reuse_occupancy_mean").Set(float64(occSum) / float64(occSamples))
	}
}

// AnnotateHotspots fills the ShadowHits and LostReuse fields of an attr
// hotspot slice from the collector's per-PC tables, matching on (kernel, PC).
func (c *Collector) AnnotateHotspots(hs []metrics.Hotspot) {
	if c == nil {
		return
	}
	tables := make(map[string]*Table)
	for _, t := range c.mergedTables() {
		tables[t.Kernel] = t
	}
	for i := range hs {
		t := tables[hs[i].Kernel]
		p := t.At(hs[i].PC)
		if p == nil {
			continue
		}
		hs[i].ShadowHits = p.ShadowHits
		hs[i].LostReuse = lost(p)
	}
}
