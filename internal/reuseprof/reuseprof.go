// Package reuseprof is the decision-level observability layer for the reuse
// subsystem: where internal/stats sees the reuse buffer as aggregate hit/miss
// counters, this layer classifies every individual lookup (why did it miss?),
// ledgers every eviction (how old was the entry, how many hits had it
// served, which mechanism removed it?), and steps an infinite-capacity shadow
// table alongside the real buffer to measure achieved-vs-achievable reuse per
// kernel and per PC.
//
// The design mirrors internal/hostprof: one SMProf per SM with plain fields,
// so the report breaks down per SM. Every hook is gated behind a single nil
// check in the engine/SM hot paths, so an unprofiled simulation pays one
// pointer test per event and nothing else.
// All recording is purely observational — architectural state, replacement
// decisions and the stats counters are bit-identical with the profiler on or
// off (reuseprof_conformance_test.go).
package reuseprof

import (
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/reuse"
)

// Bucket classifies one reuse-buffer access. Initial lookups land in the hit,
// pending-busy or one of the miss buckets; pending-queue rechecks (each of
// which the stats layer also counts as a lookup) land in pending-resolved,
// pending-busy or pending-lost. The buckets therefore partition
// stats.Sim.ReuseLookups exactly:
//
//	sum(all buckets)                 == ReuseLookups
//	hit + pending-resolved           == ReuseHits
//	sum(miss-* buckets)              == ReuseMisses
type Bucket int

// Taxonomy buckets.
const (
	BucketHit             Bucket = iota // valid entry, ready result
	BucketPendingResolved               // queued on a pending entry whose result arrived
	BucketMissCold                      // tag never observed before on this SM
	BucketMissEvicted                   // tag was present (or at least observed) and lost to capacity/lifecycle
	BucketMissBarrier                   // same computation, invalidated by an advanced barrier count
	BucketMissBlock                     // same computation, different thread-block slot (scratchpad load)
	BucketPendingBusy                   // entry reserved but result not ready (initial lookup or recheck)
	BucketPendingLost                   // queued flight's entry was evicted/overwritten while waiting
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"hit",
	"pending-resolved",
	"miss-cold",
	"miss-evicted",
	"miss-barrier-invalidated",
	"miss-block-mismatch",
	"pending-busy",
	"pending-lost",
}

// String returns the bucket's report name.
func (b Bucket) String() string {
	if b < 0 || b >= NumBuckets {
		return "unknown"
	}
	return bucketNames[b]
}

// VSBBucket classifies one VSB verification outcome. The buckets partition
// stats.Sim.VSBLookups once all in-flight verifications settle (always true
// at the end of a clean run): vsb-hit at a verify-read match, vsb-verify-fail
// at a refuted hash hit, vsb-miss when the hash was absent.
type VSBBucket int

// VSB taxonomy buckets.
const (
	VSBTaxHit VSBBucket = iota
	VSBTaxMiss
	VSBTaxVerifyFail
	NumVSBBuckets
)

var vsbBucketNames = [NumVSBBuckets]string{"vsb-hit", "vsb-miss", "vsb-verify-fail"}

// String returns the bucket's report name.
func (b VSBBucket) String() string {
	if b < 0 || b >= NumVSBBuckets {
		return "unknown"
	}
	return vsbBucketNames[b]
}

// EvictCause names the mechanism that removed a valid reuse-buffer entry.
// Conflict, capacity and reclaim evictions are exactly the ones the stats
// layer counts as ReuseEvicts; block-complete and launch-flush removals are
// correctness scrubs the aggregate counters do not see.
type EvictCause int

// Eviction causes.
const (
	EvictConflict EvictCause = iota // displaced by Reserve/Insert of a different tag
	EvictCapacity                   // low-register-mode EvictAny rotation
	EvictReclaim                    // low-register-mode targeted evict on a lookup miss
	EvictBlock                      // block completion scrubbed its scratchpad entries
	EvictFlush                      // kernel-launch boundary flushed load entries
	NumEvictCauses
)

var evictCauseNames = [NumEvictCauses]string{
	"conflict", "capacity", "reclaim", "block-complete", "launch-flush",
}

// String returns the cause's report name.
func (c EvictCause) String() string {
	if c < 0 || c >= NumEvictCauses {
		return "unknown"
	}
	return evictCauseNames[c]
}

// PCStats accumulates the reuse activity of one static instruction on one SM.
// Lookups counts initial reuse-buffer lookups (pending rechecks are not
// re-counted per PC); Hits counts result hits including pending-retry
// resolutions; ShadowHits counts lookups an infinite-capacity table would
// have served. ShadowHits - Hits is the PC's lost reuse. The Inc* methods are
// nil-safe so the engine can call them straight off a Flight whose record may
// be absent.
type PCStats struct {
	Lookups    uint64
	Hits       uint64
	ShadowHits uint64
}

// IncLookup records an initial reuse-buffer lookup. Safe on a nil receiver.
func (p *PCStats) IncLookup() {
	if p != nil {
		p.Lookups++
	}
}

// IncHit records a result hit (direct or pending-resolved). Safe on a nil
// receiver.
func (p *PCStats) IncHit() {
	if p != nil {
		p.Hits++
	}
}

// IncShadowHit records a shadow-table hit. Safe on a nil receiver.
func (p *PCStats) IncShadowHit() {
	if p != nil {
		p.ShadowHits++
	}
}

// Table holds the per-PC records of one kernel on one SM, indexed by program
// counter. It is keyed by kernel name so tables merge across SMs and runs.
type Table struct {
	Kernel string
	PCs    []PCStats
}

// At returns the record for pc, or nil when the table is absent or pc is out
// of range (the nil record's Inc* methods are no-ops).
func (t *Table) At(pc int) *PCStats {
	if t == nil || pc < 0 || pc >= len(t.PCs) {
		return nil
	}
	return &t.PCs[pc]
}

// SeriesPoint is one rolling sample of the per-SM counter series feeding the
// Perfetto counter tracks: cumulative lookup/hit counts and the buffer
// occupancy at the sampled cycle.
type SeriesPoint struct {
	Cycle   uint64
	Occ     uint64
	Lookups uint64
	Hits    uint64
}

// seriesStride is the ObserveCycle sampling period for the counter series.
const seriesStride = 128

// blockBarrier is the mutable context of a loose tag: the block slot and
// barrier count last seen for the computation.
type blockBarrier struct {
	block, barrier uint8
}

// looseOf strips the mutable context fields from a tag, leaving the
// computation identity (op, sources, immediate, space). Two tags with equal
// loose forms name the same computation observed under different block or
// barrier epochs.
func looseOf(t reuse.Tag) reuse.Tag {
	t.Block = reuse.NullBlock
	t.Barrier = 0
	return t
}

// SMProf accumulates the reuse-decision telemetry of one SM. All fields are
// written only while that SM ticks or receives a dispatched block, the same
// per-SM ownership as hostprof.SMProf.
type SMProf struct {
	ID int

	// Taxonomy counters (see Bucket / VSBBucket).
	Tax    [NumBuckets]uint64
	VSBTax [NumVSBBuckets]uint64

	// Shadow headroom: hits an infinite-capacity associative table (keyed by
	// full tag, so block/barrier invalidation still applies) would have
	// served, and the VSB analog (an unbounded hash set — a perfect-capacity,
	// hash-exact ceiling on VSB hits). Distinct counts tags ever observed.
	ShadowHits    uint64
	VSBShadowHits uint64
	Distinct      uint64

	// Eviction-lifetime ledger: per-cause counts plus log2 histograms of
	// entry age (in buffer accesses) and hits served at eviction time, and
	// the gap (in lookups) between an eviction and the miss it later caused.
	EvictCount [NumEvictCauses]uint64
	EvictAge   [NumEvictCauses]*metrics.Histogram
	EvictHits  [NumEvictCauses]*metrics.Histogram
	EvictedGap *metrics.Histogram

	// Per-cycle occupancy accumulator and the rolling counter series.
	OccSum     uint64
	OccSamples uint64
	Series     []SeriesPoint

	// lookups is the initial-lookup count, the timebase for the shadow maps.
	lookups uint64

	// Working state for classification; never merged, never reported raw.
	shadow  map[reuse.Tag]uint64 // tag -> lookups stamp at last sight
	gone    map[reuse.Tag]uint64 // tag -> lookups stamp at last eviction
	loose   map[reuse.Tag]blockBarrier
	vsbSeen map[uint32]struct{}

	// Per-PC tables, keyed by kernel name; cache resolves by kernel pointer.
	byName map[string]*Table
	cache  map[*kasm.Kernel]*Table
}

// NewSMProf returns an empty per-SM accumulator.
func NewSMProf(id int) *SMProf {
	s := &SMProf{
		ID:         id,
		EvictedGap: metrics.NewHistogram(),
		shadow:     make(map[reuse.Tag]uint64),
		gone:       make(map[reuse.Tag]uint64),
		loose:      make(map[reuse.Tag]blockBarrier),
		vsbSeen:    make(map[uint32]struct{}),
		byName:     make(map[string]*Table),
		cache:      make(map[*kasm.Kernel]*Table),
	}
	for c := 0; c < int(NumEvictCauses); c++ {
		s.EvictAge[c] = metrics.NewHistogram()
		s.EvictHits[c] = metrics.NewHistogram()
	}
	return s
}

// Table returns (creating on first use) the per-PC table for kernel k,
// growing an existing same-name table if k's code is longer.
func (s *SMProf) Table(k *kasm.Kernel) *Table {
	t, ok := s.cache[k]
	if !ok {
		t = tableOf(s.byName, k.Name, len(k.Code))
		s.cache[k] = t
	}
	return t
}

// tableOf returns byName's table for kernel name, creating it or growing it
// to at least n PCs.
func tableOf(byName map[string]*Table, name string, n int) *Table {
	t, ok := byName[name]
	if !ok {
		t = &Table{Kernel: name, PCs: make([]PCStats, n)}
		byName[name] = t
	} else if len(t.PCs) < n {
		grown := make([]PCStats, n)
		copy(grown, t.PCs)
		t.PCs = grown
	}
	return t
}

// addTables adds every per-PC count of src's tables into dst's tables of
// the same kernel names.
func addTables(dst, src map[string]*Table) {
	for name, st := range src {
		t := tableOf(dst, name, len(st.PCs))
		for pc := range st.PCs {
			t.PCs[pc].Lookups += st.PCs[pc].Lookups
			t.PCs[pc].Hits += st.PCs[pc].Hits
			t.PCs[pc].ShadowHits += st.PCs[pc].ShadowHits
		}
	}
}

// Tables returns the per-PC tables keyed by kernel name.
func (s *SMProf) Tables() map[string]*Table { return s.byName }

// InitialLookups returns the number of initial (non-recheck) lookups
// observed, which per-PC Lookups sums reconcile against.
func (s *SMProf) InitialLookups() uint64 { return s.lookups }

// note advances the shadow state for an initial lookup of t: the shadow hit
// is credited if the tag was seen before, and the tag's last-seen stamp and
// loose context are refreshed. Classification must happen before note so the
// current lookup does not see itself.
func (s *SMProf) note(t reuse.Tag, pc *PCStats) {
	s.lookups++
	if _, ok := s.shadow[t]; ok {
		s.ShadowHits++
		pc.IncShadowHit()
	} else {
		s.Distinct++
	}
	s.shadow[t] = s.lookups
	s.loose[looseOf(t)] = blockBarrier{block: t.Block, barrier: t.Barrier}
}

// classify names the reason an initial lookup of t missed, using only state
// recorded before this lookup. Priority: a recorded eviction of the exact tag
// beats everything; any earlier sighting of the exact tag is still a
// capacity/lifecycle loss (covers entries that were displaced before
// installing, zero-entry buffers and low-register mode, where no Evict hook
// fires); otherwise a sighting of the same computation under a different
// block slot or barrier epoch names the invalidation; otherwise the tag is
// cold.
func (s *SMProf) classify(t reuse.Tag) Bucket {
	if stamp, ok := s.gone[t]; ok {
		s.EvictedGap.Observe(s.lookups - stamp)
		return BucketMissEvicted
	}
	if stamp, ok := s.shadow[t]; ok {
		s.EvictedGap.Observe(s.lookups - stamp)
		return BucketMissEvicted
	}
	if bb, ok := s.loose[looseOf(t)]; ok {
		if bb.block != t.Block {
			return BucketMissBlock
		}
		if bb.barrier != t.Barrier {
			return BucketMissBarrier
		}
	}
	return BucketMissCold
}

// LookupHit records an initial lookup that hit (including a chaos-forged
// false hit, which the stats layer also counts as a hit). Safe on nil.
func (s *SMProf) LookupHit(t reuse.Tag, pc *PCStats) {
	if s == nil {
		return
	}
	s.Tax[BucketHit]++
	pc.IncLookup()
	pc.IncHit()
	s.note(t, pc)
}

// LookupPending records an initial lookup that matched a pending entry. The
// SM may queue or drop the flight; either way the access itself was
// pending-busy. Safe on nil.
func (s *SMProf) LookupPending(t reuse.Tag, pc *PCStats) {
	if s == nil {
		return
	}
	s.Tax[BucketPendingBusy]++
	pc.IncLookup()
	s.note(t, pc)
}

// LookupMiss records and classifies an initial lookup that missed. Safe on
// nil.
func (s *SMProf) LookupMiss(t reuse.Tag, pc *PCStats) {
	if s == nil {
		return
	}
	s.Tax[s.classify(t)]++
	pc.IncLookup()
	s.note(t, pc)
}

// RecheckResolved records a pending-queue recheck that found the result
// ready (a pending-retry hit). Safe on nil.
func (s *SMProf) RecheckResolved(pc *PCStats) {
	if s == nil {
		return
	}
	s.Tax[BucketPendingResolved]++
	pc.IncHit()
}

// RecheckStill records a pending-queue recheck that found the entry still
// pending. Safe on nil.
func (s *SMProf) RecheckStill() {
	if s == nil {
		return
	}
	s.Tax[BucketPendingBusy]++
}

// RecheckLost records a pending-queue recheck that found the entry evicted or
// overwritten. Safe on nil.
func (s *SMProf) RecheckLost() {
	if s == nil {
		return
	}
	s.Tax[BucketPendingLost]++
}

// Evict ledgers the removal of a valid entry holding tag t: cause, age in
// buffer accesses, and result hits the entry served. Safe on nil.
func (s *SMProf) Evict(t reuse.Tag, cause EvictCause, age, hits uint64) {
	if s == nil {
		return
	}
	if cause < 0 || cause >= NumEvictCauses {
		cause = EvictConflict
	}
	s.EvictCount[cause]++
	s.EvictAge[cause].Observe(age)
	s.EvictHits[cause].Observe(hits)
	s.gone[t] = s.lookups
}

// NoteVSBLookup steps the perfect-capacity VSB shadow for a hash lookup.
// Safe on nil.
func (s *SMProf) NoteVSBLookup(h uint32) {
	if s == nil {
		return
	}
	if _, ok := s.vsbSeen[h]; ok {
		s.VSBShadowHits++
	} else {
		s.vsbSeen[h] = struct{}{}
	}
}

// NoteVSBHit records a verify-read match. Safe on nil.
func (s *SMProf) NoteVSBHit() {
	if s == nil {
		return
	}
	s.VSBTax[VSBTaxHit]++
}

// NoteVSBMiss records an absent hash. Safe on nil.
func (s *SMProf) NoteVSBMiss() {
	if s == nil {
		return
	}
	s.VSBTax[VSBTaxMiss]++
}

// NoteVSBVerifyFail records a hash hit refuted by the verify-read. Safe on
// nil.
func (s *SMProf) NoteVSBVerifyFail() {
	if s == nil {
		return
	}
	s.VSBTax[VSBTaxVerifyFail]++
}

// ObserveCycle samples the reuse-buffer occupancy for one SM cycle and, every
// seriesStride samples, appends a point to the rolling counter series. Safe
// on nil.
func (s *SMProf) ObserveCycle(occ int, cycle uint64) {
	if s == nil {
		return
	}
	s.OccSum += uint64(occ)
	s.OccSamples++
	if s.OccSamples%seriesStride == 0 {
		s.Series = append(s.Series, SeriesPoint{
			Cycle:   cycle,
			Occ:     uint64(occ),
			Lookups: s.lookups,
			Hits:    s.Tax[BucketHit] + s.Tax[BucketPendingResolved],
		})
	}
}

// ObserveQuietCycles batches n consecutive ObserveCycle calls for a span of
// skipped quiet cycles, starting at firstCycle. The reuse buffer cannot change
// while the SM does no work, so the occupancy is constant across the span and
// the rolling series gets exactly the points — at exactly the cycles — that
// dense per-cycle observation would have produced. Safe on nil.
func (s *SMProf) ObserveQuietCycles(occ int, firstCycle, n uint64) {
	if s == nil || n == 0 {
		return
	}
	s.OccSum += uint64(occ) * n
	rem := seriesStride - s.OccSamples%seriesStride
	s.OccSamples += n
	for k := rem; k <= n; k += seriesStride {
		s.Series = append(s.Series, SeriesPoint{
			Cycle:   firstCycle + k - 1,
			Occ:     uint64(occ),
			Lookups: s.lookups,
			Hits:    s.Tax[BucketHit] + s.Tax[BucketPendingResolved],
		})
	}
}

// RealHits returns the result hits recorded by the taxonomy (direct plus
// pending-resolved).
func (s *SMProf) RealHits() uint64 { return s.Tax[BucketHit] + s.Tax[BucketPendingResolved] }

// OccMean returns the mean sampled occupancy.
func (s *SMProf) OccMean() float64 {
	if s.OccSamples == 0 {
		return 0
	}
	return float64(s.OccSum) / float64(s.OccSamples)
}

// merge folds o's accumulators into s. Working maps and the counter series
// are intentionally not merged: they are per-run stepping state with no
// cross-run meaning.
func (s *SMProf) merge(o *SMProf) {
	for i := range s.Tax {
		s.Tax[i] += o.Tax[i]
	}
	for i := range s.VSBTax {
		s.VSBTax[i] += o.VSBTax[i]
	}
	s.ShadowHits += o.ShadowHits
	s.VSBShadowHits += o.VSBShadowHits
	s.Distinct += o.Distinct
	s.lookups += o.lookups
	for c := 0; c < int(NumEvictCauses); c++ {
		s.EvictCount[c] += o.EvictCount[c]
		s.EvictAge[c].Merge(o.EvictAge[c])
		s.EvictHits[c].Merge(o.EvictHits[c])
	}
	s.EvictedGap.Merge(o.EvictedGap)
	s.OccSum += o.OccSum
	s.OccSamples += o.OccSamples
	addTables(s.byName, o.byName)
}
