// Package stats collects the per-run counters from which every figure and
// table of the WIR paper is regenerated.
package stats

import "reflect"

// Sim holds the counters of one simulation run. Counters for a multi-SM run
// are the sums across SMs; cycle counts are the maximum across SMs (SMs run in
// lockstep in this simulator, so they agree).
type Sim struct {
	Cycles uint64 // SM core cycles to drain the whole grid

	// Frontend.
	Issued     uint64 // warp instructions issued (including control)
	Control    uint64 // branch/barrier/fence/exit instructions
	FPInstrs   uint64 // floating-point warp instructions (Table I %FP)
	Divergent  uint64 // instructions issued with a partial active mask
	DummyMovs  uint64 // injected divergence-handling MOVs (section V-D)
	Backend    uint64 // instructions that entered backend execution
	Retired    uint64 // non-control instructions retired (watchdog progress)
	Bypassed   uint64 // instructions that reused a prior result (no backend)
	LowRegMode uint64 // cycles spent in low-register mode

	// Backend operations by pipeline (Figure 13).
	SPOps  uint64
	SFUOps uint64
	MemOps uint64

	// Reuse buffer (Figures 9, 21).
	ReuseLookups  uint64
	ReuseHits     uint64 // result hits (instruction bypassed)
	PendingHits   uint64 // subset of ReuseHits that waited on a pending entry
	ReuseMisses   uint64
	PendingDrops  uint64 // pending-queue overflows (instruction re-executed)
	ReuseEvicts   uint64
	ReuseBypassed uint64 // instructions that skipped lookup (divergent, store flag, ...)

	// Value signature buffer (Figures 6, 20).
	VSBLookups   uint64
	VSBHits      uint64 // hash hit and verify-read confirmed the value
	VSBFalsePos  uint64 // hash hit but verify-read found a different value
	VSBMisses    uint64
	VSBBypassed  uint64 // divergent writes that skip the VSB (pin-bit path)
	VerifyReads  uint64 // verify-read operations issued to RF or verify cache
	VerifyCHits  uint64 // verify-reads served by the verify cache
	VerifyCMiss  uint64 // verify-reads that had to read the banks
	WritesShared uint64 // register writes avoided by sharing (VSB hits)

	// Register file (Figure 18).
	RFReads      uint64 // 1024-bit warp register reads performed
	RFWrites     uint64 // 1024-bit warp register writes performed
	RFVerify     uint64 // 1024-bit verify-reads performed on the banks
	BankRetries  uint64 // accesses retried due to bank-group conflicts
	RFReadsSaved uint64 // operand reads avoided by reuse bypass
	RFWritesSav  uint64 // result writes avoided by reuse bypass or sharing

	// Register allocation (Figure 19).
	RegAllocs   uint64
	RegReleases uint64
	RegUtilSum  uint64 // sum over sampled cycles of registers in use
	RegUtilPeak uint64 // maximum registers in use
	UtilSamples uint64 // number of utilization samples taken

	// Rename / refcount structure activity (energy accounting).
	RenameReads   uint64
	RenameWrites  uint64
	HashOps       uint64
	AllocatorOps  uint64
	RefCountOps   uint64
	ReuseUpdates  uint64
	VSBUpdates    uint64
	VerifyCacheOp uint64

	// Memory system (Figure 15).
	L1DAccesses  uint64
	L1DHits      uint64
	L1DMisses    uint64
	LoadsReused  uint64 // global/shared/const/tex loads served by reuse
	SharedAcc    uint64
	ConstAcc     uint64
	ConstHits    uint64
	TexAcc       uint64
	TexHits      uint64
	L2Accesses   uint64
	L2Hits       uint64
	L2Misses     uint64
	DRAMAccesses uint64
	NoCFlits     uint64
	Barriers     uint64
	GlobalStores uint64
	SharedStores uint64

	// Affine machine (section VII-A).
	AffineRegOps uint64 // register accesses performed in affine (1-bank) form
	AffineFUOps  uint64 // warp instructions executed at 1-lane FU energy
}

// Add accumulates other into s. Cycles takes the maximum (SMs tick in
// lockstep); every other counter sums.
func (s *Sim) Add(o *Sim) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	s.Issued += o.Issued
	s.Control += o.Control
	s.FPInstrs += o.FPInstrs
	s.Divergent += o.Divergent
	s.DummyMovs += o.DummyMovs
	s.Backend += o.Backend
	s.Retired += o.Retired
	s.Bypassed += o.Bypassed
	s.LowRegMode += o.LowRegMode
	s.SPOps += o.SPOps
	s.SFUOps += o.SFUOps
	s.MemOps += o.MemOps
	s.ReuseLookups += o.ReuseLookups
	s.ReuseHits += o.ReuseHits
	s.PendingHits += o.PendingHits
	s.ReuseMisses += o.ReuseMisses
	s.PendingDrops += o.PendingDrops
	s.ReuseEvicts += o.ReuseEvicts
	s.ReuseBypassed += o.ReuseBypassed
	s.VSBLookups += o.VSBLookups
	s.VSBHits += o.VSBHits
	s.VSBFalsePos += o.VSBFalsePos
	s.VSBMisses += o.VSBMisses
	s.VSBBypassed += o.VSBBypassed
	s.VerifyReads += o.VerifyReads
	s.VerifyCHits += o.VerifyCHits
	s.VerifyCMiss += o.VerifyCMiss
	s.WritesShared += o.WritesShared
	s.RFReads += o.RFReads
	s.RFWrites += o.RFWrites
	s.RFVerify += o.RFVerify
	s.BankRetries += o.BankRetries
	s.RFReadsSaved += o.RFReadsSaved
	s.RFWritesSav += o.RFWritesSav
	s.RegAllocs += o.RegAllocs
	s.RegReleases += o.RegReleases
	s.RegUtilSum += o.RegUtilSum
	if o.RegUtilPeak > s.RegUtilPeak {
		s.RegUtilPeak = o.RegUtilPeak
	}
	s.UtilSamples += o.UtilSamples
	s.RenameReads += o.RenameReads
	s.RenameWrites += o.RenameWrites
	s.HashOps += o.HashOps
	s.AllocatorOps += o.AllocatorOps
	s.RefCountOps += o.RefCountOps
	s.ReuseUpdates += o.ReuseUpdates
	s.VSBUpdates += o.VSBUpdates
	s.VerifyCacheOp += o.VerifyCacheOp
	s.L1DAccesses += o.L1DAccesses
	s.L1DHits += o.L1DHits
	s.L1DMisses += o.L1DMisses
	s.LoadsReused += o.LoadsReused
	s.SharedAcc += o.SharedAcc
	s.ConstAcc += o.ConstAcc
	s.ConstHits += o.ConstHits
	s.TexAcc += o.TexAcc
	s.TexHits += o.TexHits
	s.L2Accesses += o.L2Accesses
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.DRAMAccesses += o.DRAMAccesses
	s.NoCFlits += o.NoCFlits
	s.Barriers += o.Barriers
	s.GlobalStores += o.GlobalStores
	s.SharedStores += o.SharedStores
	s.AffineRegOps += o.AffineRegOps
	s.AffineFUOps += o.AffineFUOps
}

// Ratio returns a/b as a float, 0 when b is 0.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// BypassRate is the fraction of issued warp instructions that reused a prior
// result (the paper's headline 18.7% metric).
func (s *Sim) BypassRate() float64 { return Ratio(s.Bypassed, s.Issued) }

// FPRate is the fraction of non-control instructions that are floating point
// (Table I's %FP column).
func (s *Sim) FPRate() float64 { return Ratio(s.FPInstrs, s.Issued-s.Control) }

// AvgRegUtil is the mean number of physical registers in use across sampled
// cycles.
func (s *Sim) AvgRegUtil() float64 { return Ratio(s.RegUtilSum, s.UtilSamples) }

// L1DMissRate is the L1 data cache miss ratio.
func (s *Sim) L1DMissRate() float64 { return Ratio(s.L1DMisses, s.L1DAccesses) }

// VSBHitRate is the fraction of VSB lookups that found (and verified) a
// register already holding the result value (Figure 20).
func (s *Sim) VSBHitRate() float64 { return Ratio(s.VSBHits, s.VSBLookups) }

// ReuseHitRate is the fraction of reuse-buffer lookups that hit (Figure 21
// reports hits as a fraction of all issued instructions; use BypassRate for
// that).
func (s *Sim) ReuseHitRate() float64 { return Ratio(s.ReuseHits, s.ReuseLookups) }

// fieldNames caches the struct field names of Sim in declaration order.
var fieldNames = func() []string {
	t := reflect.TypeOf(Sim{})
	out := make([]string, t.NumField())
	for i := range out {
		out[i] = t.Field(i).Name
	}
	return out
}()

// Map returns every counter of s keyed by field name. All Sim fields are
// uint64, which the reflection walk relies on; adding a non-uint64 field
// would panic the telemetry tests immediately.
func (s *Sim) Map() map[string]uint64 {
	v := reflect.ValueOf(*s)
	out := make(map[string]uint64, len(fieldNames))
	for i, name := range fieldNames {
		out[name] = v.Field(i).Uint()
	}
	return out
}

// Delta returns cur - prev field-by-field. For cumulative counters this is
// the activity within (prev, cur]; the interval sampler relies on deltas
// telescoping, so summing every interval of a run reproduces the final
// totals exactly. Note the two max-semantics fields (Cycles, RegUtilPeak)
// are differenced like any other: their deltas are only meaningful in sum.
func Delta(cur, prev *Sim) Sim {
	var out Sim
	vc := reflect.ValueOf(cur).Elem()
	vp := reflect.ValueOf(prev).Elem()
	vo := reflect.ValueOf(&out).Elem()
	for i := range fieldNames {
		vo.Field(i).SetUint(vc.Field(i).Uint() - vp.Field(i).Uint())
	}
	return out
}
