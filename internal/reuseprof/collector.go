package reuseprof

// Collector owns one SMProf per SM. Attach it with GPU.SetReuseProf; the GPU
// hands each SM its own accumulator. Merge folds another collector's
// accumulators in (extending the SM list if the other collector is wider),
// so a harness can reduce many per-run collectors into one.
type Collector struct {
	sms []*SMProf
}

// NewCollector returns a collector with numSMs per-SM accumulators.
// NewCollector(0) is a valid empty merge target.
func NewCollector(numSMs int) *Collector {
	c := &Collector{sms: make([]*SMProf, numSMs)}
	for i := range c.sms {
		c.sms[i] = NewSMProf(i)
	}
	return c
}

// NumSMs returns the number of per-SM accumulators.
func (c *Collector) NumSMs() int { return len(c.sms) }

// SM returns the accumulator for SM i.
func (c *Collector) SM(i int) *SMProf { return c.sms[i] }

// Merge folds o's accumulators into c, SM by SM, extending c when o is
// wider. Safe on nil receiver or argument.
func (c *Collector) Merge(o *Collector) {
	if c == nil || o == nil {
		return
	}
	for i, sp := range o.sms {
		if i < len(c.sms) {
			c.sms[i].merge(sp)
		} else {
			c.sms = append(c.sms, sp)
		}
	}
}

// Tax sums the reuse taxonomy across SMs.
func (c *Collector) Tax() [NumBuckets]uint64 {
	var out [NumBuckets]uint64
	for _, s := range c.sms {
		for i := range out {
			out[i] += s.Tax[i]
		}
	}
	return out
}

// VSBTax sums the VSB taxonomy across SMs.
func (c *Collector) VSBTax() [NumVSBBuckets]uint64 {
	var out [NumVSBBuckets]uint64
	for _, s := range c.sms {
		for i := range out {
			out[i] += s.VSBTax[i]
		}
	}
	return out
}

// Lookups sums every taxonomy bucket; it equals stats.Sim.ReuseLookups.
func (c *Collector) Lookups() uint64 {
	var n uint64
	for _, b := range c.Tax() {
		n += b
	}
	return n
}

// InitialLookups sums the initial (non-recheck) lookups; per-PC Lookups sums
// reconcile against it.
func (c *Collector) InitialLookups() uint64 {
	var n uint64
	for _, s := range c.sms {
		n += s.InitialLookups()
	}
	return n
}

// RealHits sums the result hits (direct plus pending-resolved); it equals
// stats.Sim.ReuseHits.
func (c *Collector) RealHits() uint64 {
	t := c.Tax()
	return t[BucketHit] + t[BucketPendingResolved]
}

// ShadowHits sums the infinite-capacity shadow-table hits.
func (c *Collector) ShadowHits() uint64 {
	var n uint64
	for _, s := range c.sms {
		n += s.ShadowHits
	}
	return n
}

// VSBShadowHits sums the perfect-capacity VSB shadow hits.
func (c *Collector) VSBShadowHits() uint64 {
	var n uint64
	for _, s := range c.sms {
		n += s.VSBShadowHits
	}
	return n
}

// DistinctTags sums the distinct tags observed per SM (tags seen by several
// SMs count once per SM: each SM runs its own buffer).
func (c *Collector) DistinctTags() uint64 {
	var n uint64
	for _, s := range c.sms {
		n += s.Distinct
	}
	return n
}

// EvictTotal sums the eviction ledger for one cause across SMs.
func (c *Collector) EvictTotal(cause EvictCause) uint64 {
	var n uint64
	for _, s := range c.sms {
		n += s.EvictCount[cause]
	}
	return n
}

// AchievedRatio returns achieved/achievable reuse: real hits over shadow
// hits. With no shadow hits there was nothing achievable and nothing lost, so
// the ratio is 1.
func (c *Collector) AchievedRatio() float64 {
	shadow := c.ShadowHits()
	if shadow == 0 {
		return 1
	}
	return float64(c.RealHits()) / float64(shadow)
}
