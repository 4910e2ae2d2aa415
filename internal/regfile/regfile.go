// Package regfile models the SM's banked physical register file. A 1024-bit
// warp register access is served by one of 8 bank groups (8 x 128-bit banks
// operating in lockstep); each group has one read and one write port per
// cycle (paper section II). The package also implements the verify cache of
// section VI-C, a small physical-ID-tagged cache that filters verify-read
// traffic away from the banks.
package regfile

import (
	"fmt"

	"github.com/wirsim/wir/internal/isa"
)

// PhysID names a physical warp register within one SM.
type PhysID uint16

// PhysNone marks an absent physical register.
const PhysNone PhysID = 0xFFFF

// File is one SM's physical register file with per-cycle port arbitration.
// Call BeginCycle once per simulated cycle, then request ports with TryRead,
// TryWrite, and TryVerifyRead; a false return means the bank group's port is
// taken this cycle and the requester must retry.
type File struct {
	vals   []isa.Vec
	affine []bool // value is (base, stride)-affine: single-bank access
	groups int

	// Port arbitration is cycle-stamped rather than cleared: a port is busy
	// when its stamp equals the current cycle number, so BeginCycle is a
	// single increment instead of a per-group sweep.
	readStamp  []uint64
	writeStamp []uint64
	cycle      uint64
	conflicts  []uint64 // per bank group: failed port claims (telemetry)

	vcache *VerifyCache
}

// New returns a register file with numRegs physical warp registers spread
// over the given number of bank groups. verifyEntries sizes the verify cache
// (0 disables it).
func New(numRegs, groups, verifyEntries int) *File {
	if numRegs <= 0 || groups <= 0 {
		panic(fmt.Sprintf("regfile: invalid geometry %d regs / %d groups", numRegs, groups))
	}
	f := &File{
		vals:       make([]isa.Vec, numRegs),
		affine:     make([]bool, numRegs),
		groups:     groups,
		readStamp:  make([]uint64, groups),
		writeStamp: make([]uint64, groups),
		cycle:      1, // stamps start at 0 = "never claimed"
		conflicts:  make([]uint64, groups),
	}
	if verifyEntries > 0 {
		f.vcache = NewVerifyCache(verifyEntries)
	}
	return f
}

// Group returns the bank group serving the physical register.
func (f *File) Group(p PhysID) int { return int(p) % f.groups }

// BeginCycle releases all bank ports for a new cycle.
func (f *File) BeginCycle() {
	f.cycle++
}

// TryRead claims the read port of p's bank group for this cycle. It returns
// false when the port is already taken.
func (f *File) TryRead(p PhysID) bool {
	g := f.Group(p)
	if f.readStamp[g] == f.cycle {
		f.conflicts[g]++
		return false
	}
	f.readStamp[g] = f.cycle
	return true
}

// TryWrite claims the write port of p's bank group for this cycle.
func (f *File) TryWrite(p PhysID) bool {
	g := f.Group(p)
	if f.writeStamp[g] == f.cycle {
		f.conflicts[g]++
		return false
	}
	f.writeStamp[g] = f.cycle
	return true
}

// ConflictCounts returns, per bank group, how many port claims failed over
// the file's lifetime. The distribution across groups exposes bank camping
// (e.g. strided register allocations mapping hot registers to one group).
func (f *File) ConflictCounts() []uint64 {
	out := make([]uint64, len(f.conflicts))
	copy(out, f.conflicts)
	return out
}

// Value returns the current contents of physical register p. This is the
// functional view; port accounting is separate.
func (f *File) Value(p PhysID) isa.Vec { return f.vals[p] }

// Affine reports whether the value last written to p was (base, stride)
// affine. Used by the Affine machine model for energy discounting.
func (f *File) Affine(p PhysID) bool { return f.affine[p] }

// Write stores v into physical register p and invalidates any verify-cache
// line for p (a register write evicts the associated cache line, section
// VI-C).
func (f *File) Write(p PhysID, v isa.Vec) {
	f.vals[p] = v
	f.affine[p] = IsAffine(v)
	if f.vcache != nil {
		f.vcache.Invalidate(p)
	}
}

// VerifyCacheLookup consults the verify cache for p. It returns the cached
// value and true on a hit. With no verify cache configured it always misses.
func (f *File) VerifyCacheLookup(p PhysID) (isa.Vec, bool) {
	if f.vcache == nil {
		return isa.Vec{}, false
	}
	return f.vcache.Lookup(p)
}

// VerifyCacheFill installs p's value in the verify cache after a miss
// serviced by the banks.
func (f *File) VerifyCacheFill(p PhysID) {
	if f.vcache != nil {
		f.vcache.Fill(p, f.vals[p])
	}
}

// HasVerifyCache reports whether a verify cache is configured.
func (f *File) HasVerifyCache() bool { return f.vcache != nil }

// AuditVerifyCache verifies verify-cache coherence: every valid line must
// hold the current contents of the register it is tagged with. The write path
// invalidates on every register write, so a stale line means a write bypassed
// Write — exactly the kind of bug that would make verify-reads lie.
func (f *File) AuditVerifyCache() error {
	if f.vcache == nil {
		return nil
	}
	for i, t := range f.vcache.tags {
		if t == PhysNone {
			continue
		}
		if int(t) >= len(f.vals) {
			return fmt.Errorf("regfile: verify-cache line %d tags nonexistent register %d", i, t)
		}
		if f.vcache.vals[i] != f.vals[t] {
			return fmt.Errorf("regfile: verify-cache line %d is stale for register %d (cached != current)", i, t)
		}
	}
	return nil
}

// IsAffine reports whether all adjacent lanes of v differ by one common
// stride, i.e. v can be represented as a (32-bit base, 32-bit stride) tuple
// (paper section VII-A, Affine model).
func IsAffine(v isa.Vec) bool {
	stride := v[1] - v[0]
	for i := 2; i < isa.WarpSize; i++ {
		if v[i]-v[i-1] != stride {
			return false
		}
	}
	return true
}

// VerifyCache is a small fully-associative cache tagged by physical register
// ID with LRU replacement (section VI-C). It serves verify-read operations so
// they do not contend with true reads on the register banks.
type VerifyCache struct {
	tags []PhysID
	vals []isa.Vec
	lru  []uint64 // last-use stamps
	tick uint64
}

// NewVerifyCache returns a verify cache with the given number of entries.
func NewVerifyCache(entries int) *VerifyCache {
	if entries <= 0 {
		panic("regfile: verify cache needs at least one entry")
	}
	t := make([]PhysID, entries)
	for i := range t {
		t[i] = PhysNone
	}
	return &VerifyCache{tags: t, vals: make([]isa.Vec, entries), lru: make([]uint64, entries)}
}

// Lookup returns the cached value for p and whether it was present.
func (c *VerifyCache) Lookup(p PhysID) (isa.Vec, bool) {
	c.tick++
	for i, t := range c.tags {
		if t == p {
			c.lru[i] = c.tick
			return c.vals[i], true
		}
	}
	return isa.Vec{}, false
}

// Fill installs (p, v), evicting the least recently used entry.
func (c *VerifyCache) Fill(p PhysID, v isa.Vec) {
	c.tick++
	victim := 0
	for i := range c.tags {
		if c.tags[i] == PhysNone {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.tags[victim] = p
	c.vals[victim] = v
	c.lru[victim] = c.tick
}

// Invalidate removes any entry for p.
func (c *VerifyCache) Invalidate(p PhysID) {
	for i, t := range c.tags {
		if t == p {
			c.tags[i] = PhysNone
		}
	}
}
