// Package vsb implements the value signature buffer (paper section V-A). The
// VSB maps a 32-bit hash of a 1024-bit result value to the physical register
// already holding that value, enabling warp register reuse: logical registers
// with identical values share one physical register. Entries are
// direct-indexed by the low hash bits — the paper found associative search
// gave only marginal benefit.
package vsb

import "github.com/wirsim/wir/internal/regfile"

// Buffer is a set-associative value signature buffer. The paper's default is
// direct-indexed (one way); higher associativity is the design alternative
// section V-A mentions and finds marginal — reproduced by the associativity
// ablation.
type Buffer struct {
	hashes []uint32
	regs   []regfile.PhysID
	valid  []bool
	lru    []uint64
	ways   int
	tick   uint64
}

// New returns a direct-indexed VSB with the given number of entries. Zero
// entries yields a buffer that never hits and never stores (the 0-entry
// point of Figure 20).
func New(entries int) *Buffer { return NewAssoc(entries, 1) }

// NewAssoc returns a VSB with the given total entries organized into
// entries/ways sets.
func NewAssoc(entries, ways int) *Buffer {
	if ways < 1 {
		ways = 1
	}
	if entries > 0 && entries%ways != 0 {
		panic("vsb: entries must divide evenly into ways")
	}
	return &Buffer{
		hashes: make([]uint32, entries),
		regs:   make([]regfile.PhysID, entries),
		valid:  make([]bool, entries),
		lru:    make([]uint64, entries),
		ways:   ways,
	}
}

// Entries returns the buffer capacity.
func (b *Buffer) Entries() int { return len(b.valid) }

// setOf returns the slot range holding hash h.
func (b *Buffer) setOf(h uint32) (lo, hi int) {
	sets := len(b.valid) / b.ways
	s := int(h % uint32(sets))
	return s * b.ways, (s + 1) * b.ways
}

// Lookup returns the physical register recorded for hash h, if any. A true
// result is a *candidate* only: the caller must verify-read the register to
// rule out a hash collision.
func (b *Buffer) Lookup(h uint32) (regfile.PhysID, bool) {
	if len(b.valid) == 0 {
		return regfile.PhysNone, false
	}
	b.tick++
	lo, hi := b.setOf(h)
	for i := lo; i < hi; i++ {
		if b.valid[i] && b.hashes[i] == h {
			b.lru[i] = b.tick
			return b.regs[i], true
		}
	}
	return regfile.PhysNone, false
}

// victim picks the replacement slot within h's set: an invalid slot if one
// exists, else the least recently used.
func (b *Buffer) victim(h uint32) int {
	lo, hi := b.setOf(h)
	v := lo
	for i := lo; i < hi; i++ {
		if !b.valid[i] {
			return i
		}
		if b.lru[i] < b.lru[v] {
			v = i
		}
	}
	return v
}

// Insert records (h -> p), replacing the set's victim. It returns the
// displaced register so the caller can release its VSB reference.
func (b *Buffer) Insert(h uint32, p regfile.PhysID) (evicted regfile.PhysID, hadEvict bool) {
	if len(b.valid) == 0 {
		return regfile.PhysNone, false
	}
	b.tick++
	i := b.victim(h)
	if b.valid[i] {
		evicted, hadEvict = b.regs[i], true
	}
	b.hashes[i] = h
	b.regs[i] = p
	b.valid[i] = true
	b.lru[i] = b.tick
	return evicted, hadEvict
}

// EvictSlot invalidates the victim slot of hash h's set, returning the
// register it referenced. Used in low-register mode, where misses evict
// entries to drain references and free registers (paper section V-E).
func (b *Buffer) EvictSlot(h uint32) (regfile.PhysID, bool) {
	if len(b.valid) == 0 {
		return regfile.PhysNone, false
	}
	lo, hi := b.setOf(h)
	for i := lo; i < hi; i++ {
		if b.valid[i] {
			b.valid[i] = false
			return b.regs[i], true
		}
	}
	return regfile.PhysNone, false
}

// EvictAny invalidates an arbitrary valid entry chosen by the rotating cursor
// c, returning the referenced register. Used by low-register mode when no
// access happened in a cycle.
func (b *Buffer) EvictAny(c int) (regfile.PhysID, bool) {
	n := len(b.valid)
	for k := 0; k < n; k++ {
		i := (c + k) % n
		if b.valid[i] {
			b.valid[i] = false
			return b.regs[i], true
		}
	}
	return regfile.PhysNone, false
}

// Occupancy returns the number of valid entries.
func (b *Buffer) Occupancy() int {
	n := 0
	for _, v := range b.valid {
		if v {
			n++
		}
	}
	return n
}

// Refs calls fn with the physical register of every valid entry, so the
// engine's idle-state audit can reconcile the pool's reference counts.
func (b *Buffer) Refs(fn func(regfile.PhysID)) {
	for i, v := range b.valid {
		if v {
			fn(b.regs[i])
		}
	}
}

// SwapAny exchanges the result registers of two distinct valid entries chosen
// by the rotating cursors c1 and c2, reporting whether a swap happened. The
// chaos injector uses it to poison the buffer: each entry's hash then names a
// register holding a different value, which the verify-read must refute. The
// swap moves references between entries without creating or dropping any, so
// pool reference counts stay balanced.
func (b *Buffer) SwapAny(c1, c2 int) bool {
	n := len(b.valid)
	if n < 2 {
		return false
	}
	first := -1
	for k := 0; k < n; k++ {
		i := (c1 + k) % n
		if b.valid[i] {
			first = i
			break
		}
	}
	if first < 0 {
		return false
	}
	for k := 0; k < n; k++ {
		i := (c2 + k) % n
		if b.valid[i] && i != first && b.regs[i] != b.regs[first] {
			b.regs[first], b.regs[i] = b.regs[i], b.regs[first]
			return true
		}
	}
	return false
}
