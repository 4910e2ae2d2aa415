// Package mem implements the simulator's memory hierarchy: per-SM L1 data,
// constant and texture caches with MSHRs, scratchpad bank-conflict modeling,
// a flit-counted interconnect, a multi-partition L2, and a latency/queue DRAM
// model. It also owns the functional backing store for the global, constant
// and texture address spaces.
package mem

// Cache is a set-associative cache with LRU replacement, tracking tags only
// (data lives in the functional store).
type Cache struct {
	sets     [][]line
	ways     int
	lineSize int
	tick     uint64
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// NewCache returns a cache of the given total size, associativity and line
// size (all in bytes).
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	numLines := sizeBytes / lineBytes
	numSets := numLines / ways
	if numSets < 1 {
		numSets = 1
	}
	c := &Cache{sets: make([][]line, numSets), ways: ways, lineSize: lineBytes}
	for i := range c.sets {
		c.sets[i] = make([]line, ways)
	}
	return c
}

// Access looks up lineAddr, fills it on a miss (evicting LRU), and reports
// whether it hit along with whether the eviction displaced a dirty line.
func (c *Cache) Access(lineAddr uint64, markDirty bool) (hit, writeback bool) {
	c.tick++
	set := c.sets[lineAddr%uint64(len(c.sets))]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].lru = c.tick
			if markDirty {
				set[i].dirty = true
			}
			return true, false
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	writeback = set[victim].valid && set[victim].dirty
	set[victim] = line{tag: lineAddr, valid: true, dirty: markDirty, lru: c.tick}
	return false, writeback
}

// Probe reports whether lineAddr is resident without changing any state.
func (c *Cache) Probe(lineAddr uint64) bool {
	set := c.sets[lineAddr%uint64(len(c.sets))]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// Invalidate drops lineAddr if resident (global stores evict the L1 line:
// write-evict policy).
func (c *Cache) Invalidate(lineAddr uint64) {
	set := c.sets[lineAddr%uint64(len(c.sets))]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].valid = false
		}
	}
}
