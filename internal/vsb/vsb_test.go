package vsb

import (
	"testing"

	"github.com/wirsim/wir/internal/regfile"
)

func TestLookupInsert(t *testing.T) {
	b := New(16)
	if _, hit := b.Lookup(0x1234); hit {
		t.Fatalf("empty buffer must miss")
	}
	if _, had := b.Insert(0x1234, 7); had {
		t.Fatalf("insert into empty slot should displace nothing")
	}
	p, hit := b.Lookup(0x1234)
	if !hit || p != 7 {
		t.Fatalf("lookup after insert: %v %v", p, hit)
	}
}

func TestIndexCollisionDifferentHashMisses(t *testing.T) {
	b := New(16)
	b.Insert(0x10, 1)
	// 0x20 indexes the same slot (low 4 bits 0) but has a different hash:
	// the direct-indexed design must report a miss, not a false hit.
	if _, hit := b.Lookup(0x20); hit {
		t.Fatalf("different hash in same slot must miss")
	}
	// Inserting the colliding hash displaces the old occupant.
	ev, had := b.Insert(0x20, 2)
	if !had || ev != 1 {
		t.Fatalf("displacement: got %v %v", ev, had)
	}
	if _, hit := b.Lookup(0x10); hit {
		t.Fatalf("displaced entry must be gone")
	}
}

func TestEvictSlot(t *testing.T) {
	b := New(8)
	b.Insert(5, 9)
	p, ok := b.EvictSlot(5)
	if !ok || p != 9 {
		t.Fatalf("EvictSlot: %v %v", p, ok)
	}
	if _, ok := b.EvictSlot(5); ok {
		t.Fatalf("second evict must find nothing")
	}
}

func TestEvictAnyRoundRobin(t *testing.T) {
	b := New(8)
	b.Insert(0, 10)
	b.Insert(1, 11)
	seen := map[regfile.PhysID]bool{}
	for c := 0; c < 8; c++ {
		if p, ok := b.EvictAny(c); ok {
			seen[p] = true
		}
	}
	if !seen[10] || !seen[11] {
		t.Fatalf("EvictAny should eventually drain all entries: %+v", seen)
	}
	if _, ok := b.EvictAny(0); ok {
		t.Fatalf("empty buffer must have nothing to evict")
	}
}

func TestZeroEntryBuffer(t *testing.T) {
	b := New(0)
	if _, hit := b.Lookup(1); hit {
		t.Fatalf("zero-entry buffer must always miss")
	}
	if _, had := b.Insert(1, 2); had {
		t.Fatalf("zero-entry buffer insert must be a no-op")
	}
	if _, ok := b.EvictSlot(1); ok {
		t.Fatalf("nothing to evict")
	}
}

func TestInvalidateRegAndOccupancy(t *testing.T) {
	b := New(8)
	b.Insert(0, 3)
	b.Insert(1, 3)
	b.Insert(2, 4)
	if got := b.Occupancy(); got != 3 {
		t.Fatalf("occupancy = %d", got)
	}
}
