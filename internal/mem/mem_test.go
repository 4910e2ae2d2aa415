package mem

import (
	"testing"

	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/stats"
)

func testSystem() (*System, *stats.Sim) {
	cfg := config.Default(config.Base)
	cfg.NumSMs = 2
	st := &stats.Sim{}
	return NewSystem(&cfg, st), st
}

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(2*128, 2, 128) // 2 lines, fully associative set of 2
	if hit, _ := c.Access(1, false); hit {
		t.Fatalf("cold access must miss")
	}
	if hit, _ := c.Access(1, false); !hit {
		t.Fatalf("second access must hit")
	}
	c.Access(2, false)
	c.Access(1, false) // 2 is now LRU
	c.Access(3, false) // evicts 2
	if c.Probe(2) {
		t.Fatalf("LRU line should have been evicted")
	}
	if !c.Probe(1) || !c.Probe(3) {
		t.Fatalf("wrong lines evicted")
	}
}

// TestCacheLinesMatchesNewSystem holds config.CacheLines, which Validate
// caps, to the tag lines NewSystem really allocates, on the default geometry
// and on caches smaller than one set, empty or negative in size.
func TestCacheLinesMatchesNewSystem(t *testing.T) {
	for i, mutate := range []func(*config.Config){
		func(*config.Config) {},
		func(c *config.Config) { c.NumSMs, c.LineBytes, c.L1DBytes, c.L1DWays = 3, 1, 4096, 1 },
		func(c *config.Config) { c.ConstBytes, c.TexBytes = 0, 3*128 },
		func(c *config.Config) { c.L1DBytes, c.L1DWays, c.L2Ways = 128, 64, 16 },
		func(c *config.Config) { c.L2Partitions, c.L2BytesPerPart, c.ConstBytes = 5, -1<<20, -1 },
	} {
		cfg := config.Default(config.RLPV)
		cfg.NumSMs = 2
		mutate(&cfg)
		s := NewSystem(&cfg, &stats.Sim{})
		got := 0
		for _, caches := range [][]*Cache{s.l1d, s.l1c, s.l1t, s.l2} {
			for _, c := range caches {
				got += len(c.sets) * c.ways
			}
		}
		if want := cfg.CacheLines(); got != want {
			t.Errorf("case %d: NewSystem allocated %d tag lines, CacheLines says %d", i, got, want)
		}
	}
}

func TestCacheWriteback(t *testing.T) {
	c := NewCache(128, 1, 128) // a single line
	c.Access(1, true)          // dirty
	if _, wb := c.Access(2, false); !wb {
		t.Fatalf("evicting a dirty line must report a writeback")
	}
	if _, wb := c.Access(3, false); wb {
		t.Fatalf("evicting a clean line must not report a writeback")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1024, 4, 128)
	c.Access(5, false)
	c.Invalidate(5)
	if c.Probe(5) {
		t.Fatalf("invalidate failed")
	}
}

func TestFunctionalGlobalMemory(t *testing.T) {
	s, _ := testSystem()
	a := s.Alloc(16)
	b := s.Alloc(16)
	if a == b {
		t.Fatalf("allocations must not alias")
	}
	if a%128 != 0 {
		t.Fatalf("allocations must be line-aligned, got %#x", a)
	}
	s.StoreGlobal(a, 0xDEAD)
	s.StoreGlobal(b, 0xBEEF)
	if s.LoadGlobal(a) != 0xDEAD || s.LoadGlobal(b) != 0xBEEF {
		t.Fatalf("read back mismatch")
	}
	if s.LoadGlobal(a+64) != 0 {
		t.Fatalf("untouched memory must read zero")
	}
	snap := s.Snapshot(a, 2)
	if snap[0] != 0xDEAD || snap[1] != 0 {
		t.Fatalf("snapshot wrong: %v", snap)
	}
}

// TestAllocAlignsToConfiguredLine: Alloc must align to the configured line
// size, not a hardcoded 128 — with 256-byte lines a 128-aligned allocation
// can straddle a line, breaking the coalescer's one-line assumption for
// segment-sized accesses.
func TestAllocAlignsToConfiguredLine(t *testing.T) {
	for _, lineBytes := range []int{32, 128, 256} {
		cfg := config.Default(config.Base)
		cfg.NumSMs = 1
		cfg.LineBytes = lineBytes
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		s := NewSystem(&cfg, &stats.Sim{})
		for i := 0; i < 4; i++ {
			a := s.Alloc(3) // odd sizes force realignment on the next call
			if a%uint32(lineBytes) != 0 {
				t.Fatalf("lineBytes=%d: allocation %d at %#x is not line-aligned", lineBytes, i, a)
			}
		}
	}
}

func TestConstAndTexSegments(t *testing.T) {
	s, _ := testSystem()
	s.SetConst([]uint32{10, 20, 30})
	s.SetTex([]uint32{7})
	if s.LoadConst(4) != 20 || s.LoadConst(400) != 0 {
		t.Fatalf("const segment wrong")
	}
	if s.LoadTex(0) != 7 || s.LoadTex(100) != 0 {
		t.Fatalf("tex segment wrong")
	}
}

func TestL1TimingAndMSHRMerge(t *testing.T) {
	s, st := testSystem()
	// Cold load misses; done time reflects L2 latency at least.
	done1, ok := s.AccessGlobalLoad(0, 100, 1000)
	if !ok || done1 < 1000+200 {
		t.Fatalf("cold miss should cost at least the L2 latency, done=%d", done1)
	}
	// A second access to the same line merges into the MSHR with the same
	// completion time.
	done2, ok := s.AccessGlobalLoad(0, 100, 1001)
	if !ok || done2 != done1 {
		t.Fatalf("MSHR merge should share the completion time: %d vs %d", done2, done1)
	}
	if st.L1DMisses != 2 {
		t.Fatalf("both accesses count as misses, got %d", st.L1DMisses)
	}
	// After the fill time, the line hits.
	done3, ok := s.AccessGlobalLoad(0, 100, done1+1)
	if !ok || done3 != done1+1+L1HitLatency {
		t.Fatalf("post-fill access should hit: %d", done3)
	}
	if st.L1DHits != 1 {
		t.Fatalf("hit not counted")
	}
}

func TestMSHRLimit(t *testing.T) {
	cfg := config.Default(config.Base)
	cfg.NumSMs = 1
	cfg.L1DMSHRs = 4
	st := &stats.Sim{}
	s := NewSystem(&cfg, st)
	for i := 0; i < 4; i++ {
		if _, ok := s.AccessGlobalLoad(0, uint64(1000+i*7), 10); !ok {
			t.Fatalf("miss %d rejected below the MSHR limit", i)
		}
	}
	if _, ok := s.AccessGlobalLoad(0, 5000, 11); ok {
		t.Fatalf("fifth outstanding miss must be rejected")
	}
	// Once time passes the fills, MSHRs drain and misses flow again.
	if _, ok := s.AccessGlobalLoad(0, 6000, 100000); !ok {
		t.Fatalf("MSHRs should have drained")
	}
}

func TestStoresWriteEvictL1(t *testing.T) {
	s, _ := testSystem()
	done, _ := s.AccessGlobalLoad(0, 42, 0)
	s.AccessGlobalStore(0, 42, done+1)
	// The line was evicted by the store; the next load must miss.
	d2, _ := s.AccessGlobalLoad(0, 42, done+2)
	if d2 < done+2+uint64(200) {
		t.Fatalf("load after store-evict should miss, done=%d", d2)
	}
}

func TestDRAMQueueSerializes(t *testing.T) {
	cfg := config.Default(config.Base)
	cfg.NumSMs = 1
	cfg.L2BytesPerPart = 128 // one line per partition: everything misses
	cfg.L2Partitions = 1
	st := &stats.Sim{}
	s := NewSystem(&cfg, st)
	var last uint64
	for i := 0; i < 8; i++ {
		done, ok := s.AccessGlobalLoad(0, uint64(i*211+7), 0)
		if !ok {
			t.Fatalf("unexpected MSHR rejection")
		}
		if done < last {
			t.Fatalf("DRAM queue must serialize requests: %d < %d", done, last)
		}
		last = done
	}
	if st.DRAMAccesses == 0 {
		t.Fatalf("no DRAM traffic recorded")
	}
}

func TestPartitionSpread(t *testing.T) {
	cfg := config.Default(config.Base)
	st := &stats.Sim{}
	s := NewSystem(&cfg, st)
	seen := map[int]bool{}
	for l := uint64(0); l < 64; l++ {
		seen[s.partition(l)] = true
	}
	if len(seen) < cfg.L2Partitions {
		t.Fatalf("addresses map to only %d of %d partitions", len(seen), cfg.L2Partitions)
	}
}

func TestConstTexTiming(t *testing.T) {
	s, st := testSystem()
	d1 := s.AccessConst(0, 5, 0)
	if d1 <= ConstHitLatency {
		t.Fatalf("cold const access should miss to L2")
	}
	d2 := s.AccessConst(0, 5, d1)
	if d2 != d1+ConstHitLatency {
		t.Fatalf("warm const access should hit")
	}
	if st.ConstAcc != 2 || st.ConstHits != 1 {
		t.Fatalf("const counters wrong: %d/%d", st.ConstHits, st.ConstAcc)
	}
	s.AccessTex(0, 9, 0)
	if st.TexAcc != 1 {
		t.Fatalf("tex counter wrong")
	}
}

func TestCheckAddr(t *testing.T) {
	if err := CheckAddr(4); err != nil {
		t.Fatalf("aligned address rejected: %v", err)
	}
	if err := CheckAddr(6); err == nil {
		t.Fatalf("unaligned address accepted")
	}
}
