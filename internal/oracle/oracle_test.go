package oracle_test

import (
	"strings"
	"testing"

	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/isa"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/oracle"
	"github.com/wirsim/wir/internal/sm"
)

// tinyRun builds a 64-thread kernel that stores tid*3+7 to out[tid], runs it
// on a one-SM RLPV machine with the checker attached, and returns the pieces
// the tests poke at. The run is left unchecked so callers can corrupt state
// first.
func tinyRun(t *testing.T, wrap func(g *gpu.GPU, chk *oracle.Checker)) (*gpu.GPU, *oracle.Checker, uint32) {
	t.Helper()
	cfg := config.Default(config.RLPV)
	cfg.NumSMs = 1
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := g.Mem()
	out := ms.Alloc(64)

	b := kasm.NewBuilder("tiny")
	tid, v, addr := b.R(), b.R(), b.R()
	b.S2R(tid, isa.SrTid)
	b.IMulI(v, tid, 3)
	b.IAddI(v, v, 7)
	b.ShlI(addr, tid, 2)
	b.IAddI(addr, addr, int32(out))
	b.St(isa.SpaceGlobal, addr, v, 0)
	b.Exit()
	k := b.MustBuild()

	chk := oracle.New(ms)
	oracle.Attach(g, chk)
	if wrap != nil {
		wrap(g, chk)
	}
	if _, err := g.Run(&gpu.Launch{Kernel: k, GridX: 1, DimX: 64}); err != nil {
		t.Fatal(err)
	}
	return g, chk, out
}

func TestCleanKernelNoDivergence(t *testing.T) {
	g, chk, out := tinyRun(t, nil)
	chk.CheckMemory()
	if !chk.Ok() {
		t.Fatalf("clean run diverged:\n%s", chk.Report())
	}
	got := g.Mem().Snapshot(out, 64)
	for i, v := range got {
		if v != uint32(i)*3+7 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3+7)
		}
	}
}

func TestMemoryCorruptionDetected(t *testing.T) {
	g, chk, out := tinyRun(t, nil)
	g.Mem().StoreGlobal(out, 0xDEAD)
	chk.CheckMemory()
	if chk.Total() != 1 {
		t.Fatalf("total = %d, want 1:\n%s", chk.Total(), chk.Report())
	}
	d := chk.Divergences()[0]
	if d.Class != "memory" || !strings.Contains(d.Detail, "0000dead") {
		t.Fatalf("divergence: %s", d.String())
	}
}

// TestValueDivergenceDetected corrupts one retired writeback on the way to the
// checker; the divergence must name the warp, PC, and differing lane, and the
// report must carry the disassembly.
func TestValueDivergenceDetected(t *testing.T) {
	corrupted := false
	var chk *oracle.Checker
	_, chk, _ = tinyRun(t, func(g *gpu.GPU, c *oracle.Checker) {
		g.SetRetireHook(func(ev *sm.RetireEvent) {
			if ev.HasArch && ev.WarpInBlock == 1 && !corrupted {
				corrupted = true
				ev.Arch[3] ^= 0x80
			}
			c.OnRetire(ev)
		})
	})
	if !corrupted {
		t.Fatal("the corrupting hook never fired")
	}
	if chk.Total() != 1 {
		t.Fatalf("total = %d, want 1:\n%s", chk.Total(), chk.Report())
	}
	d := chk.Divergences()[0]
	if d.Class != "value" || d.Warp != 1 {
		t.Fatalf("divergence: %s", d.String())
	}
	if !strings.Contains(d.Detail, "lane 3") {
		t.Fatalf("detail must name the differing lane: %s", d.Detail)
	}
	if d.Disasm == "" {
		t.Fatal("divergence must carry the disassembly")
	}
}

// TestMissingRetiresDetected drops every retire event; block completion must
// then report the first unconsumed expectation per warp.
func TestMissingRetiresDetected(t *testing.T) {
	_, chk, _ := tinyRun(t, func(g *gpu.GPU, c *oracle.Checker) {
		g.SetRetireHook(func(ev *sm.RetireEvent) {})
	})
	if chk.Total() != 2 { // one per warp
		t.Fatalf("total = %d, want 2:\n%s", chk.Total(), chk.Report())
	}
	for _, d := range chk.Divergences() {
		if d.Class != "missing" {
			t.Fatalf("divergence: %s", d.String())
		}
	}
}

func TestExtraRetireDetected(t *testing.T) {
	cfg := config.Default(config.Base)
	cfg.NumSMs = 1
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk := oracle.New(g.Mem())
	in := isa.Instr{Op: isa.OpIAdd}
	chk.OnRetire(&sm.RetireEvent{SM: 0, Launch: 0, Block: 0, WarpInBlock: 0, PC: 5, Seq: 1, In: &in})
	if chk.Total() != 1 || chk.Divergences()[0].Class != "extra" {
		t.Fatalf("report:\n%s", chk.Report())
	}
	if chk.Err() == nil {
		t.Fatal("Err must be non-nil after a divergence")
	}
}

// TestDivergenceLimit: the checker counts every divergence but retains at most
// 16 of them.
func TestDivergenceLimit(t *testing.T) {
	cfg := config.Default(config.Base)
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk := oracle.New(g.Mem())
	in := isa.Instr{Op: isa.OpIAdd}
	for i := 0; i < 20; i++ {
		chk.OnRetire(&sm.RetireEvent{PC: i, Seq: 1, In: &in})
	}
	if chk.Total() != 20 || len(chk.Divergences()) != 16 {
		t.Fatalf("total = %d retained = %d, want 20/16", chk.Total(), len(chk.Divergences()))
	}
}
