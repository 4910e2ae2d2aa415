package sm

import (
	"strings"
	"testing"

	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/isa"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/stats"
)

func testSM(m config.Model) (*SM, *stats.Sim) {
	cfg := config.Default(m)
	cfg.NumSMs = 1
	st := &stats.Sim{}
	ms := mem.NewSystem(&cfg, st)
	return New(0, &cfg, st, ms), st
}

func trivialKernel(regs int) *kasm.Kernel {
	b := kasm.NewBuilder("trivial")
	var last isa.Reg
	for i := 0; i < regs; i++ {
		last = b.R()
	}
	if regs > 0 {
		b.MovI(last, 1)
	}
	b.Exit()
	return b.MustBuild()
}

func info(k *kasm.Kernel, threads int) BlockInfo {
	return BlockInfo{Kernel: k, GridX: 1, GridY: 1, GridZ: 1, DimX: threads, DimY: 1, DimZ: 1, Threads: threads}
}

func TestLaunchConsumesWarpSlots(t *testing.T) {
	s, _ := testSM(config.Base)
	k := trivialKernel(4)
	// 48 warps available; 512-thread blocks use 16 warps each.
	for i := 0; i < 3; i++ {
		if !s.TryLaunchBlock(info(k, 512)) {
			t.Fatalf("launch %d should fit", i)
		}
	}
	if s.TryLaunchBlock(info(k, 512)) {
		t.Fatalf("fourth block must not fit (warp slots)")
	}
}

func TestLaunchConsumesBlockSlots(t *testing.T) {
	s, _ := testSM(config.Base)
	k := trivialKernel(2)
	for i := 0; i < 8; i++ {
		if !s.TryLaunchBlock(info(k, 32)) {
			t.Fatalf("launch %d should fit", i)
		}
	}
	if s.TryLaunchBlock(info(k, 32)) {
		t.Fatalf("ninth block must not fit (block slots)")
	}
}

func TestRunToCompletion(t *testing.T) {
	s, st := testSM(config.RLPV)
	k := trivialKernel(3)
	if !s.TryLaunchBlock(info(k, 64)) {
		t.Fatalf("launch failed")
	}
	for i := 0; i < 10000 && !s.Idle(); i++ {
		s.Tick()
	}
	if !s.Idle() {
		t.Fatalf("SM did not drain:\n%s", s.Diagnose())
	}
	if st.Issued == 0 {
		t.Fatalf("nothing issued")
	}
	// Slots are free again after completion.
	if !s.TryLaunchBlock(info(k, 64)) {
		t.Fatalf("slots not recycled")
	}
}

func TestDebugState(t *testing.T) {
	s, _ := testSM(config.RLPV)
	k := trivialKernel(2)
	s.TryLaunchBlock(info(k, 32))
	s.Tick()
	out := s.Diagnose()
	if !strings.Contains(out, "SM0") || !strings.Contains(out, "blocks=1") {
		t.Fatalf("debug state incomplete: %q", out)
	}
}

func TestFlushLoadReuseSafeOnAllModels(t *testing.T) {
	for _, m := range []config.Model{config.Base, config.RLPV} {
		s, _ := testSM(m)
		s.FlushLoadReuse() // must not panic even with nothing resident
	}
}
