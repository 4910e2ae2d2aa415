package reuseprof_test

import (
	"testing"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/reuseprof"
)

// TestTopLostRanking holds each kernel's top_lost list, the one lost-reuse
// ranking the tools print, to the collector's per-PC tables on real runs at
// 2 SMs under RLPV: at most 8 entries, each matching its PC's summed
// counters with lost_reuse == shadow_hits - hits > 0, ordered by lost reuse
// then PC, and no PC left out that outranks the last entry kept. KM's kernel
// has more lost PCs than the list keeps; DW's kernels tie on lost reuse.
func TestTopLostRanking(t *testing.T) {
	for _, abbr := range []string{"KM", "DW"} {
		t.Run(abbr, func(t *testing.T) { checkTopLost(t, abbr) })
	}
}

func checkTopLost(t *testing.T, abbr string) {
	cfg := config.Default(config.RLPV)
	cfg.NumSMs = 2
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rp := g.NewReuseProf()
	g.SetReuseProf(rp)
	bm, err := bench.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := bm.Setup(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(g); err != nil {
		t.Fatal(err)
	}

	// Sum the per-SM tables independently of the report's own merge.
	sums := map[string][]reuseprof.PCStats{}
	for i := 0; i < rp.NumSMs(); i++ {
		for name, tab := range rp.SM(i).Tables() {
			s := sums[name]
			for len(s) < len(tab.PCs) {
				s = append(s, reuseprof.PCStats{})
			}
			for pc, p := range tab.PCs {
				s[pc].Lookups += p.Lookups
				s[pc].Hits += p.Hits
				s[pc].ShadowHits += p.ShadowHits
			}
			sums[name] = s
		}
	}

	rep := rp.Report()
	if len(rep.Kernels) != len(sums) {
		t.Fatalf("report has %d kernels, the tables %d", len(rep.Kernels), len(sums))
	}
	ranked := 0
	for _, k := range rep.Kernels {
		pcs, ok := sums[k.Kernel]
		if !ok {
			t.Fatalf("kernel %q has no per-PC table", k.Kernel)
		}
		if len(k.TopLost) > 8 {
			t.Errorf("%s: %d top_lost entries, want at most 8", k.Kernel, len(k.TopLost))
		}
		kept := map[int]bool{}
		for i, e := range k.TopLost {
			kept[e.PC] = true
			p := pcs[e.PC]
			if e.Lookups != p.Lookups || e.Hits != p.Hits || e.ShadowHits != p.ShadowHits {
				t.Errorf("%s pc %d: entry %+v, tables say %+v", k.Kernel, e.PC, e, p)
			}
			if e.ShadowHits <= e.Hits || e.LostReuse != e.ShadowHits-e.Hits {
				t.Errorf("%s pc %d: lost_reuse %d, shadow %d, hits %d", k.Kernel, e.PC, e.LostReuse, e.ShadowHits, e.Hits)
			}
			if i > 0 {
				prev := k.TopLost[i-1]
				if prev.LostReuse < e.LostReuse || (prev.LostReuse == e.LostReuse && prev.PC >= e.PC) {
					t.Errorf("%s: entry %d (pc %d, lost %d) ranks above entry %d (pc %d, lost %d)",
						k.Kernel, i, e.PC, e.LostReuse, i-1, prev.PC, prev.LostReuse)
				}
			}
		}
		for pc, p := range pcs {
			if kept[pc] || p.ShadowHits <= p.Hits {
				continue
			}
			lost := p.ShadowHits - p.Hits
			if len(k.TopLost) < 8 {
				t.Errorf("%s pc %d: lost %d left out of a list of %d", k.Kernel, pc, lost, len(k.TopLost))
				continue
			}
			last := k.TopLost[len(k.TopLost)-1]
			if lost > last.LostReuse || (lost == last.LostReuse && pc < last.PC) {
				t.Errorf("%s pc %d: lost %d left out, outranking the last entry (pc %d, lost %d)",
					k.Kernel, pc, lost, last.PC, last.LostReuse)
			}
		}
		ranked += len(k.TopLost)
	}
	if ranked == 0 {
		t.Fatal("no kernel ranked any lost reuse; the run exercised nothing")
	}
}
