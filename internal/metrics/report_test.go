package metrics

import (
	"bytes"
	"testing"
)

// TestReportHotspotsRoundTrip checks the hotspots section survives the
// write/read cycle used by served jobs and the CI artifacts.
func TestReportHotspotsRoundTrip(t *testing.T) {
	r := &Report{Schema: ReportSchema, Model: "RLPV", SMs: 2, Derived: map[string]float64{"ipc_per_sm": 1.0}}
	r.Hotspots = []Hotspot{
		{Kernel: "kmeans", PC: 14, Op: "ld.global $r7, [$r10]", Issued: 100, Cycles: 5000, EnergyPJ: 123.5, StallCycles: 40},
		{Kernel: "kmeans", PC: 17, Op: "ld.const $r8, [$r11]", Issued: 100, Bypassed: 60, ReuseHits: 60, Cycles: 2000, StallCycles: 10},
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Hotspots) != 2 {
		t.Fatalf("got %d hotspots, want 2", len(got.Hotspots))
	}
	if got.Hotspots[0] != r.Hotspots[0] || got.Hotspots[1] != r.Hotspots[1] {
		t.Fatalf("hotspots changed in round trip:\n%+v\n%+v", got.Hotspots, r.Hotspots)
	}
}
