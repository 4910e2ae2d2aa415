package stats

import (
	"reflect"
	"testing"
)

func TestMapCoversEveryField(t *testing.T) {
	s := Sim{Issued: 5, Cycles: 9, AffineFUOps: 2}
	m := s.Map()
	if len(m) != reflect.TypeOf(s).NumField() {
		t.Fatalf("map has %d entries for %d fields", len(m), reflect.TypeOf(s).NumField())
	}
	if m["Issued"] != 5 || m["Cycles"] != 9 || m["AffineFUOps"] != 2 || m["Bypassed"] != 0 {
		t.Fatalf("map values wrong: %+v", m)
	}
}

func TestDeltaSubtractsFieldwise(t *testing.T) {
	cur := Sim{Issued: 100, Bypassed: 30, Cycles: 500, RegUtilPeak: 40}
	prev := Sim{Issued: 60, Bypassed: 10, Cycles: 400, RegUtilPeak: 25}
	d := Delta(&cur, &prev)
	if d.Issued != 40 || d.Bypassed != 20 || d.Cycles != 100 || d.RegUtilPeak != 15 {
		t.Fatalf("delta wrong: %+v", d)
	}
	// Delta against the zero struct is the identity.
	var zero Sim
	if id := Delta(&cur, &zero); id != cur {
		t.Fatalf("delta from zero changed values: %+v", id)
	}
}

// TestDeltaTelescopes guards the reconciliation property the interval sampler
// depends on: summing the deltas of a monotone sequence of snapshots equals
// the last snapshot.
func TestDeltaTelescopes(t *testing.T) {
	snaps := []Sim{
		{Issued: 10, Cycles: 100},
		{Issued: 35, Cycles: 200},
		{Issued: 90, Cycles: 450},
	}
	var total, prev Sim
	for i := range snaps {
		d := Delta(&snaps[i], &prev)
		total.Issued += d.Issued
		total.Cycles += d.Cycles
		prev = snaps[i]
	}
	last := snaps[len(snaps)-1]
	if total.Issued != last.Issued || total.Cycles != last.Cycles {
		t.Fatalf("telescoped %+v, want %+v", total, last)
	}
}
