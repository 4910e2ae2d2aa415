package main

import (
	"strings"
	"testing"

	"github.com/wirsim/wir/internal/harness"
)

// TestSelectedRejectsUnknownNames: every -exp name must resolve through the
// registry. A misspelt name beside a good one is an error naming it, not a
// silently shorter run.
func TestSelectedRejectsUnknownNames(t *testing.T) {
	for _, list := range []string{"table2,fgi12", "fgi12", "fig12,,fig13", "", "all,fig99"} {
		if _, err := selected(list); err == nil {
			t.Errorf("-exp %q accepted", list)
		}
	}
	_, err := selected("table2, fgi12,FIG99")
	if err == nil || !strings.Contains(err.Error(), `"fgi12", "fig99"`) {
		t.Errorf("error %v does not name both bad entries", err)
	}

	want, err := selected(" Table2,fig12,fig12")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !want["table2"] || !want["fig12"] {
		t.Errorf("selected %v, want table2 and fig12", want)
	}
	all, err := selected("all")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(harness.Experiments()); len(all) != n {
		t.Errorf("all selects %d experiments, the registry has %d", len(all), n)
	}
}
