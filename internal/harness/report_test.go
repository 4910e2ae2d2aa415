package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/stats"
)

func TestWriteRunsCSV(t *testing.T) {
	h := New()
	h.SMs = 2
	if _, err := h.Run("DW", config.Base, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run("DW", config.RLPV, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteRunsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + two runs
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "key" || rows[0][3] != "cycles" {
		t.Fatalf("header wrong: %v", rows[0])
	}
	for _, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Fatalf("ragged row: %v", row)
		}
		if row[1] != "DW" {
			t.Fatalf("bench column wrong: %v", row)
		}
	}
	if h.RunCount() != 2 {
		t.Fatalf("RunCount = %d", h.RunCount())
	}
}

// legacyReport is the 18-field struct whose encoder wrote `wirbench -json`
// before the experiment registry became the report's one list. It stays
// here as the reference WriteReport's bytes are held to.
type legacyReport struct {
	Headline *Headline                `json:"headline,omitempty"`
	Fig2     *Fig2Result              `json:"fig2,omitempty"`
	Fig12    *Fig12Result             `json:"fig12,omitempty"`
	Fig13    *Fig13Result             `json:"fig13,omitempty"`
	Fig14    *Fig14Result             `json:"fig14,omitempty"`
	Fig15    *Fig15Result             `json:"fig15,omitempty"`
	Fig16    *Fig16Result             `json:"fig16,omitempty"`
	Fig17    *Fig17Result             `json:"fig17,omitempty"`
	Fig18    *Fig18Result             `json:"fig18,omitempty"`
	Fig19    *Fig19Result             `json:"fig19,omitempty"`
	Fig20    *Fig20Result             `json:"fig20,omitempty"`
	Fig21    *Fig21Result             `json:"fig21,omitempty"`
	Fig22    *Fig22Result             `json:"fig22,omitempty"`
	TableI   *TableIResult            `json:"table1,omitempty"`
	Assoc    *AblationAssocResult     `json:"ablationAssociativity,omitempty"`
	Pending  *AblationPendingResult   `json:"ablationPendingQueue,omitempty"`
	Gating   *AblationGatingResult    `json:"ablationPowerGating,omitempty"`
	Sched    *AblationSchedulerResult `json:"ablationScheduler,omitempty"`
}

// cannedExec answers every run without simulating: each counter is a value
// in [1000, 2024) drawn from the run's key, so every figure gets distinct,
// finite numbers that differ between runs.
func cannedExec(key, abbr string, m config.Model, cfg config.Config) (*Result, error) {
	f := fnv.New64a()
	f.Write([]byte(key))
	x := f.Sum64()
	var st stats.Sim
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v.Field(i).SetUint(1000 + x>>54)
	}
	coeff := energy.Default45nm()
	return &Result{Bench: abbr, Model: m, Cycles: st.Cycles, Stats: st, Energy: energy.Model(&coeff, &st, cfg.NumSMs)}, nil
}

// TestWriteReportMatchesLegacyEncoder holds WriteReport to the bytes the
// deleted 18-field report struct encoded for the same results. Runs come
// from cannedExec; Fig. 2 builds its own GPUs, so it still simulates (at
// one SM, twice).
func TestWriteReportMatchesLegacyEncoder(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 2 simulates all 34 benchmarks twice")
	}
	h := New()
	h.SMs = 1
	h.Exec = cannedExec
	var got bytes.Buffer
	if err := h.WriteReport(&got); err != nil {
		t.Fatal(err)
	}

	var ref legacyReport
	for _, fill := range []func() error{
		func() (err error) { ref.Headline, err = h.RunHeadline(); return },
		func() (err error) { ref.Fig2, err = h.Fig2(); return },
		func() (err error) { ref.Fig12, err = h.Fig12(); return },
		func() (err error) { ref.Fig13, err = h.Fig13(); return },
		func() (err error) { ref.Fig14, err = h.Fig14(); return },
		func() (err error) { ref.Fig15, err = h.Fig15(); return },
		func() (err error) { ref.Fig16, err = h.Fig16(); return },
		func() (err error) { ref.Fig17, err = h.Fig17(); return },
		func() (err error) { ref.Fig18, err = h.Fig18(); return },
		func() (err error) { ref.Fig19, err = h.Fig19(); return },
		func() (err error) { ref.Fig20, err = h.Fig20(); return },
		func() (err error) { ref.Fig21, err = h.Fig21(); return },
		func() (err error) { ref.Fig22, err = h.Fig22(); return },
		func() (err error) { ref.TableI, err = h.TableI(); return },
		func() (err error) { ref.Assoc, err = h.AblationAssociativity(); return },
		func() (err error) { ref.Pending, err = h.AblationPendingQueue(); return },
		func() (err error) { ref.Gating, err = h.AblationPowerGating(); return },
		func() (err error) { ref.Sched, err = h.AblationScheduler(); return },
	} {
		if err := fill(); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&ref); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.String(), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("WriteReport differs from the legacy encoder at byte %d of %d/%d:\ngot  %.120q\nwant %.120q",
			i, len(g), len(w), g[i:], w[i:])
	}
	if !strings.Contains(got.String(), `"RLPV"`) {
		t.Fatalf("model keys must marshal by name:\n%.400s", got.String())
	}
}

// TestWriteReportFailsWhole: an experiment that fails names itself in the
// error, and nothing is written.
func TestWriteReportFailsWhole(t *testing.T) {
	h := New()
	h.Exec = func(key, abbr string, m config.Model, cfg config.Config) (*Result, error) {
		return nil, fmt.Errorf("no simulator")
	}
	var out bytes.Buffer
	err := h.WriteReport(&out)
	if err == nil || !strings.HasPrefix(err.Error(), "headline: ") {
		t.Fatalf("err = %v, want the failing experiment named", err)
	}
	if out.Len() != 0 {
		t.Fatalf("wrote %d bytes despite the failure", out.Len())
	}
}
