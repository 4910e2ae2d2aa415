package harness

import (
	"fmt"
	"io"
)

// Experiment is one named, selectable evaluation artifact: a figure, table or
// ablation from the paper. Run renders it to w, simulating (or hitting the
// memo cache) as needed. wirbench's -exp selects from the registry by name.
type Experiment struct {
	Name string
	Run  func(h *Harness, w io.Writer) error
}

// renderText adapts the Fig*/Table* result types, which all expose
// WriteText(io.Writer).
func renderText[T interface{ WriteText(io.Writer) }](get func(h *Harness) (T, error)) func(h *Harness, w io.Writer) error {
	return func(h *Harness, w io.Writer) error {
		r, err := get(h)
		if err != nil {
			return err
		}
		r.WriteText(w)
		return nil
	}
}

// Experiments returns every experiment in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"headline", renderText(func(h *Harness) (*Headline, error) { return h.RunHeadline() })},
		{"fig2", renderText(func(h *Harness) (*Fig2Result, error) { return h.Fig2() })},
		{"fig12", renderText(func(h *Harness) (*Fig12Result, error) { return h.Fig12() })},
		{"fig13", renderText(func(h *Harness) (*Fig13Result, error) { return h.Fig13() })},
		{"fig14", renderText(func(h *Harness) (*Fig14Result, error) { return h.Fig14() })},
		{"fig15", renderText(func(h *Harness) (*Fig15Result, error) { return h.Fig15() })},
		{"fig16", renderText(func(h *Harness) (*Fig16Result, error) { return h.Fig16() })},
		{"fig17", renderText(func(h *Harness) (*Fig17Result, error) { return h.Fig17() })},
		{"fig18", renderText(func(h *Harness) (*Fig18Result, error) { return h.Fig18() })},
		{"fig19", renderText(func(h *Harness) (*Fig19Result, error) { return h.Fig19() })},
		{"fig20", renderText(func(h *Harness) (*Fig20Result, error) { return h.Fig20() })},
		{"fig21", renderText(func(h *Harness) (*Fig21Result, error) { return h.Fig21() })},
		{"fig22", renderText(func(h *Harness) (*Fig22Result, error) { return h.Fig22() })},
		{"table1", renderText(func(h *Harness) (*TableIResult, error) { return h.TableI() })},
		{"table2", func(h *Harness, w io.Writer) error { TableII(w); return nil }},
		{"table3", func(h *Harness, w io.Writer) error { TableIII(w); return nil }},
		{"ablation-assoc", renderText(func(h *Harness) (*AblationAssocResult, error) { return h.AblationAssociativity() })},
		{"ablation-pending", renderText(func(h *Harness) (*AblationPendingResult, error) { return h.AblationPendingQueue() })},
		{"ablation-gating", renderText(func(h *Harness) (*AblationGatingResult, error) { return h.AblationPowerGating() })},
		{"ablation-scheduler", renderText(func(h *Harness) (*AblationSchedulerResult, error) { return h.AblationScheduler() })},
	}
}

// ExperimentByName resolves one experiment by its registry name.
func ExperimentByName(name string) (*Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			e := e
			return &e, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", name)
}
