package harness

import (
	"fmt"
	"io"
)

// Experiment is one named, selectable evaluation artifact: a figure, table or
// ablation from the paper. Run renders it to w, simulating (or hitting the
// memo cache) as needed. wirbench's -exp selects from the registry by name,
// and WriteReport encodes each result under its report key.
type Experiment struct {
	Name string
	Run  func(h *Harness, w io.Writer) error

	key    string                        // WriteReport's key; "" for the static tables, which have no result
	result func(h *Harness) (any, error) // the value WriteReport encodes under key
}

// experiment registers a result getter under its selection name and report
// key: Run renders the result's text, and WriteReport encodes the result.
func experiment[T interface{ WriteText(io.Writer) }](name, key string, get func(*Harness) (T, error)) Experiment {
	return Experiment{
		Name: name,
		Run: func(h *Harness, w io.Writer) error {
			r, err := get(h)
			if err != nil {
				return err
			}
			r.WriteText(w)
			return nil
		},
		key:    key,
		result: func(h *Harness) (any, error) { return get(h) },
	}
}

// Experiments returns every experiment in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		experiment("headline", "headline", (*Harness).RunHeadline),
		experiment("fig2", "fig2", (*Harness).Fig2),
		experiment("fig12", "fig12", (*Harness).Fig12),
		experiment("fig13", "fig13", (*Harness).Fig13),
		experiment("fig14", "fig14", (*Harness).Fig14),
		experiment("fig15", "fig15", (*Harness).Fig15),
		experiment("fig16", "fig16", (*Harness).Fig16),
		experiment("fig17", "fig17", (*Harness).Fig17),
		experiment("fig18", "fig18", (*Harness).Fig18),
		experiment("fig19", "fig19", (*Harness).Fig19),
		experiment("fig20", "fig20", (*Harness).Fig20),
		experiment("fig21", "fig21", (*Harness).Fig21),
		experiment("fig22", "fig22", (*Harness).Fig22),
		experiment("table1", "table1", (*Harness).TableI),
		{Name: "table2", Run: func(_ *Harness, w io.Writer) error { TableII(w); return nil }},
		{Name: "table3", Run: func(_ *Harness, w io.Writer) error { TableIII(w); return nil }},
		experiment("ablation-assoc", "ablationAssociativity", (*Harness).AblationAssociativity),
		experiment("ablation-pending", "ablationPendingQueue", (*Harness).AblationPendingQueue),
		experiment("ablation-gating", "ablationPowerGating", (*Harness).AblationPowerGating),
		experiment("ablation-scheduler", "ablationScheduler", (*Harness).AblationScheduler),
	}
}

// ExperimentByName resolves one experiment by its registry name.
func ExperimentByName(name string) (*Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return &e, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", name)
}
