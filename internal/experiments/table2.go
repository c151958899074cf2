package experiments

import (
	"strings"

	"ftb"
	"ftb/internal/stats"
)

// Table2Row summarizes precision, recall and uncertainty of the 1%
// inference boundary over repeated trials (paper Table 2).
type Table2Row struct {
	Name        string
	Precision   stats.Summary
	Recall      stats.Summary
	Uncertainty stats.Summary
}

// Table2Result is the full table.
type Table2Result struct {
	SampleFrac float64
	Rows       []Table2Row
}

// Table2 runs the §4.3 experiment: 1% uniform sampling, Scale.Trials
// trials, evaluated against exhaustive ground truth. The filter operation
// is off, matching the paper's base inference method (the filter is
// studied separately in Figure 5).
func Table2(s Scale) (*Table2Result, error) {
	defer s.section("table2")()
	return table2At(s, 0.01)
}

func table2At(s Scale, frac float64) (*Table2Result, error) {
	s = s.normalized()
	benches, err := setup(Benchmarks, s)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{SampleFrac: frac}
	for _, b := range benches {
		var prec, rec, unc []float64
		for trial := 0; trial < s.Trials; trial++ {
			r, err := b.infer(ftb.InferOptions{
				SampleFrac: frac,
				Seed:       trialSeed(s.Seed, trial),
			})
			if err != nil {
				return nil, err
			}
			pr := r.Evaluate(b.gt)
			prec = append(prec, pr.Precision)
			rec = append(rec, pr.Recall)
			unc = append(unc, pr.Uncertainty)
		}
		res.Rows = append(res.Rows, Table2Row{
			Name:        b.name,
			Precision:   stats.Summarize(prec),
			Recall:      stats.Summarize(rec),
			Uncertainty: stats.Summarize(unc),
		})
	}
	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table2Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			row.Precision.PctString(),
			row.Recall.PctString(),
			row.Uncertainty.PctString(),
		})
	}
	var b strings.Builder
	b.WriteString("Table 2: inference-boundary quality at ")
	b.WriteString(pct(r.SampleFrac))
	b.WriteString(" sampling\n")
	b.WriteString(table([]string{"Name", "Precision", "Recall", "Uncertainty"}, rows))
	return b.String()
}
