package experiments

import (
	"strings"

	"ftb/internal/stats"
)

// Table3Row summarizes the adaptive progressive sampling method on one
// benchmark (paper Table 3): the golden SDC ratio, the sample budget the
// method actually spent, and its predicted SDC ratio.
type Table3Row struct {
	Name       string
	GoldenSDC  float64
	SampleFrac stats.Summary
	PredSDC    stats.Summary
	Rounds     stats.Summary
}

// Table3Result is the full table.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs the §4.5 experiment: progressive sampling with 0.1% rounds
// and the 95% stop criterion, biased by per-site information, repeated
// Scale.Trials times.
func Table3(s Scale) (*Table3Result, error) {
	s = s.normalized()
	defer s.section("table3")()
	benches, err := setup(Benchmarks, s)
	if err != nil {
		return nil, err
	}
	res := &Table3Result{}
	for _, b := range benches {
		var fracs, preds, rounds []float64
		for trial := 0; trial < s.Trials; trial++ {
			r, roundStats, err := b.progressive(adaptiveOptions(trialSeed(s.Seed, trial)))
			if err != nil {
				return nil, err
			}
			fracs = append(fracs, r.SampleFraction())
			preds = append(preds, r.PredictedSDCRatio())
			rounds = append(rounds, float64(len(roundStats)))
		}
		overall := b.gt.Overall()
		res.Rows = append(res.Rows, Table3Row{
			Name:       b.name,
			GoldenSDC:  overall.SDCRatio(),
			SampleFrac: stats.Summarize(fracs),
			PredSDC:    stats.Summarize(preds),
			Rounds:     stats.Summarize(rounds),
		})
	}
	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			pct(row.GoldenSDC),
			row.SampleFrac.PctString(),
			row.PredSDC.PctString(),
			row.Rounds.String(),
		})
	}
	var b strings.Builder
	b.WriteString("Table 3: adaptive progressive sampling (0.1% rounds, 95% stop)\n")
	b.WriteString(table([]string{"Name", "SDC Ratio", "Sample Size", "Predict SDC Ratio", "Rounds"}, rows))
	return b.String()
}
