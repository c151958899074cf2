package experiments

import (
	"fmt"
	"strings"

	"ftb"
	"ftb/internal/metrics"
	"ftb/internal/stats"
)

// SensitivityFactors is the default boundary-scaling sweep.
var SensitivityFactors = []float64{0.1, 0.5, 1, 2, 10}

// SensitivityPoint scores one scaled boundary.
type SensitivityPoint struct {
	Factor    float64
	Precision stats.Summary
	Recall    stats.Summary
}

// SensitivityBench is one benchmark's sweep.
type SensitivityBench struct {
	Name   string
	Points []SensitivityPoint
}

// SensitivityResult is the boundary-scaling sensitivity ablation: how
// robust are the method's precision and recall to multiplying every
// inferred threshold Δe by a safety factor? A method whose precision
// collapses just above factor 1 would be fragile — its thresholds would
// sit exactly on the cliff edge; the paper's monotonicity argument
// implies a gradual trade instead.
type SensitivityResult struct {
	Factors []float64
	Benches []SensitivityBench
}

// Sensitivity infers a 1%-sample boundary per benchmark per trial and
// scores it at each scaling factor against the exhaustive ground truth.
func Sensitivity(s Scale) (*SensitivityResult, error) {
	s = s.normalized()
	defer s.section("sensitivity")()
	benches, err := setup(Benchmarks, s)
	if err != nil {
		return nil, err
	}
	res := &SensitivityResult{Factors: SensitivityFactors}
	for _, b := range benches {
		sb := SensitivityBench{Name: b.name}
		prec := make([][]float64, len(res.Factors))
		rec := make([][]float64, len(res.Factors))
		for trial := 0; trial < s.Trials; trial++ {
			r, err := b.infer(ftb.InferOptions{
				SampleFrac: 0.01,
				Filter:     true,
				Seed:       trialSeed(s.Seed, trial),
			})
			if err != nil {
				return nil, err
			}
			for fi, factor := range res.Factors {
				pred, err := b.an.NewPredictor(r.Boundary().Scaled(factor), r.Known())
				if err != nil {
					return nil, err
				}
				pr := metrics.Evaluate(pred, b.gt, r.Known())
				prec[fi] = append(prec[fi], pr.Precision)
				rec[fi] = append(rec[fi], pr.Recall)
			}
		}
		for fi, factor := range res.Factors {
			sb.Points = append(sb.Points, SensitivityPoint{
				Factor:    factor,
				Precision: stats.Summarize(prec[fi]),
				Recall:    stats.Summarize(rec[fi]),
			})
		}
		res.Benches = append(res.Benches, sb)
	}
	return res, nil
}

// Render prints the sweep.
func (r *SensitivityResult) Render() string {
	var b strings.Builder
	b.WriteString("Sensitivity: boundary quality vs threshold scaling factor\n")
	header := []string{"bench", "factor", "precision", "recall"}
	var rows [][]string
	for _, bench := range r.Benches {
		for _, p := range bench.Points {
			rows = append(rows, []string{
				bench.Name, fmt.Sprintf("%.2gx", p.Factor),
				p.Precision.PctString(), p.Recall.PctString(),
			})
		}
	}
	b.WriteString(table(header, rows))
	return b.String()
}
