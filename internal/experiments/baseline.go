package experiments

import (
	"fmt"
	"strings"

	"ftb/internal/metrics"
)

// BaselineRow contrasts, at the same injection budget, what a traditional
// Monte Carlo campaign learns versus what the fault tolerance boundary
// learns (the paper's Figure 1 comparison and the abstract's
// orders-of-magnitude claim, quantified).
type BaselineRow struct {
	Name  string
	Space int // sites × bits: what an exhaustive campaign would cost

	// Budget spent by both methods: whatever progressive sampling used.
	Budget int

	// Monte Carlo at the same budget.
	MCSDC          float64 // overall SDC-ratio estimate
	MCCIWidth      float64 // 95% CI width of that single number
	MCSiteCoverage float64 // fraction of sites with at least one sample

	// Boundary method at the same budget.
	BoundarySDC      float64 // overall predicted SDC ratio
	BoundaryMAE      float64 // mean |true − predicted| per-site SDC ratio
	BoundaryCoverage float64 // fraction of sites with a prediction (always 1)

	GoldenSDC float64 // exhaustive truth
	Reduction float64 // Space / Budget
}

// BaselineResult is the full comparison.
type BaselineResult struct {
	Rows []BaselineRow
}

// Baseline runs the comparison: progressive adaptive sampling fixes the
// budget; a Monte Carlo campaign gets the identical budget; both are
// judged against the exhaustive ground truth.
func Baseline(s Scale) (*BaselineResult, error) {
	s = s.normalized()
	defer s.section("baseline")()
	benches, err := setup(Benchmarks, s)
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{}
	for _, b := range benches {
		prog, _, err := b.progressive(adaptiveOptions(trialSeed(s.Seed, 0)))
		if err != nil {
			return nil, err
		}
		budget := prog.Samples()

		mc, err := b.an.MonteCarlo(trialSeed(s.Seed, 1), budget)
		if err != nil {
			return nil, err
		}

		pred := prog.Predictor()
		profile := metrics.Profile(pred, b.gt, nil)
		var mae float64
		for i := range profile.TrueSDC {
			d := profile.TrueSDC[i] - profile.PredSDC[i]
			if d < 0 {
				d = -d
			}
			mae += d
		}
		mae /= float64(len(profile.TrueSDC))

		overall := b.gt.Overall()
		res.Rows = append(res.Rows, BaselineRow{
			Name:             b.name,
			Space:            b.an.SampleSpace(),
			Budget:           budget,
			MCSDC:            mc.SDCRatio,
			MCCIWidth:        mc.CIHigh - mc.CILow,
			MCSiteCoverage:   float64(mc.SitesCovered) / float64(b.an.Sites()),
			BoundarySDC:      prog.PredictedSDCRatio(),
			BoundaryMAE:      mae,
			BoundaryCoverage: 1,
			GoldenSDC:        overall.SDCRatio(),
			Reduction:        float64(b.an.SampleSpace()) / float64(budget),
		})
	}
	return res, nil
}

// Render prints the comparison table.
func (r *BaselineResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%d/%d (%.2f%%)", row.Budget, row.Space, 100*float64(row.Budget)/float64(row.Space)),
			pct(row.GoldenSDC),
			fmt.Sprintf("%s ±%.2f%%, %s sites", pct(row.MCSDC), 100*row.MCCIWidth/2, pct(row.MCSiteCoverage)),
			fmt.Sprintf("%s, MAE %.4f, 100%% sites", pct(row.BoundarySDC), row.BoundaryMAE),
			fmt.Sprintf("%.0fx", row.Reduction),
		})
	}
	var b strings.Builder
	b.WriteString("Baseline: Monte Carlo campaign vs fault tolerance boundary at equal budgets\n")
	b.WriteString(table([]string{"bench", "budget", "golden SDC", "Monte Carlo", "boundary", "vs exhaustive"}, rows))
	b.WriteString("\nMonte Carlo estimates one number (the overall SDC ratio) and leaves most sites\n")
	b.WriteString("unvisited; the boundary predicts every site's SDC ratio at the same cost.\n")
	return b.String()
}
