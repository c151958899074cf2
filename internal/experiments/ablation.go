package experiments

import (
	"fmt"
	"strings"

	"ftb"
	"ftb/internal/stats"
)

// AblationRow scores one sampling strategy on one benchmark at a matched
// injection budget.
type AblationRow struct {
	Name      string
	Strategy  string
	Budget    int
	Precision stats.Summary
	Recall    stats.Summary
}

// AblationResult is the sampling-strategy ablation: the design choices
// DESIGN.md calls out (uniform vs Relyzer-style grouped selection vs the
// progressive loop, with and without the 1/S_i bias) compared head to
// head.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation fixes each benchmark's budget to whatever progressive adaptive
// sampling spends, then gives the same budget to one-shot uniform,
// one-shot grouped, and progressive uniform selection, scoring all four
// against the exhaustive ground truth.
func Ablation(s Scale) (*AblationResult, error) {
	s = s.normalized()
	defer s.section("ablation")()
	benches, err := setup(Benchmarks, s)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}
	for _, b := range benches {
		k, err := ftb.NewKernel(b.name, s.Size)
		if err != nil {
			return nil, err
		}
		type trialScores struct{ prec, rec []float64 }
		scores := map[string]*trialScores{}
		add := func(strategy string, pr ftb.PR) {
			sc := scores[strategy]
			if sc == nil {
				sc = &trialScores{}
				scores[strategy] = sc
			}
			sc.prec = append(sc.prec, pr.Precision)
			sc.rec = append(sc.rec, pr.Recall)
		}
		budget := 0
		for trial := 0; trial < s.Trials; trial++ {
			seed := trialSeed(s.Seed, trial)

			adaptive, _, err := b.progressive(adaptiveOptions(seed))
			if err != nil {
				return nil, err
			}
			budget = adaptive.Samples()
			add("progressive-adaptive", adaptive.Evaluate(b.gt))

			uniformProg, _, err := b.an.Progressive(ftb.ProgressiveOptions{
				RoundFrac: 0.001, Adaptive: false, Filter: false, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			add("progressive-uniform", uniformProg.Evaluate(b.gt))

			oneShot, err := b.an.InferBoundary(ftb.InferOptions{
				Samples: budget, Filter: false, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			add("one-shot-uniform", oneShot.Evaluate(b.gt))

			grouped, err := b.an.InferFromPairs(b.an.GroupedPairs(k.Phases(), budget, seed), false)
			if err != nil {
				return nil, err
			}
			add("one-shot-grouped", grouped.Evaluate(b.gt))
		}
		for _, strategy := range []string{
			"one-shot-uniform", "one-shot-grouped",
			"progressive-uniform", "progressive-adaptive",
		} {
			sc := scores[strategy]
			res.Rows = append(res.Rows, AblationRow{
				Name:      b.name,
				Strategy:  strategy,
				Budget:    budget,
				Precision: stats.Summarize(sc.prec),
				Recall:    stats.Summarize(sc.rec),
			})
		}
	}
	return res, nil
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name, row.Strategy, fmt.Sprint(row.Budget),
			row.Precision.PctString(), row.Recall.PctString(),
		})
	}
	var b strings.Builder
	b.WriteString("Ablation: sampling strategies at matched budgets\n")
	b.WriteString(table([]string{"bench", "strategy", "budget", "precision", "recall"}, rows))
	return b.String()
}
