package experiments

import (
	"fmt"
	"strings"

	"ftb"
	"ftb/internal/metrics"
	"ftb/internal/textplot"
)

// Figure4Bench is one benchmark's three Figure 4 rows.
type Figure4Bench struct {
	Name      string
	GroupSize int
	// Row 1: true vs predicted grouped SDC ratio at the uniform sampling
	// rate (1% in the paper).
	Uniform metrics.Grouped
	// Row 2: grouped potential-impact profile of the same run.
	Impact []float64
	// Row 3: true vs predicted grouped SDC ratio after progressive
	// adaptive sampling.
	Progressive metrics.Grouped
	// UniformFrac and ProgressiveFrac are the sample budgets spent.
	UniformFrac     float64
	ProgressiveFrac float64
}

// Figure4Result is the full figure.
type Figure4Result struct {
	Benches []Figure4Bench
}

// Figure4 runs the §4.2/§4.5 per-site profile experiment: row 1 predicts
// every site's SDC ratio from a 1% uniform boundary; row 2 explains the
// mispredicted regions through the potential-impact (information) profile;
// row 3 repairs them with progressive adaptive sampling.
func Figure4(s Scale) (*Figure4Result, error) {
	s = s.normalized()
	defer s.section("figure4")()
	benches, err := setup(Benchmarks, s)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{}
	for _, b := range benches {
		groups := 64
		size := (b.an.Sites() + groups - 1) / groups
		if size < 1 {
			size = 1
		}

		uni, err := b.infer(ftb.InferOptions{
			SampleFrac: 0.01,
			Seed:       trialSeed(s.Seed, 0),
		})
		if err != nil {
			return nil, err
		}
		uniProfile := uni.Profile(b.gt)

		// Row 3's campaign is Table 3's and Ablation's trial 1. With a
		// single trial nothing else runs it, so it stays out of runCache
		// rather than hold its memory for the rest of the process.
		var prog *ftb.Result
		if s.Trials > 1 {
			prog, _, err = b.progressive(adaptiveOptions(trialSeed(s.Seed, 1)))
		} else {
			prog, _, err = b.an.Progressive(adaptiveOptions(trialSeed(s.Seed, 1)))
		}
		if err != nil {
			return nil, err
		}
		progProfile := prog.Profile(b.gt)

		res.Benches = append(res.Benches, Figure4Bench{
			Name:            b.name,
			GroupSize:       size,
			Uniform:         uniProfile.Group(size),
			Impact:          uniProfile.Group(size).Impact,
			Progressive:     progProfile.Group(size),
			UniformFrac:     uni.SampleFraction(),
			ProgressiveFrac: prog.SampleFraction(),
		})
	}
	return res, nil
}

// Render prints the three rows per benchmark as ASCII charts.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: per-site-group SDC profiles\n\n")
	for _, bench := range r.Benches {
		fmt.Fprintf(&b, "--- %s (group size %d) ---\n", bench.Name, bench.GroupSize)
		b.WriteString(textplot.Chart(
			fmt.Sprintf("row 1: true vs predicted SDC ratio @ %s uniform", pct(bench.UniformFrac)),
			72, 12,
			textplot.Series{Name: "true", Marker: 'o', Ys: bench.Uniform.TrueSDC},
			textplot.Series{Name: "pred", Marker: '*', Ys: bench.Uniform.PredSDC},
		))
		b.WriteString(textplot.Chart(
			"row 2: potential impact (significant-error information per group)",
			72, 8,
			textplot.Series{Name: "impact", Marker: '#', Ys: bench.Impact},
		))
		b.WriteString(textplot.Chart(
			fmt.Sprintf("row 3: true vs predicted SDC ratio, progressive (%s samples)", pct(bench.ProgressiveFrac)),
			72, 12,
			textplot.Series{Name: "true", Marker: 'o', Ys: bench.Progressive.TrueSDC},
			textplot.Series{Name: "pred", Marker: '*', Ys: bench.Progressive.PredSDC},
		))
		fmt.Fprintf(&b, "row1 MAE %.4f -> row3 MAE %.4f\n\n",
			bench.Uniform.MeanAbsError(), bench.Progressive.MeanAbsError())
	}
	return b.String()
}
