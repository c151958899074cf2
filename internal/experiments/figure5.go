package experiments

import (
	"fmt"
	"strings"

	"ftb"
	"ftb/internal/stats"
	"ftb/internal/textplot"
)

// Figure5Fracs is the paper's sample-size sweep: 0.1%, 0.5%, 1%, 5%, 10%,
// 50% of the sample space.
var Figure5Fracs = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5}

// Figure5Point is one (benchmark, fraction, filter) measurement.
type Figure5Point struct {
	Frac      float64
	Precision stats.Summary
	Recall    stats.Summary
}

// Figure5Bench is one benchmark's two sweeps.
type Figure5Bench struct {
	Name          string
	WithoutFilter []Figure5Point
	WithFilter    []Figure5Point
}

// Figure5Result is the full figure.
type Figure5Result struct {
	Fracs   []float64
	Benches []Figure5Bench
}

// Figure5 runs the §4.4 sample-size sweep: boundary quality as a function
// of the uniform sampling rate, with the top row lacking and the bottom
// row using the §3.5 filter operation. Both rows score the same sampled
// campaigns, folded without and with the filter.
func Figure5(s Scale) (*Figure5Result, error) {
	defer s.section("figure5")()
	return figure5At(s, Figure5Fracs)
}

func figure5At(s Scale, fracs []float64) (*Figure5Result, error) {
	s = s.normalized()
	benches, err := setup(Benchmarks, s)
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{Fracs: fracs}
	for _, b := range benches {
		fb := Figure5Bench{Name: b.name}
		for fi, frac := range fracs {
			// The filter changes only how masked deltas fold, so one
			// sampled campaign per trial feeds both rows.
			var prec, rec [2][]float64
			for trial := 0; trial < s.Trials; trial++ {
				r, err := b.an.InferBoundary(ftb.InferOptions{
					SampleFrac: frac,
					Seed:       trialSeed(s.Seed, trial*len(fracs)+fi),
				})
				if err != nil {
					return nil, err
				}
				rf, err := r.WithFilter(true)
				if err != nil {
					return nil, err
				}
				for i, fold := range []*ftb.Result{r, rf} {
					pr := fold.Evaluate(b.gt)
					prec[i] = append(prec[i], pr.Precision)
					rec[i] = append(rec[i], pr.Recall)
				}
			}
			point := func(i int) Figure5Point {
				return Figure5Point{
					Frac:      frac,
					Precision: stats.Summarize(prec[i]),
					Recall:    stats.Summarize(rec[i]),
				}
			}
			fb.WithoutFilter = append(fb.WithoutFilter, point(0))
			fb.WithFilter = append(fb.WithFilter, point(1))
		}
		res.Benches = append(res.Benches, fb)
	}
	return res, nil
}

// Render prints the two sweeps per benchmark.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: precision & recall vs sample size\n\n")
	for _, bench := range r.Benches {
		for _, row := range []struct {
			label  string
			points []Figure5Point
		}{
			{"without filter", bench.WithoutFilter},
			{"with filter", bench.WithFilter},
		} {
			prec := make([]float64, len(row.points))
			rec := make([]float64, len(row.points))
			for i, p := range row.points {
				prec[i] = p.Precision.Mean
				rec[i] = p.Recall.Mean
			}
			b.WriteString(textplot.Chart(
				fmt.Sprintf("%s, %s (x: sample frac %v)", bench.Name, row.label, r.Fracs),
				60, 10,
				textplot.Series{Name: "precision", Marker: '*', Ys: prec},
				textplot.Series{Name: "recall", Marker: 'o', Ys: rec},
			))
		}
		b.WriteByte('\n')
	}
	b.WriteString(r.renderTable())
	return b.String()
}

func (r *Figure5Result) renderTable() string {
	header := []string{"bench", "filter", "frac", "precision", "recall"}
	var rows [][]string
	for _, bench := range r.Benches {
		for _, row := range []struct {
			label  string
			points []Figure5Point
		}{
			{"off", bench.WithoutFilter},
			{"on", bench.WithFilter},
		} {
			for _, p := range row.points {
				rows = append(rows, []string{
					bench.Name, row.label, pct(p.Frac),
					p.Precision.PctString(), p.Recall.PctString(),
				})
			}
		}
	}
	return table(header, rows)
}
