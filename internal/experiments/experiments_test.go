package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"ftb"
	"ftb/internal/telemetry"
)

func TestTable1ShapeHolds(t *testing.T) {
	res, err := Table1(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's claim: boundary-approximated SDC is very close to golden.
	if gap := res.MaxAbsGap(); gap > 0.05 {
		t.Errorf("max |golden-approx| gap %.4f > 0.05", gap)
	}
	for _, row := range res.Rows {
		if row.GoldenSDC <= 0 || row.GoldenSDC >= 1 {
			t.Errorf("%s golden SDC %.3f implausible", row.Name, row.GoldenSDC)
		}
		if row.Size == 0 {
			t.Errorf("%s zero size", row.Name)
		}
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "cg", "lu", "fft", "Golden_SDC"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure3ShapeHolds(t *testing.T) {
	res, err := Figure3(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benches) != 3 {
		t.Fatalf("benches = %d", len(res.Benches))
	}
	for _, b := range res.Benches {
		// The boundary is exact for the majority of sites.
		if frac := float64(b.ExactSites) / float64(b.Sites); frac < 0.5 {
			t.Errorf("%s: only %.1f%% sites exact", b.Name, 100*frac)
		}
		// ΔSDC from an exhaustive-search boundary can only be ≤ 0 plus
		// crash-mispredictions; it must be bounded.
		for _, d := range b.Delta {
			if math.Abs(d) > 1 {
				t.Errorf("%s: |ΔSDC| = %g > 1", b.Name, d)
			}
		}
		if b.Hist.Total() != b.Sites {
			t.Errorf("%s: histogram total %d != sites %d", b.Name, b.Hist.Total(), b.Sites)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Figure 3") {
		t.Error("render missing title")
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	// At test scale use a generous sampling rate so the tiny kernels get
	// enough propagation data for meaningful precision.
	res, err := table2At(ScaleTest, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Precision.Mean < 0.85 {
			t.Errorf("%s precision %.3f < 0.85", row.Name, row.Precision.Mean)
		}
		if row.Recall.Mean <= 0 {
			t.Errorf("%s recall is zero", row.Name)
		}
		// Uncertainty tracks precision (the self-verification claim).
		if d := math.Abs(row.Uncertainty.Mean - row.Precision.Mean); d > 0.2 {
			t.Errorf("%s |uncertainty-precision| = %.3f", row.Name, d)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Uncertainty") {
		t.Error("render missing header")
	}
}

func TestFigure4ShapeHolds(t *testing.T) {
	res, err := Figure4(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benches) != 3 {
		t.Fatalf("benches = %d", len(res.Benches))
	}
	for _, b := range res.Benches {
		if len(b.Uniform.TrueSDC) == 0 || len(b.Uniform.TrueSDC) != len(b.Uniform.PredSDC) {
			t.Fatalf("%s: bad group lengths", b.Name)
		}
		if len(b.Impact) != len(b.Uniform.TrueSDC) {
			t.Fatalf("%s: impact length mismatch", b.Name)
		}
		// Predictions assume unknown=SDC, so grouped predictions must not
		// systematically undershoot the truth by much.
		for i := range b.Uniform.TrueSDC {
			if b.Uniform.PredSDC[i] < b.Uniform.TrueSDC[i]-0.35 {
				t.Errorf("%s group %d: pred %.3f far below true %.3f",
					b.Name, i, b.Uniform.PredSDC[i], b.Uniform.TrueSDC[i])
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "row 2") {
		t.Error("render missing rows")
	}
}

func TestFigure5ShapeHolds(t *testing.T) {
	// Shrunken sweep for test speed.
	res, err := figure5At(ScaleTest, []float64{0.02, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Benches {
		if len(b.WithFilter) != 2 || len(b.WithoutFilter) != 2 {
			t.Fatalf("%s: point counts wrong", b.Name)
		}
		// Recall grows with sample size.
		if b.WithoutFilter[1].Recall.Mean < b.WithoutFilter[0].Recall.Mean-0.05 {
			t.Errorf("%s: recall decreased with more samples: %.3f -> %.3f",
				b.Name, b.WithoutFilter[0].Recall.Mean, b.WithoutFilter[1].Recall.Mean)
		}
		// The filter keeps precision at least as high as without it.
		for i := range b.WithFilter {
			if b.WithFilter[i].Precision.Mean < b.WithoutFilter[i].Precision.Mean-0.02 {
				t.Errorf("%s frac %.3f: filtered precision %.3f below unfiltered %.3f",
					b.Name, b.WithFilter[i].Frac,
					b.WithFilter[i].Precision.Mean, b.WithoutFilter[i].Precision.Mean)
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "precision") {
		t.Error("render missing legend")
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	res, err := Table3(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SampleFrac.Mean <= 0 || row.SampleFrac.Mean >= 1 {
			t.Errorf("%s sample fraction %.4f outside (0,1)", row.Name, row.SampleFrac.Mean)
		}
		// Unknown-is-SDC: predicted ratio must not undershoot golden much.
		if row.PredSDC.Mean < row.GoldenSDC-0.1 {
			t.Errorf("%s predicted %.3f well below golden %.3f",
				row.Name, row.PredSDC.Mean, row.GoldenSDC)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Table 3") {
		t.Error("render missing title")
	}
}

func TestTable4ShapeHolds(t *testing.T) {
	res, err := Table4(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	small, large := res.Rows[0], res.Rows[1]
	if large.Sites <= small.Sites {
		t.Errorf("sizes not increasing: %d then %d", small.Sites, large.Sites)
	}
	for _, row := range res.Rows {
		if row.Precision.Mean < 0.85 {
			t.Errorf("%s precision %.3f", row.Input, row.Precision.Mean)
		}
		if row.Samples <= 0 || row.Samples > row.Space {
			t.Errorf("%s budget %d out of range", row.Input, row.Samples)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Table 4") {
		t.Error("render missing title")
	}
}

func TestMonotonicityAblation(t *testing.T) {
	res, err := Monotonicity(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]MonotonicRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	// §5: stencil, matvec, spmv and matmul have provably monotonic
	// (linear) error responses.
	for _, name := range []string{"stencil", "matvec", "spmv", "matmul"} {
		if f := byName[name].Fraction(); f > 0.02 {
			t.Errorf("%s non-monotonic fraction %.4f, want ~0", name, f)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Non-monotonic") {
		t.Error("render missing header")
	}
}

func TestBaselineComparison(t *testing.T) {
	res, err := Baseline(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Budget <= 0 || row.Budget > row.Space {
			t.Errorf("%s: budget %d outside (0, %d]", row.Name, row.Budget, row.Space)
		}
		if row.Reduction < 1 {
			t.Errorf("%s: reduction %.1fx < 1", row.Name, row.Reduction)
		}
		// Boundary covers every site by construction.
		if row.BoundaryCoverage != 1 {
			t.Errorf("%s: boundary coverage %.2f", row.Name, row.BoundaryCoverage)
		}
		// Monte Carlo at a sub-exhaustive budget covers at most all sites.
		if row.MCSiteCoverage <= 0 || row.MCSiteCoverage > 1 {
			t.Errorf("%s: MC coverage %.2f", row.Name, row.MCSiteCoverage)
		}
		// Both estimates should be in the truth's neighbourhood.
		if row.MCSDC < 0 || row.MCSDC > 1 {
			t.Errorf("%s: MC estimate %.3f", row.Name, row.MCSDC)
		}
		if row.BoundaryMAE < 0 || row.BoundaryMAE > 1 {
			t.Errorf("%s: boundary MAE %.3f", row.Name, row.BoundaryMAE)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Monte Carlo") {
		t.Error("render missing header")
	}
}

func TestAblationStrategies(t *testing.T) {
	res, err := Ablation(Scale{Size: ScaleTest.Size, Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 3 benches x 4 strategies
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Budget <= 0 {
			t.Errorf("%s/%s: budget %d", row.Name, row.Strategy, row.Budget)
		}
		if row.Precision.Mean < 0.5 || row.Precision.Mean > 1 {
			t.Errorf("%s/%s: precision %.3f", row.Name, row.Strategy, row.Precision.Mean)
		}
		if row.Recall.Mean < 0 || row.Recall.Mean > 1 {
			t.Errorf("%s/%s: recall %.3f", row.Name, row.Strategy, row.Recall.Mean)
		}
	}
	if out := res.Render(); !strings.Contains(out, "progressive-adaptive") {
		t.Error("render missing strategy")
	}
}

func TestSensitivityTradeoff(t *testing.T) {
	res, err := Sensitivity(Scale{Size: ScaleTest.Size, Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benches) != 3 {
		t.Fatalf("benches = %d", len(res.Benches))
	}
	for _, b := range res.Benches {
		if len(b.Points) != len(SensitivityFactors) {
			t.Fatalf("%s: points = %d", b.Name, len(b.Points))
		}
		// Recall must be non-decreasing in the scaling factor (a larger
		// boundary can only add masked predictions), and precision
		// non-increasing, up to trial noise.
		for i := 1; i < len(b.Points); i++ {
			if b.Points[i].Recall.Mean < b.Points[i-1].Recall.Mean-1e-9 {
				t.Errorf("%s: recall decreased with factor: %.4f -> %.4f",
					b.Name, b.Points[i-1].Recall.Mean, b.Points[i].Recall.Mean)
			}
			// Precision generally trades downward as the boundary grows;
			// it is not strictly monotone (newly admitted predictions can
			// be better than the existing pool), so allow slack.
			if b.Points[i].Precision.Mean > b.Points[i-1].Precision.Mean+0.05 {
				t.Errorf("%s: precision jumped with factor: %.4f -> %.4f",
					b.Name, b.Points[i-1].Precision.Mean, b.Points[i].Precision.Mean)
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "factor") {
		t.Error("render missing header")
	}
}

// The tests below assert that Table 3's progressive campaigns run, and
// runCache memoizes them per seed, so each uses a seed no other test
// uses.

func TestScaleCollectorSections(t *testing.T) {
	col := ftb.NewCollector()
	s := ScaleTest
	s.Seed = 101
	s.Collector = col
	if _, err := Table1(s); err != nil {
		t.Fatal(err)
	}
	if _, err := Table3(s); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	var names []string
	for _, sec := range snap.Sections {
		names = append(names, sec.Name)
		if sec.WallSeconds <= 0 {
			t.Errorf("section %s wall-clock = %g, want > 0", sec.Name, sec.WallSeconds)
		}
	}
	if len(names) != 2 || names[0] != "table1" || names[1] != "table3" {
		t.Errorf("sections = %v, want [table1 table3] in run order", names)
	}
	// Table 3's progressive campaigns run fresh at this seed, so
	// experiments must have accrued.
	if snap.Experiments == 0 {
		t.Error("no experiments attributed to the collector")
	}
}

func TestScaleRunOptions(t *testing.T) {
	var events atomic.Int64
	s := ScaleTest
	s.Seed = 102
	s.RunOptions = []ftb.RunOption{ftb.WithObserver(ftb.ObserverFunc(func(ftb.ProgressEvent) { events.Add(1) }))}
	// Table 3 runs its progressive campaigns fresh at this seed, so the
	// observer must see events no matter which tests ran before this one.
	if _, err := Table3(s); err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 {
		t.Error("Scale.RunOptions observer received no events")
	}
}

func TestScalePropTrace(t *testing.T) {
	buf := ftb.NewTrajectoryBuffer()
	s := ScaleTest
	s.Seed = 103
	s.RunOptions = []ftb.RunOption{ftb.WithPropTrace(buf)}
	// Table 3's progressive campaigns run fresh at this seed, so
	// trajectories must accrue regardless of test ordering.
	if _, err := Table3(s); err != nil {
		t.Fatal(err)
	}
	ts := buf.Trajectories()
	if len(ts) == 0 {
		t.Fatal("WithPropTrace in Scale.RunOptions recorded no trajectories")
	}
	for _, tr := range ts {
		if tr.Program == "" || tr.Outcome == "" {
			t.Fatalf("untagged trajectory: %+v", tr)
		}
	}
}

// sectionOf returns the named section of a collector's snapshot.
func sectionOf(t *testing.T, col *ftb.Collector, name string) telemetry.SectionSnapshot {
	t.Helper()
	for _, sec := range col.Snapshot().Sections {
		if sec.Name == name {
			return sec
		}
	}
	t.Fatalf("no section %q", name)
	return telemetry.SectionSnapshot{}
}

// TestBaselineCountsMonteCarloRuns: Baseline's Monte Carlo campaigns run
// with the scale's options, so its section counts them beside the
// progressive campaigns that fix the budget.
func TestBaselineCountsMonteCarloRuns(t *testing.T) {
	const seed = 104
	s := ScaleTest
	s.Seed = seed
	if _, err := setup(Benchmarks, s); err != nil { // ground truth outside the section
		t.Fatal(err)
	}
	col := ftb.NewCollector()
	s.Collector = col
	res, err := Baseline(s)
	if err != nil {
		t.Fatal(err)
	}
	// The progressive campaigns alone, counted on a separate collector.
	prog := ftb.NewCollector()
	want := int64(0)
	for _, row := range res.Rows {
		an, err := ftb.NewKernelAnalysis(row.Name, s.Size)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := an.Progressive(adaptiveOptions(trialSeed(seed, 0)), ftb.WithCollector(prog)); err != nil {
			t.Fatal(err)
		}
		want += int64(row.Budget)
	}
	want += prog.Snapshot().Experiments
	if got := sectionOf(t, col, "baseline").Experiments; got != want {
		t.Errorf("baseline section experiments = %d, want %d (progressive %d + Monte Carlo budgets)",
			got, want, prog.Snapshot().Experiments)
	}
}

// TestBaselineReusesTable3: Baseline's progressive campaign is Table 3's
// trial 0, so after Table 3 its section holds only the Monte Carlo runs:
// one campaign of Budget experiments per bench.
func TestBaselineReusesTable3(t *testing.T) {
	s := ScaleTest
	s.Seed = 105
	if _, err := Table3(s); err != nil {
		t.Fatal(err)
	}
	col := ftb.NewCollector()
	s.Collector = col
	res, err := Baseline(s)
	if err != nil {
		t.Fatal(err)
	}
	var budgets int64
	for _, row := range res.Rows {
		budgets += int64(row.Budget)
	}
	sec := sectionOf(t, col, "baseline")
	if sec.Campaigns != int64(len(res.Rows)) || sec.Experiments != budgets {
		t.Errorf("baseline section: %d campaigns, %d experiments; want %d Monte Carlo campaigns of %d experiments and no progressive runs",
			sec.Campaigns, sec.Experiments, len(res.Rows), budgets)
	}
}

// TestCancelledCampaignNotMemoized: a campaign cancelled on the first
// call leaves nothing in runCache, so the next call runs it, and that
// successful run is what later calls reuse.
func TestCancelledCampaignNotMemoized(t *testing.T) {
	s := ScaleTest
	s.Seed = 106
	if _, err := setup(Benchmarks, s); err != nil { // ground truth outside the cancelled call
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := s
	cancelled.RunOptions = []ftb.RunOption{ftb.WithContext(ctx)}
	if _, err := Table3(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Table3 returned %v, want context.Canceled", err)
	}
	runs := func() int64 {
		col := ftb.NewCollector()
		s := s
		s.Collector = col
		if _, err := Table3(s); err != nil {
			t.Fatal(err)
		}
		return col.Snapshot().Experiments
	}
	if n := runs(); n == 0 {
		t.Error("Table3 after a cancelled call ran no experiments: the cancelled campaign was memoized")
	}
	if n := runs(); n != 0 {
		t.Errorf("repeated Table3 ran %d experiments, want 0 from runCache", n)
	}
}
