package boundary

import (
	"math"
	"slices"
	"testing"

	"ftb/internal/bits"
	"ftb/internal/campaign"
	"ftb/internal/outcome"
	"ftb/internal/trace"
)

// chainProg propagates errors verbatim: site i stores x_{i-1} + 0.5.
type chainProg struct{ n int }

func (p *chainProg) Name() string { return "chain" }

func (p *chainProg) Run(ctx *trace.Ctx) []float64 {
	v := 1.0
	for i := 0; i < p.n; i++ {
		v = ctx.Store(v + 0.5)
	}
	return []float64{v}
}

// fanProg stores k independent inputs then their sum: errors in inputs
// propagate only to the sum site.
type fanProg struct{ k int }

func (p *fanProg) Name() string { return "fan" }

func (p *fanProg) Run(ctx *trace.Ctx) []float64 {
	s := 0.0
	for i := 0; i < p.k; i++ {
		v := ctx.Store(1.0 + float64(i)*0.25)
		s += v
	}
	s = ctx.Store(s)
	return []float64{s}
}

func mustGolden(t *testing.T, p trace.Program) *trace.GoldenRun {
	t.Helper()
	g, err := trace.Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chainCfg(n int, tol float64) campaign.Config {
	p := &chainProg{n: n}
	g, err := trace.Golden(p)
	if err != nil {
		panic(err)
	}
	return campaign.Config{
		Factory: func() trace.Program { return &chainProg{n: n} },
		Golden:  g,
		Tol:     tol,
	}
}

func TestExhaustiveSearchThresholds(t *testing.T) {
	// For the chain, output error == injected error, so with tolerance T
	// the exact per-site threshold is the largest flip error ≤ T.
	tol := 1e-6
	cfg := chainCfg(8, tol)
	gt, err := campaign.Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExhaustiveSearch(gt, cfg.Golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sites() != 8 {
		t.Fatalf("sites = %d", b.Sites())
	}
	for site := 0; site < 8; site++ {
		th := b.Thresholds[site]
		if th <= 0 || th > tol {
			t.Errorf("site %d threshold %g outside (0, %g]", site, th, tol)
		}
		// The threshold must be an achievable flip error.
		found := false
		for bit := uint(0); bit < 64; bit++ {
			if campaign.InjErr(cfg.Golden, site, uint8(bit)) == th {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("site %d threshold %g is not a flip error", site, th)
		}
	}
}

func TestExhaustiveSearchPredictsPerfectlyOnMonotoneProgram(t *testing.T) {
	// The chain is perfectly monotonic, so the searched boundary must
	// reproduce the ground truth exactly.
	cfg := chainCfg(10, 1e-6)
	gt, err := campaign.Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExhaustiveSearch(gt, cfg.Golden)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(b, cfg.Golden, nil)
	if err != nil {
		t.Fatal(err)
	}
	for site := 0; site < gt.SitesN; site++ {
		for bit := 0; bit < gt.BitsN; bit++ {
			got := pred.Predict(site, uint8(bit))
			want := gt.At(site, uint8(bit))
			if got != want {
				t.Fatalf("site %d bit %d: predicted %v, truth %v", site, bit, got, want)
			}
		}
	}
}

func TestNonMonotonicSitesZeroForChain(t *testing.T) {
	cfg := chainCfg(8, 1e-6)
	gt, err := campaign.Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NonMonotonicSites(gt, cfg.Golden)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("chain has %d non-monotonic sites, want 0", n)
	}
}

func TestKnownTable(t *testing.T) {
	k := NewKnown(3, 4)
	if k.Sites() != 3 || k.BitsN() != 4 {
		t.Fatal("shape wrong")
	}
	if _, ok := k.Get(1, 2); ok {
		t.Fatal("empty table claims knowledge")
	}
	k.Set(1, 2, outcome.SDC)
	got, ok := k.Get(1, 2)
	if !ok || got != outcome.SDC {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	k.Set(1, 2, outcome.SDC) // idempotent
	if k.Tested(1) != 1 || k.Total() != 1 {
		t.Errorf("Tested=%d Total=%d, want 1,1", k.Tested(1), k.Total())
	}
	for b := uint8(0); b < 4; b++ {
		k.Set(2, b, outcome.Masked)
	}
	if !k.FullyTested(2) || k.FullyTested(1) {
		t.Error("FullyTested wrong")
	}
}

// TestKnownPackedCodes: outcomes share bytes four to a byte, so setting
// one experiment must leave every neighbour as it was, across byte
// boundaries and an odd table size.
func TestKnownPackedCodes(t *testing.T) {
	const sites, bitsN = 3, 5
	k := NewKnown(sites, bitsN)
	want := map[[2]int]outcome.Kind{}
	for i := 0; i < sites*bitsN; i += 2 { // every other experiment
		site, bit := i/bitsN, i%bitsN
		kind := outcome.Kind(i % outcome.NumKinds)
		k.Set(site, uint8(bit), kind)
		want[[2]int{site, bit}] = kind
	}
	k.Set(1, 1, outcome.Crash) // overwrite keeps the count
	want[[2]int{1, 1}] = outcome.Crash
	for site := 0; site < sites; site++ {
		n := 0
		for bit := 0; bit < bitsN; bit++ {
			got, ok := k.Get(site, uint8(bit))
			w, known := want[[2]int{site, bit}]
			if ok != known || got != w {
				t.Errorf("Get(%d, %d) = %v, %v; want %v, %v", site, bit, got, ok, w, known)
			}
			if known {
				n++
			}
		}
		if k.Tested(site) != n {
			t.Errorf("Tested(%d) = %d, want %d", site, k.Tested(site), n)
		}
	}
}

func TestBuilderAlgorithm1(t *testing.T) {
	// Hand-drive a builder: a masked run whose deltas are known must raise
	// thresholds to exactly those deltas; a second masked run raises them
	// only where larger (max-aggregation).
	p := &chainProg{n: 5}
	g := mustGolden(t, p)
	b := NewBuilder(g, false)
	w := b.NewWorker().(*Worker)

	w.BeginRun(0, 0, 1, 10)
	deltas1 := []float64{0, 3, 3, 3, 3}
	for i, d := range deltas1 {
		w.Observe(i, g.Trace[i], d)
	}
	w.EndRun(outcome.Masked, 3, 0, -1)

	w.BeginRun(0, 0, 3, 12)
	deltas2 := []float64{0, 0, 0, 5, 5}
	for i, d := range deltas2 {
		w.Observe(i, g.Trace[i], d)
	}
	w.EndRun(outcome.Masked, 5, 0, -1)

	// An SDC run's deltas must NOT be committed.
	w.BeginRun(0, 0, 0, 62)
	for i := 0; i < 5; i++ {
		w.Observe(i, g.Trace[i], 100)
	}
	w.EndRun(outcome.SDC, 100, 0, -1)

	if err := b.MergeWorkers([]campaign.RunSink{w}, nil); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 3, 3, 5, 5}
	bd := b.Finalize()
	for i, th := range bd.Thresholds {
		if th != want[i] {
			t.Errorf("threshold[%d] = %g, want %g", i, th, want[i])
		}
	}
}

func TestBuilderFilterDropsAboveSDCFloor(t *testing.T) {
	p := &chainProg{n: 4}
	g := mustGolden(t, p)
	b := NewBuilder(g, true)
	// Pass 1 knowledge: site 2 got SDC with injected error 2.0.
	b.ObserveRecord(campaign.Record{
		Pair: campaign.Pair{Site: 2, Bit: 50}, Kind: outcome.SDC, InjErr: 2.0,
	})
	w := b.NewWorker().(*Worker)
	w.BeginRun(0, 0, 0, 9)
	// Masked run propagates delta 3.0 to site 2 (above the floor) and 1.0
	// to site 3 (no floor).
	w.Observe(0, g.Trace[0], 0.5)
	w.Observe(1, g.Trace[1], 0.5)
	w.Observe(2, g.Trace[2], 3.0)
	w.Observe(3, g.Trace[3], 1.0)
	w.EndRun(outcome.Masked, 0.5, 0, -1)
	if err := b.MergeWorkers([]campaign.RunSink{w}, nil); err != nil {
		t.Fatal(err)
	}
	bd := b.Finalize()
	if bd.Thresholds[2] != 0 {
		t.Errorf("filtered threshold[2] = %g, want 0", bd.Thresholds[2])
	}
	if bd.Thresholds[3] != 1.0 {
		t.Errorf("threshold[3] = %g, want 1", bd.Thresholds[3])
	}
	// Without the filter the same data raises site 2 to 3.0.
	b2 := NewBuilder(g, false)
	b2.ObserveRecord(campaign.Record{Pair: campaign.Pair{Site: 2, Bit: 50}, Kind: outcome.SDC, InjErr: 2.0})
	w2 := b2.NewWorker().(*Worker)
	w2.BeginRun(0, 0, 0, 9)
	w2.Observe(2, g.Trace[2], 3.0)
	w2.EndRun(outcome.Masked, 0.5, 0, -1)
	if err := b2.MergeWorkers([]campaign.RunSink{w2}, nil); err != nil {
		t.Fatal(err)
	}
	if got := b2.Finalize().Thresholds[2]; got != 3.0 {
		t.Errorf("unfiltered threshold[2] = %g, want 3", got)
	}
}

// TestMergeWorkersBothFolds: every worker folds each masked delta into
// the unfiltered and the filtered thresholds, and MergeWorkers merges
// both by max across workers, whichever fold the builder finalizes.
func TestMergeWorkersBothFolds(t *testing.T) {
	p := &chainProg{n: 4}
	g := mustGolden(t, p)
	for _, filter := range []bool{false, true} {
		b := NewBuilder(g, filter)
		// SDC floors: site 1 at 2.0, site 2 at 4.0; sites 0 and 3 have none.
		b.ObserveRecord(campaign.Record{Pair: campaign.Pair{Site: 1, Bit: 50}, Kind: outcome.SDC, InjErr: 2.0})
		b.ObserveRecord(campaign.Record{Pair: campaign.Pair{Site: 2, Bit: 50}, Kind: outcome.SDC, InjErr: 4.0})
		run := func(w *Worker, site int, deltas ...float64) {
			w.BeginRun(0, 0, site, 9)
			for i, d := range deltas {
				w.Observe(i, g.Trace[i], d)
			}
			w.EndRun(outcome.Masked, deltas[site], 0, -1)
		}
		w1 := b.NewWorker().(*Worker)
		w2 := b.NewWorker().(*Worker)
		w3 := b.NewWorker().(*Worker)
		run(w1, 0, 1.0, 3.0, 1.0, 0.5) // site 1 above its floor
		run(w2, 0, 2.0, 1.5, 5.0, 0.25)
		run(w3, 0, 0.5, 2.0, 4.0, 2.0) // exactly at both floors: kept
		if err := b.MergeWorkers([]campaign.RunSink{w1, w2, w3}, nil); err != nil {
			t.Fatal(err)
		}
		wantRaw := []float64{2.0, 3.0, 5.0, 2.0}
		wantFiltered := []float64{2.0, 2.0, 4.0, 2.0}
		for _, c := range []struct {
			filter bool
			want   []float64
		}{{false, wantRaw}, {true, wantFiltered}} {
			got := b.FinalizeFilter(c.filter).Thresholds
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Errorf("NewBuilder(filter=%v).FinalizeFilter(%v)[%d] = %g, want %g",
						filter, c.filter, i, got[i], c.want[i])
				}
			}
		}
		want := wantRaw
		if filter {
			want = wantFiltered
		}
		if got := b.Finalize().Thresholds; !slices.Equal(got, want) {
			t.Errorf("NewBuilder(filter=%v).Finalize() = %v, want %v", filter, got, want)
		}
	}
}

func TestBuilderInfoCounts(t *testing.T) {
	p := &chainProg{n: 4}
	g := mustGolden(t, p)
	b := NewBuilder(g, false)
	// Significant injection at site 1 (relative error 1 >> 1e-8).
	b.ObserveRecord(campaign.Record{Pair: campaign.Pair{Site: 1, Bit: 40}, Kind: outcome.SDC, InjErr: g.Trace[1]})
	// Insignificant injection at site 2.
	b.ObserveRecord(campaign.Record{Pair: campaign.Pair{Site: 2, Bit: 0}, Kind: outcome.Masked, InjErr: 1e-14})
	info := b.Info()
	if info[1] != 1 {
		t.Errorf("info[1] = %d, want 1", info[1])
	}
	if info[2] != 0 {
		t.Errorf("info[2] = %d, want 0", info[2])
	}
}

func TestMergeWorkersRejectsForeignSink(t *testing.T) {
	p := &chainProg{n: 3}
	g := mustGolden(t, p)
	b := NewBuilder(g, false)
	other := NewBuilder(g, false)
	if err := b.MergeWorkers([]campaign.RunSink{other.NewWorker()}, nil); err == nil {
		t.Error("foreign worker accepted")
	}
}

func TestPredictorFullyTestedShortcut(t *testing.T) {
	p := &chainProg{n: 3}
	g := mustGolden(t, p)
	b := &Boundary{Thresholds: make([]float64, 3)} // zero thresholds: everything SDC-ish
	known := NewKnown(3, 64)
	// Fully test site 1 with all-masked outcomes.
	for bit := 0; bit < 64; bit++ {
		known.Set(1, uint8(bit), outcome.Masked)
	}
	pred, err := NewPredictor(b, g, known)
	if err != nil {
		t.Fatal(err)
	}
	if got := pred.Predict(1, 30); got != outcome.Masked {
		t.Errorf("fully tested site predicted %v, want recorded masked", got)
	}
	// Site 0 is not fully tested: zero threshold, nonzero flip error -> SDC.
	if got := pred.Predict(0, 30); got != outcome.SDC {
		t.Errorf("unknown site predicted %v, want sdc", got)
	}
}

func TestPredictorCrashPrediction(t *testing.T) {
	p := &chainProg{n: 3}
	g := mustGolden(t, p) // values 1.5, 2.0, 2.5: exponent 0x3FF/0x400
	b := &Boundary{Thresholds: []float64{math.Inf(1), math.Inf(1), math.Inf(1)}}
	pred, err := NewPredictor(b, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1.5 has exponent 0x3FF; flipping bit 62 gives 0x7FF -> predicted crash.
	if !bits.FlipMakesUnsafe(g.Trace[0], 62) {
		t.Fatal("test premise wrong")
	}
	if got := pred.Predict(0, 62); got != outcome.Crash {
		t.Errorf("unsafe flip predicted %v, want crash", got)
	}
	// Everything else within an infinite threshold is masked.
	if got := pred.Predict(0, 10); got != outcome.Masked {
		t.Errorf("safe flip predicted %v, want masked", got)
	}
}

func TestPredictorSiteAndOverallRatios(t *testing.T) {
	cfg := chainCfg(6, 1e-6)
	gt, err := campaign.Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExhaustiveSearch(gt, cfg.Golden)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(b, cfg.Golden, nil)
	if err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 6; site++ {
		if got, want := pred.SiteSDCRatio(site, 64), gt.SiteSDCRatio(site); got != want {
			t.Errorf("site %d predicted SDC ratio %g, truth %g", site, got, want)
		}
	}
	overall := gt.Overall()
	if got, want := pred.OverallSDCRatio(64), overall.SDCRatio(); got != want {
		t.Errorf("overall predicted %g, truth %g", got, want)
	}
}

func TestBuildEndToEndChain(t *testing.T) {
	// Full pipeline on the chain with a 25% sample: every prediction made
	// from the inferred boundary must be correct on the masked side
	// (precision 1.0) because the chain is monotonic.
	cfg := chainCfg(16, 1e-6)
	gt, err := campaign.Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic sample: every 4th pair.
	all := campaign.AllPairs(16, 64)
	var sample []campaign.Pair
	for i := 0; i < len(all); i += 4 {
		sample = append(sample, all[i])
	}
	known := NewKnown(16, 64)
	b, recs, err := Build(cfg, sample, BuildOptions{Filter: true, Known: known})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sample) {
		t.Fatalf("records = %d, want %d", len(recs), len(sample))
	}
	pred, err := NewPredictor(b.Finalize(), cfg.Golden, known)
	if err != nil {
		t.Fatal(err)
	}
	var predictedMasked, correctMasked int
	for site := 0; site < 16; site++ {
		for bit := 0; bit < 64; bit++ {
			if pred.Predict(site, uint8(bit)) == outcome.Masked {
				predictedMasked++
				if gt.At(site, uint8(bit)) == outcome.Masked {
					correctMasked++
				}
			}
		}
	}
	if predictedMasked == 0 {
		t.Fatal("no masked predictions at 25% sampling")
	}
	if correctMasked != predictedMasked {
		t.Errorf("precision %d/%d < 1 on a monotone program", correctMasked, predictedMasked)
	}
}

func TestPredictorValidation(t *testing.T) {
	p := &chainProg{n: 3}
	g := mustGolden(t, p)
	if _, err := NewPredictor(&Boundary{Thresholds: make([]float64, 2)}, g, nil); err == nil {
		t.Error("mismatched boundary accepted")
	}
	if _, err := NewPredictor(&Boundary{Thresholds: make([]float64, 3)}, g, NewKnown(2, 64)); err == nil {
		t.Error("mismatched known table accepted")
	}
}

func TestBuilderAbsorbProgressiveRounds(t *testing.T) {
	// Two Absorb rounds must accumulate: thresholds only grow.
	cfg := chainCfg(12, 1e-6)
	b := NewBuilder(cfg.Golden, false)
	all := campaign.AllPairs(12, 64)
	round1 := all[:100]
	round2 := all[100:300]
	if _, err := b.Absorb(cfg, round1, nil); err != nil {
		t.Fatal(err)
	}
	after1 := b.Finalize()
	if _, err := b.Absorb(cfg, round2, nil); err != nil {
		t.Fatal(err)
	}
	after2 := b.Finalize()
	for i := range after1.Thresholds {
		if after2.Thresholds[i] < after1.Thresholds[i] {
			t.Fatalf("threshold[%d] shrank across rounds: %g -> %g",
				i, after1.Thresholds[i], after2.Thresholds[i])
		}
	}
}

func TestInferredNeverExceedsSearchedOnMonotoneProgram(t *testing.T) {
	// On a monotone program, every masked propagation delta at site j is
	// an error the program genuinely tolerated, so the inferred threshold
	// can never exceed the exhaustively-searched one.
	cfg := chainCfg(20, 1e-6)
	gt, err := campaign.Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	searched, err := ExhaustiveSearch(gt, cfg.Golden)
	if err != nil {
		t.Fatal(err)
	}
	all := campaign.AllPairs(20, 64)
	var sample []campaign.Pair
	for i := 0; i < len(all); i += 3 {
		sample = append(sample, all[i])
	}
	bld, _, err := Build(cfg, sample, BuildOptions{Filter: false})
	if err != nil {
		t.Fatal(err)
	}
	inferred := bld.Finalize()
	for i := range inferred.Thresholds {
		if inferred.Thresholds[i] > searched.Thresholds[i]*(1+1e-12) {
			t.Fatalf("site %d: inferred %g exceeds searched %g",
				i, inferred.Thresholds[i], searched.Thresholds[i])
		}
	}
}

func TestBuildWorkerCountInvariance(t *testing.T) {
	// Max-merge aggregation is order-independent, so the inferred boundary
	// must be bitwise identical at any worker count.
	pairs := campaign.AllPairs(16, 64)[:300]
	var base *Boundary
	for _, workers := range []int{1, 2, 5} {
		cfg := chainCfg(16, 1e-6)
		cfg.Workers = workers
		bld, _, err := Build(cfg, pairs, BuildOptions{Filter: true})
		if err != nil {
			t.Fatal(err)
		}
		b := bld.Finalize()
		if base == nil {
			base = b
			continue
		}
		for i := range b.Thresholds {
			if b.Thresholds[i] != base.Thresholds[i] {
				t.Fatalf("workers=%d: threshold[%d] differs", workers, i)
			}
		}
	}
}

func TestDiffRunAgreesWithPlainRun(t *testing.T) {
	// The InjectDiff execution path must classify identically to the
	// plain Inject path for every experiment.
	cfg := chainCfg(12, 1e-6)
	pairs := campaign.AllPairs(12, 64)
	plain, err := campaign.RunPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Each run index is written by the one worker that executed it.
	got := make([]outcome.Kind, len(pairs))
	dcfg := cfg
	dcfg.Sink = func(int) campaign.RunSink { return &kindsSink{kinds: got} }
	if err := campaign.RunPairsInPhase(dcfg, pairs, "propagate", nil); err != nil {
		t.Fatal(err)
	}
	for i, rec := range plain {
		if got[i] != rec.Kind {
			t.Fatalf("pair %v: diff path %v, plain path %v", rec.Pair, got[i], rec.Kind)
		}
	}
}

// kindsSink records each run's classified kind at its run index.
type kindsSink struct {
	kinds []outcome.Kind
	run   int
}

func (s *kindsSink) BeginRun(run, _ int, _ int, _ uint8)           { s.run = run }
func (s *kindsSink) Observe(int, float64, float64)                 {}
func (s *kindsSink) EndRun(kind outcome.Kind, _, _ float64, _ int) { s.kinds[s.run] = kind }

func TestMeanReachOnChain(t *testing.T) {
	// In the chain, a significant masked injection at site s perturbs all
	// downstream sites: reach = n − 1 − s.
	n := 12
	cfg := chainCfg(n, 1e-6)
	b := NewBuilder(cfg.Golden, false)
	w := b.NewWorker().(*Worker)

	// Simulate a masked run injected at site 4 with significant deltas at
	// sites 4..11.
	w.BeginRun(0, 0, 4, 20)
	for j := 0; j < n; j++ {
		d := 0.0
		if j >= 4 {
			d = 1e-7 // significant relative to O(1) golden values? 1e-7/5 > 1e-8 yes
		}
		w.Observe(j, cfg.Golden.Trace[j], d)
	}
	w.EndRun(outcome.Masked, 1e-7, 0, -1)
	if err := b.MergeWorkers([]campaign.RunSink{w}, nil); err != nil {
		t.Fatal(err)
	}
	reach := b.MeanReach()
	if reach[4] != float64(n-1-4) {
		t.Errorf("reach[4] = %g, want %d", reach[4], n-1-4)
	}
	for j := 0; j < n; j++ {
		if j != 4 && reach[j] != 0 {
			t.Errorf("reach[%d] = %g, want 0 (no runs injected there)", j, reach[j])
		}
	}
}

func TestMeanReachAveragesAcrossRuns(t *testing.T) {
	cfg := chainCfg(6, 1e-6)
	b := NewBuilder(cfg.Golden, false)
	w := b.NewWorker().(*Worker)
	// Two masked runs at site 1: one perturbing 3 downstream sites, one 1.
	for run, reachSites := range [][]int{{2, 3, 4}, {2}} {
		w.BeginRun(0, 0, 1, uint8(run))
		for j := 0; j < 6; j++ {
			d := 0.0
			if j == 1 {
				d = 0.5 // the injection itself
			}
			for _, rs := range reachSites {
				if j == rs {
					d = 0.5
				}
			}
			w.Observe(j, cfg.Golden.Trace[j], d)
		}
		w.EndRun(outcome.Masked, 0.5, 0, -1)
	}
	if err := b.MergeWorkers([]campaign.RunSink{w}, nil); err != nil {
		t.Fatal(err)
	}
	if got := b.MeanReach()[1]; got != 2 {
		t.Errorf("mean reach = %g, want 2 ((3+1)/2)", got)
	}
}

func TestBoundaryScaled(t *testing.T) {
	b := &Boundary{Thresholds: []float64{0, 1, 2.5, math.Inf(1)}}
	s := b.Scaled(0.5)
	want := []float64{0, 0.5, 1.25, math.Inf(1)}
	for i := range want {
		if s.Thresholds[i] != want[i] {
			t.Errorf("scaled[%d] = %g, want %g", i, s.Thresholds[i], want[i])
		}
	}
	// Original untouched.
	if b.Thresholds[1] != 1 {
		t.Error("Scaled mutated the original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scaled(0) did not panic")
		}
	}()
	b.Scaled(0)
}

func TestPredictorSetWidth(t *testing.T) {
	p := &chainProg{n: 3}
	g := mustGolden(t, p)
	pred, err := NewPredictor(&Boundary{Thresholds: make([]float64, 3)}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.SetWidth(48); err == nil {
		t.Error("width 48 accepted")
	}
	if err := pred.SetWidth(32); err != nil {
		t.Fatal(err)
	}
	// float32(1.5) bit 30 is the top exponent bit -> Inf -> predicted crash.
	if got := pred.Predict(0, 30); got != outcome.Crash {
		t.Errorf("32-bit predict = %v, want crash", got)
	}
	if err := pred.SetWidth(64); err != nil {
		t.Fatal(err)
	}
	// Under the 64-bit model bit 30 is a low mantissa bit: tiny error, but
	// threshold 0 -> SDC.
	if got := pred.Predict(0, 30); got != outcome.SDC {
		t.Errorf("64-bit predict = %v, want sdc", got)
	}
}

func TestSignificantEdgeCases(t *testing.T) {
	// The fold tests significance against the per-site floors.
	significant := func(g, d float64) bool { return d > significanceFloor(g) }
	if significant(1.0, 0) {
		t.Error("zero delta significant")
	}
	if !significant(0, 1) {
		t.Error("absolute fallback for zero golden failed")
	}
	if significant(0, 1e-12) {
		t.Error("tiny absolute delta on zero golden significant")
	}
	if !significant(1.0, 1e-6) {
		t.Error("1e-6 relative on 1.0 should be significant")
	}
	if significant(1e6, 1e-4) {
		t.Error("1e-10 relative should be insignificant")
	}
}

func TestMinSDCAccessor(t *testing.T) {
	p := &chainProg{n: 3}
	g := mustGolden(t, p)
	b := NewBuilder(g, true)
	b.ObserveRecord(campaign.Record{Pair: campaign.Pair{Site: 1, Bit: 2}, Kind: outcome.SDC, InjErr: 0.25})
	m := b.MinSDC()
	if m[1] != 0.25 {
		t.Errorf("MinSDC[1] = %g", m[1])
	}
	if !math.IsInf(m[0], 1) {
		t.Errorf("MinSDC[0] = %g, want +Inf", m[0])
	}
}
