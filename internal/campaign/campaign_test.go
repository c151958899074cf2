package campaign

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"ftb/internal/kernels"
	"ftb/internal/outcome"
	"ftb/internal/trace"
)

// chainProg stores n values where each is the previous plus an input:
// a fully-propagating linear chain with predictable deltas.
type chainProg struct {
	n int
}

func (p *chainProg) Name() string { return "chain" }

func (p *chainProg) Run(ctx *trace.Ctx) []float64 {
	v := 1.0
	for i := 0; i < p.n; i++ {
		v = ctx.Store(v + 0.5)
	}
	return []float64{v}
}

func chainConfig(n int, tol float64, workers int) Config {
	p := &chainProg{n: n}
	g, err := trace.Golden(p)
	if err != nil {
		panic(err)
	}
	return Config{
		Factory: func() trace.Program { return &chainProg{n: n} },
		Golden:  g,
		Tol:     tol,
		Workers: workers,
	}
}

func TestAllPairs(t *testing.T) {
	pairs := AllPairs(3, 4)
	if len(pairs) != 12 {
		t.Fatalf("len = %d, want 12", len(pairs))
	}
	if pairs[0] != (Pair{0, 0}) || pairs[11] != (Pair{2, 3}) {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestConfigValidation(t *testing.T) {
	good := chainConfig(4, 1e-9, 1)
	cases := []func(Config) Config{
		func(c Config) Config { c.Factory = nil; return c },
		func(c Config) Config { c.Golden = nil; return c },
		func(c Config) Config { c.Tol = 0; return c },
		func(c Config) Config { c.Bits = 65; return c },
		func(c Config) Config { c.Bits = -1; return c },
	}
	for i, mutate := range cases {
		if _, err := RunPairs(mutate(good), nil); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunPairClassification(t *testing.T) {
	cfg := chainConfig(8, 1e-9, 1)
	p := cfg.Factory()
	var ctx trace.Ctx

	// Tiny mantissa flip on the last store: output error == injected
	// error, well above tol 1e-9? bit 0 of a value ~5 is ~1e-15: masked.
	rec := RunPair(&ctx, p, cfg.Golden, cfg.Tol, Pair{Site: 7, Bit: 0})
	if rec.Kind != outcome.Masked {
		t.Errorf("ulp flip kind = %v, want masked", rec.Kind)
	}

	// Sign flip mid-chain: large error propagates to output -> SDC.
	rec = RunPair(&ctx, p, cfg.Golden, cfg.Tol, Pair{Site: 3, Bit: 63})
	if rec.Kind != outcome.SDC {
		t.Errorf("sign flip kind = %v, want sdc", rec.Kind)
	}
	if rec.OutErr != rec.InjErr {
		t.Errorf("chain should propagate error verbatim: out %g vs inj %g", rec.OutErr, rec.InjErr)
	}

	// Top exponent bit flip of a value in [1,2) -> Inf -> crash.
	rec = RunPair(&ctx, p, cfg.Golden, cfg.Tol, Pair{Site: 0, Bit: 62})
	if rec.Kind != outcome.Crash {
		t.Errorf("exponent flip kind = %v, want crash", rec.Kind)
	}
	if !math.IsInf(rec.OutErr, 1) {
		t.Errorf("crash OutErr = %g, want +Inf", rec.OutErr)
	}
}

func TestRunPairsOrderAndParallelDeterminism(t *testing.T) {
	pairs := AllPairs(16, 8)
	var want []Record
	for _, workers := range []int{1, 2, 3, 8, 64} {
		cfg := chainConfig(16, 1e-9, workers)
		got, err := RunPairs(cfg, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pairs) {
			t.Fatalf("got %d records, want %d", len(got), len(pairs))
		}
		for i, r := range got {
			if r.Pair != pairs[i] {
				t.Fatalf("workers=%d: record %d pair %v, want %v", workers, i, r.Pair, pairs[i])
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: record %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestExhaustiveTinyChain(t *testing.T) {
	cfg := chainConfig(6, 1e-9, 4)
	gt, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := gt.Validate(cfg.Golden); err != nil {
		t.Fatal(err)
	}
	if gt.SitesN != 6 || gt.BitsN != 64 {
		t.Fatalf("gt shape %dx%d", gt.SitesN, gt.BitsN)
	}
	// Cross-check a few entries against direct runs.
	p := cfg.Factory()
	var ctx trace.Ctx
	for _, pair := range []Pair{{0, 0}, {3, 63}, {5, 62}, {2, 30}} {
		want := RunPair(&ctx, p, cfg.Golden, cfg.Tol, pair).Kind
		if got := gt.At(pair.Site, pair.Bit); got != want {
			t.Errorf("gt.At(%v) = %v, want %v", pair, got, want)
		}
	}
	// Overall must equal the sum of site counts.
	var sum outcome.Counts
	for s := 0; s < gt.SitesN; s++ {
		sum.Merge(gt.SiteCounts(s))
	}
	if sum != gt.Overall() {
		t.Errorf("Overall %v != site sum %v", gt.Overall(), sum)
	}
	if sum.Total() != 6*64 {
		t.Errorf("total experiments %d, want 384", sum.Total())
	}
}

func TestExhaustiveWorkerCountInvariance(t *testing.T) {
	var base *GroundTruth
	for _, workers := range []int{1, 3, 7} {
		cfg := chainConfig(10, 1e-9, workers)
		gt, err := Exhaustive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = gt
			continue
		}
		for i := range gt.Kinds {
			if gt.Kinds[i] != base.Kinds[i] {
				t.Fatalf("workers=%d: kind[%d] differs", workers, i)
			}
		}
	}
}

func TestInjErrMatchesRecord(t *testing.T) {
	cfg := chainConfig(6, 1e-9, 1)
	recs, err := RunPairs(cfg, AllPairs(6, 64))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		want := InjErr(cfg.Golden, r.Site, r.Bit)
		if r.InjErr != want && !(math.IsInf(r.InjErr, 1) && math.IsInf(want, 1)) {
			t.Fatalf("pair %v: InjErr %g, computed %g", r.Pair, r.InjErr, want)
		}
	}
}

// collectSink records the runs and deltas it observes.
type collectSink struct {
	begun, ended []Pair
	kinds        []outcome.Kind
	deltaSums    []float64 // per-run sum of deltas
	cur          float64
}

func (s *collectSink) BeginRun(_, _ int, site int, bit uint8) {
	s.begun = append(s.begun, Pair{site, bit})
	s.cur = 0
}
func (s *collectSink) Observe(site int, golden, delta float64) {
	s.cur += delta
}
func (s *collectSink) EndRun(kind outcome.Kind, _, _ float64, _ int) {
	s.ended = append(s.ended, s.begun[len(s.begun)-1])
	s.kinds = append(s.kinds, kind)
	s.deltaSums = append(s.deltaSums, s.cur)
}

// runCollected runs pairs as a sinked propagate pass and returns every
// worker's collectSink.
func runCollected(t *testing.T, cfg Config, pairs []Pair) []*collectSink {
	t.Helper()
	var (
		mu    sync.Mutex
		sinks []*collectSink
	)
	cfg.Sink = func(int) RunSink {
		s := &collectSink{}
		mu.Lock()
		sinks = append(sinks, s)
		mu.Unlock()
		return s
	}
	if err := RunPairsInPhase(cfg, pairs, "propagate", nil); err != nil {
		t.Fatal(err)
	}
	return sinks
}

func TestPropagateSinkLifecycle(t *testing.T) {
	cfg := chainConfig(8, 1e-9, 2)
	pairs := []Pair{{1, 0}, {2, 40}, {3, 63}, {4, 10}}
	sinks := runCollected(t, cfg, pairs)
	if len(sinks) == 0 {
		t.Fatal("no sinks used")
	}
	var begun, ended int
	for _, cs := range sinks {
		if len(cs.begun) != len(cs.ended) {
			t.Fatalf("sink begun %d != ended %d", len(cs.begun), len(cs.ended))
		}
		for i := range cs.begun {
			if cs.begun[i] != cs.ended[i] {
				t.Fatal("begun/ended pair mismatch")
			}
		}
		begun += len(cs.begun)
		ended += len(cs.ended)
	}
	if begun != len(pairs) {
		t.Errorf("total runs %d, want %d", begun, len(pairs))
	}
}

func TestPropagateDeltasReflectChain(t *testing.T) {
	// In the chain, a sign flip at site s changes all subsequent stores by
	// the same absolute delta: the per-run delta sum is (n−s)·injErr.
	n := 10
	cfg := chainConfig(n, 1e-9, 1)
	pairs := []Pair{{Site: 4, Bit: 63}}
	cs := runCollected(t, cfg, pairs)[0]
	if len(cs.deltaSums) != 1 {
		t.Fatalf("runs = %d, want 1", len(cs.deltaSums))
	}
	injErr := InjErr(cfg.Golden, 4, 63)
	want := float64(n-4) * injErr
	if math.Abs(cs.deltaSums[0]-want) > 1e-9*want {
		t.Errorf("delta sum %g, want %g", cs.deltaSums[0], want)
	}
}

func TestCampaignOnRealKernel(t *testing.T) {
	k, err := kernels.New("stencil", kernels.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Factory: func() trace.Program {
			kk, err := kernels.New("stencil", kernels.SizeTest)
			if err != nil {
				panic(err)
			}
			return kk
		},
		Golden: g,
		Tol:    k.Tolerance(),
	}
	gt, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	overall := gt.Overall()
	if overall.Total() != g.Sites()*64 {
		t.Fatalf("total %d, want %d", overall.Total(), g.Sites()*64)
	}
	// The stencil yields masked outcomes (low mantissa bits) and SDC
	// (exponent-area flips). It cannot crash: its values stay inside
	// (−1, 1), whose top-exponent flips are huge but finite, and there is
	// no division to overflow downstream.
	if overall[outcome.Masked] == 0 || overall[outcome.SDC] == 0 {
		t.Errorf("expected masked and sdc outcomes, got %v", overall)
	}
	if overall[outcome.Crash] != 0 {
		t.Errorf("stencil cannot crash, got %v", overall)
	}
}

// rangesOf converts a set of reported experiments into the sorted,
// maximal ranges a store would report.
func rangesOf(set []bool) []Range {
	var rs []Range
	for i := 0; i < len(set); {
		j := i
		for j < len(set) && set[j] {
			j++
		}
		if j > i {
			rs = append(rs, Range{Lo: i, Hi: j})
			i = j
		} else {
			i++
		}
	}
	return rs
}

// rangeRecorder is an onRange hook that keeps what a store would: the
// reported outcomes in a prior and the set of reported experiments.
type rangeRecorder struct {
	prior *GroundTruth
	set   []bool
	n     int
	dup   int // experiments reported more than once
}

func newRangeRecorder(sites, bits int) *rangeRecorder {
	return &rangeRecorder{
		prior: &GroundTruth{SitesN: sites, BitsN: bits, WidthN: 64, Kinds: make([]outcome.Kind, sites*bits)},
		set:   make([]bool, sites*bits),
	}
}

func (r *rangeRecorder) add(lo, hi int, kinds []outcome.Kind) error {
	copy(r.prior.Kinds[lo:hi], kinds)
	for i := lo; i < hi; i++ {
		if r.set[i] {
			r.dup++
		}
		r.set[i] = true
	}
	r.n += hi - lo
	return nil
}

func TestExhaustiveCheckpointedMatchesPlain(t *testing.T) {
	cfg := chainConfig(20, 1e-9, 3)
	want, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Batch = 7 // batches straddle sites
	seen := make([]int, len(want.Kinds))
	got, err := ExhaustiveResume(cfg, nil, nil, func(lo, hi int, kinds []outcome.Kind) error {
		if len(kinds) != hi-lo {
			t.Errorf("range [%d, %d) carries %d kinds", lo, hi, len(kinds))
		}
		// Every reported outcome is final: it agrees with the plain
		// campaign at hook time.
		for i := lo; i < hi; i++ {
			seen[i]++
			if kinds[i-lo] != want.Kinds[i] {
				t.Errorf("kind[%d] reported as %v, plain campaign %v", i, kinds[i-lo], want.Kinds[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("experiment %d reported %d times, want exactly once", i, n)
		}
	}
	if !reflect.DeepEqual(got.Kinds, want.Kinds) {
		t.Fatal("ground truth differs from plain campaign")
	}
}

func TestExhaustiveCheckpointedResume(t *testing.T) {
	cfg := chainConfig(20, 1e-9, 2)
	want, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run until at least half the campaign is reported, then abort from
	// the hook, as a failing store append would.
	rec := newRangeRecorder(20, want.BitsN)
	_, err = ExhaustiveResume(cfg, nil, nil, func(lo, hi int, kinds []outcome.Kind) error {
		rec.add(lo, hi, kinds)
		if rec.n >= len(want.Kinds)/2 {
			return errStopEarly
		}
		return nil
	})
	if !errors.Is(err, errStopEarly) {
		t.Fatalf("err = %v, want the hook's error", err)
	}
	done := rangesOf(rec.set)
	// Corrupt everything outside the reported ranges to prove resume
	// trusts exactly those ranges and recomputes the rest.
	for i, ok := range rec.set {
		if !ok {
			rec.prior.Kinds[i] = outcome.Crash
		}
	}
	var total int
	cfg.Observer = ObserverFunc(func(e Event) { total = e.Total })
	got, err := ExhaustiveResume(cfg, rec.prior, done, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Kinds, want.Kinds) {
		t.Fatal("resumed ground truth differs from plain campaign")
	}
	if total != len(want.Kinds)-rec.n {
		t.Errorf("resume ran %d experiments, want the %d outside the reported ranges", total, len(want.Kinds)-rec.n)
	}
}

func TestExhaustiveCheckpointedValidation(t *testing.T) {
	cfg := chainConfig(8, 1e-9, 1)
	total := 8 * 64
	if _, err := ExhaustiveResume(cfg, nil, []Range{{0, 64}}, nil); err == nil {
		t.Error("completed ranges without prior accepted")
	}
	// A prior or ranges that disagree with the campaign are the typed
	// ErrCheckpointMismatch, so callers can tell a wrong store campaign
	// from transient campaign failures.
	bad := &GroundTruth{SitesN: 5, BitsN: 64, Kinds: make([]outcome.Kind, 5*64)}
	if _, err := ExhaustiveResume(cfg, bad, []Range{{0, 64}}, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("mismatched prior: got %v, want ErrCheckpointMismatch", err)
	}
	good := &GroundTruth{SitesN: 8, BitsN: 64, Kinds: make([]outcome.Kind, total)}
	for _, done := range [][]Range{
		{{0, total + 1}},      // outside the campaign
		{{-1, 4}},             // negative
		{{8, 4}},              // inverted
		{{64, 128}, {0, 64}},  // unsorted
		{{0, 100}, {64, 128}}, // overlapping
	} {
		if _, err := ExhaustiveResume(cfg, good, done, nil); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("ranges %v: got %v, want ErrCheckpointMismatch", done, err)
		}
	}
	// A prior whose ranges cover everything runs nothing and returns it.
	for i := range good.Kinds {
		good.Kinds[i] = outcome.SDC
	}
	cfg.Factory = func() trace.Program { panic("covered campaign constructed a program") }
	got, err := ExhaustiveResume(cfg, good, []Range{{0, total}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Kinds, good.Kinds) {
		t.Error("covered resume did not return the prior's outcomes")
	}
}

var errStopEarly = errors.New("stop early")

func TestGroundTruthWidthDefault(t *testing.T) {
	gt := &GroundTruth{SitesN: 1, BitsN: 1, Kinds: make([]outcome.Kind, 1)}
	if gt.Width() != 64 {
		t.Errorf("legacy width = %d, want 64", gt.Width())
	}
	gt.WidthN = 32
	if gt.Width() != 32 {
		t.Errorf("width = %d, want 32", gt.Width())
	}
}

func TestSiteSDCRatio(t *testing.T) {
	gt := &GroundTruth{SitesN: 1, BitsN: 4, Kinds: []outcome.Kind{
		outcome.Masked, outcome.SDC, outcome.SDC, outcome.Crash,
	}}
	if got := gt.SiteSDCRatio(0); got != 0.5 {
		t.Errorf("SiteSDCRatio = %g, want 0.5", got)
	}
}

func TestInjErrWidth(t *testing.T) {
	g := &trace.GoldenRun{Trace: []float64{1.0}}
	if got, want := InjErrWidth(g, 0, 63, 64), 2.0; got != want {
		t.Errorf("64-bit sign flip err = %g, want %g", got, want)
	}
	if got, want := InjErrWidth(g, 0, 31, 32), 2.0; got != want {
		t.Errorf("32-bit sign flip err = %g, want %g", got, want)
	}
	// Bit 30 on float32 1.0 is the top exponent bit -> Inf.
	if got := InjErrWidth(g, 0, 30, 32); !math.IsInf(got, 1) {
		t.Errorf("32-bit top exponent err = %g, want +Inf", got)
	}
}

func TestValidateErrors(t *testing.T) {
	cfg := chainConfig(4, 1e-9, 1)
	gt := &GroundTruth{SitesN: 3, BitsN: 64, Kinds: make([]outcome.Kind, 3*64)}
	if err := gt.Validate(cfg.Golden); err == nil {
		t.Error("site mismatch accepted")
	}
	gt = &GroundTruth{SitesN: 4, BitsN: 64, Kinds: make([]outcome.Kind, 5)}
	if err := gt.Validate(cfg.Golden); err == nil {
		t.Error("kinds length mismatch accepted")
	}
}
