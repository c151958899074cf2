package campaign

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ftb/internal/outcome"
	"ftb/internal/rng"
	"ftb/internal/trace"
)

// slowProg is a chainProg whose every run sleeps, so cancellation-latency
// tests can distinguish "stopped promptly" from "drained the whole queue".
type slowProg struct {
	n     int
	delay time.Duration
}

func (p *slowProg) Name() string { return "slow-chain" }

func (p *slowProg) Run(ctx *trace.Ctx) []float64 {
	time.Sleep(p.delay)
	v := 1.0
	for i := 0; i < p.n; i++ {
		v = ctx.Store(v + 0.5)
	}
	return []float64{v}
}

func slowConfig(t *testing.T, delay time.Duration, workers int) Config {
	t.Helper()
	g, err := trace.Golden(&slowProg{n: 4, delay: 0})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Factory: func() trace.Program { return &slowProg{n: 4, delay: delay} },
		Golden:  g,
		Tol:     1e-9,
		Workers: workers,
	}
}

// nopSink discards diff streams; sinked-pass tests only care about
// error plumbing.
type nopSink struct{}

func (nopSink) BeginRun(int, int, int, uint8)              {}
func (nopSink) Observe(int, float64, float64)              {}
func (nopSink) EndRun(outcome.Kind, float64, float64, int) {}

// withNopSink attaches nopSink to every worker of cfg.
func withNopSink(cfg Config) Config {
	cfg.Sink = func(int) RunSink { return nopSink{} }
	return cfg
}

// TestDeterminismMatrix: identical configs produce byte-identical records
// for every worker count, with ragged final batches.
func TestDeterminismMatrix(t *testing.T) {
	base := chainConfig(6, 1e-9, 1)
	pairs := AllPairs(base.Golden.Sites(), 64) // mixed outcomes: mantissa + exponent bits
	want, err := RunPairs(base, pairs)
	if err != nil {
		t.Fatal(err)
	}
	var kinds outcome.Counts
	for _, r := range want {
		kinds.Add(r.Kind)
	}
	if kinds[outcome.Masked] == 0 || kinds[outcome.SDC] == 0 || kinds[outcome.Crash] == 0 {
		t.Fatalf("workload not mixed: %v", kinds)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg := base
		cfg.Workers = workers
		cfg.Batch = 5 // force ragged final batches
		got, err := RunPairs(cfg, pairs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: records differ from 1-worker baseline", workers)
		}
	}
}

// TestExhaustiveDeterminismAcrossSched checks the same guarantee end to
// end through the exhaustive campaign's GroundTruth: which worker claims
// which batch varies with the worker count, the outcome does not.
func TestExhaustiveDeterminismAcrossSched(t *testing.T) {
	base := chainConfig(5, 1e-9, 1)
	base.Bits = 16
	want, err := Exhaustive(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Workers = workers
		cfg.Batch = 3
		got, err := Exhaustive(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Kinds, want.Kinds) {
			t.Errorf("workers=%d: ground truth differs", workers)
		}
	}
}

// TestTraceMismatchSurfaces is the satellite-1 regression: a Factory that
// builds a program with a different store count must fail the campaign
// with trace.ErrTraceMismatch instead of silently classifying garbage.
func TestTraceMismatchSurfaces(t *testing.T) {
	g, err := trace.Golden(&chainProg{n: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Factory: func() trace.Program { return &chainProg{n: 7} }, // wrong program
		Golden:  g,
		Tol:     1e-9,
		Workers: 2,
	}
	pairs := []Pair{{Site: 0, Bit: 0}, {Site: 1, Bit: 0}}
	if _, err := RunPairs(cfg, pairs); !errors.Is(err, trace.ErrTraceMismatch) {
		t.Errorf("RunPairs error = %v, want trace.ErrTraceMismatch", err)
	}
	err = RunPairsInPhase(withNopSink(cfg), pairs, "propagate", nil)
	if !errors.Is(err, trace.ErrTraceMismatch) {
		t.Errorf("sinked propagate pass error = %v, want trace.ErrTraceMismatch", err)
	}
}

// TestPreCancelledContext checks that every engine entry point returns the
// context error without doing any work.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := chainConfig(4, 1e-9, 2)
	cfg.Context = ctx
	pairs := AllPairs(4, 8)
	if _, err := RunPairs(cfg, pairs); !errors.Is(err, context.Canceled) {
		t.Errorf("RunPairs = %v, want context.Canceled", err)
	}
	if err := RunPairsInPhase(withNopSink(cfg), pairs, "propagate", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("sinked propagate pass = %v, want context.Canceled", err)
	}
	if _, err := Exhaustive(cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("Exhaustive = %v, want context.Canceled", err)
	}
	if _, err := MonteCarlo(cfg, rng.New(1), 16); !errors.Is(err, context.Canceled) {
		t.Errorf("MonteCarlo = %v, want context.Canceled", err)
	}
}

// TestCancellationPromptAndLeakFree is the tentpole's cancellation
// acceptance: cancelling mid-campaign returns ctx.Err() well before the
// queue drains, and no worker goroutines outlive the call.
func TestCancellationPromptAndLeakFree(t *testing.T) {
	const delay = 5 * time.Millisecond
	cfg := slowConfig(t, delay, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Context = ctx
	cfg.Batch = 1
	pairs := AllPairs(cfg.Golden.Sites(), 64) // 256 experiments ≈ 320ms/worker if drained

	before := runtime.NumGoroutine()
	go func() {
		time.Sleep(4 * delay)
		cancel()
	}()
	start := time.Now()
	_, err := RunPairs(cfg, pairs)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// Workers stop within one in-flight item of the cancel; allow wide
	// scheduling slack but stay far below the full-queue drain time.
	if limit := 30 * delay; elapsed > limit {
		t.Errorf("cancellation took %v, want < %v", elapsed, limit)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestObserverEvents checks the observer contract: sequential callbacks,
// monotonic Done and Frontier, Frontier ≤ Done, and a final event with
// Done == Total == Frontier.
func TestObserverEvents(t *testing.T) {
	cfg := chainConfig(5, 1e-9, 4)
	cfg.Batch = 3
	var events []Event
	cfg.Observer = ObserverFunc(func(e Event) { events = append(events, e) })
	pairs := AllPairs(5, 16)
	if _, err := RunPairs(cfg, pairs); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	prevDone, prevFrontier := 0, 0
	for i, e := range events {
		if e.Phase != "classify" {
			t.Errorf("event %d: phase %q, want classify", i, e.Phase)
		}
		if e.Total != len(pairs) {
			t.Errorf("event %d: total %d, want %d", i, e.Total, len(pairs))
		}
		if e.Done < prevDone || e.Frontier < prevFrontier {
			t.Errorf("event %d: non-monotonic done %d->%d / frontier %d->%d",
				i, prevDone, e.Done, prevFrontier, e.Frontier)
		}
		if e.Frontier > e.Done {
			t.Errorf("event %d: frontier %d beyond done %d", i, e.Frontier, e.Done)
		}
		prevDone, prevFrontier = e.Done, e.Frontier
	}
	last := events[len(events)-1]
	if last.Done != len(pairs) || last.Frontier != len(pairs) {
		t.Errorf("final event done=%d frontier=%d, want both %d", last.Done, last.Frontier, len(pairs))
	}
	if last.Counts.Total() != len(pairs) {
		t.Errorf("final counts total %d, want %d", last.Counts.Total(), len(pairs))
	}
}

// TestLateCancelKeepsCompletedCampaign: an Observer that cancels on the
// final event lands after every item completed, so the campaign result
// must survive it instead of collapsing into the context error.
func TestLateCancelKeepsCompletedCampaign(t *testing.T) {
	pairs := AllPairs(10, 4)
	want, err := RunPairs(chainConfig(10, 1e-9, 2), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 10; rep++ {
		cfg := chainConfig(10, 1e-9, 2)
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Context = ctx
		cfg.Observer = ObserverFunc(func(e Event) {
			if e.Done == e.Total {
				cancel()
			}
		})
		got, err := RunPairs(cfg, pairs)
		cancel()
		if err != nil {
			t.Fatalf("rep %d: completed campaign returned %v", rep, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: records differ from an uncancelled run", rep)
		}
	}
}

// TestEngineConfigValidation covers the new knobs' bounds.
func TestEngineConfigValidation(t *testing.T) {
	good := chainConfig(4, 1e-9, 1)
	cases := map[string]func(Config) Config{
		"workers over limit": func(c Config) Config { c.Workers = MaxWorkers + 1; return c },
		"negative batch":     func(c Config) Config { c.Batch = -1; return c },
	}
	for name, mutate := range cases {
		if _, err := RunPairs(mutate(good), AllPairs(4, 4)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	bad := []Pair{{Site: 0, Bit: 64}}
	if _, err := RunPairs(good, bad); err == nil {
		t.Error("out-of-width bit accepted")
	}
	bad = []Pair{{Site: 99, Bit: 0}}
	if _, err := RunPairs(good, bad); err == nil {
		t.Error("out-of-range site accepted")
	}
	if err := RunPairsInPhase(good, AllPairs(4, 4), "classify", make([]Record, 3)); err == nil {
		t.Error("records slice shorter than pairs accepted")
	}
}

// TestCheckpointCancelResume drives the resume story end to end: cancel
// an exhaustive campaign mid-flight, keep what the range hook reported,
// resume from it, and match the uninterrupted result.
func TestCheckpointCancelResume(t *testing.T) {
	cfg := chainConfig(20, 1e-9, 2)
	cfg.Bits = 8
	want, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := len(want.Kinds)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run1 := cfg
	run1.Context = ctx
	run1.Batch = 4
	rec := newRangeRecorder(20, 8)
	_, err = ExhaustiveResume(run1, nil, nil, func(lo, hi int, kinds []outcome.Kind) error {
		rec.add(lo, hi, kinds)
		if rec.n >= 48 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	if rec.n < 48 || rec.n >= total || rec.dup != 0 {
		t.Fatalf("persisted %d of %d experiments (%d duplicates), want a non-empty strict subset", rec.n, total, rec.dup)
	}
	for i, ok := range rec.set {
		if ok && rec.prior.Kinds[i] != want.Kinds[i] {
			t.Fatalf("persisted kind %d differs from uninterrupted run", i)
		}
	}

	var ran int
	cfg.Observer = ObserverFunc(func(e Event) { ran = e.Done })
	got, err := ExhaustiveResume(cfg, rec.prior, rangesOf(rec.set), nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(got.Kinds, want.Kinds) {
		t.Error("resumed ground truth differs from uninterrupted run")
	}
	if ran != total-rec.n {
		t.Errorf("resume ran %d experiments, want the %d gaps", ran, total-rec.n)
	}
}
