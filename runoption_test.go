package ftb

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func runOptionAnalysis(t *testing.T) *Analysis {
	t.Helper()
	a, err := NewAnalysis(func() Program { return testChain{} }, 1e-6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWithCollectorMatchesGroundTruth pins the acceptance identity at the
// facade level: a collector attached with WithCollector reports outcome
// counters exactly equal to the exhaustive campaign's ground truth
// tallies.
func TestWithCollectorMatchesGroundTruth(t *testing.T) {
	a := runOptionAnalysis(t)
	col := NewCollector()
	gt, err := a.Exhaustive(WithCollector(col))
	if err != nil {
		t.Fatal(err)
	}
	overall := gt.Overall()
	s := col.Snapshot()
	if s.Outcomes.Masked != int64(overall[Masked]) ||
		s.Outcomes.SDC != int64(overall[SDC]) ||
		s.Outcomes.Crash != int64(overall[Crash]) {
		t.Errorf("collector %+v != ground truth %v", s.Outcomes, overall)
	}
	if s.Experiments != int64(a.SampleSpace()) {
		t.Errorf("experiments = %d, want %d", s.Experiments, a.SampleSpace())
	}
	if s.Campaigns != 1 {
		t.Errorf("campaigns = %d, want 1", s.Campaigns)
	}
}

// TestCollectorAccumulatesAcrossCalls checks one collector can serve a
// whole workflow: ground truth, inference, and explicit pairs all feed
// the same aggregate.
func TestCollectorAccumulatesAcrossCalls(t *testing.T) {
	a := runOptionAnalysis(t)
	col := NewCollector()
	if _, err := a.Exhaustive(WithCollector(col)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.InferBoundary(InferOptions{Samples: 20, Seed: 1}, WithCollector(col)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunPairs([]Pair{{Site: 0, Bit: 0}}, WithCollector(col)); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	// Inference contributes its classify samples plus a propagation-diff
	// rerun per masked sample, so the total is a floor, not an identity.
	want := int64(a.SampleSpace() + 20 + 1)
	if s.Experiments < want {
		t.Errorf("experiments = %d, want >= %d", s.Experiments, want)
	}
	if s.Campaigns < 3 {
		t.Errorf("campaigns = %d, want >= 3", s.Campaigns)
	}
	if _, ok := s.Phases["exhaustive"]; !ok {
		t.Errorf("phases = %v, want exhaustive present", s.Phases)
	}
}

func TestWithContextOption(t *testing.T) {
	a := runOptionAnalysis(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Exhaustive(WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("call-level WithContext: err = %v, want canceled", err)
	}
	if _, err := a.With(WithContext(ctx)).Exhaustive(); !errors.Is(err, context.Canceled) {
		t.Errorf("persistent With: err = %v, want canceled", err)
	}
	// The original analysis is untouched by With.
	if _, err := a.Exhaustive(); err != nil {
		t.Errorf("original analysis affected by With: %v", err)
	}
}

// TestInferBoundaryRunOptions checks that InferBoundary's trailing
// RunOptions reach its campaigns: a call-level context cancels, and a
// later option overrides an earlier one.
func TestInferBoundaryRunOptions(t *testing.T) {
	a := runOptionAnalysis(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.InferBoundary(InferOptions{Samples: 10}, WithContext(dead)); !errors.Is(err, context.Canceled) {
		t.Errorf("call-level WithContext: err = %v, want canceled", err)
	}
	// The last WithContext wins, matching persistent-vs-call precedence.
	if _, err := a.InferBoundary(InferOptions{Samples: 10}, WithContext(dead), WithContext(context.Background())); err != nil {
		t.Errorf("later RunOption should override earlier one: %v", err)
	}
}

func TestWithObserverAndWorkersOptions(t *testing.T) {
	a := runOptionAnalysis(t)
	var events atomic.Int64
	obs := ObserverFunc(func(ProgressEvent) { events.Add(1) })
	if _, err := a.Exhaustive(WithObserver(obs), WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 {
		t.Error("observer received no progress events")
	}
}
