package ftb

import (
	"strings"
	"testing"
)

// TestComposedExhaustiveFacade drives the composed campaign through the
// public RunOption door: a sectioned kernel's Exhaustive(WithCompose)
// must reproduce the plain exhaustive ground truth exactly, report its
// accounting, and — with a store attached — persist summaries that a
// second run reuses without recalibrating.
func TestComposedExhaustiveFacade(t *testing.T) {
	a, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	secs := a.Sections()
	if len(secs) == 0 {
		t.Fatal("stencil declares no sections")
	}
	if hs := a.SectionHashes(secs); len(hs) != len(secs) {
		t.Fatalf("%d hashes for %d sections", len(hs), len(secs))
	}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Plain exhaustive first, persisted: the ground truth the composed
	// runs are validated against.
	want, err := a.Exhaustive(WithStore(st))
	if err != nil {
		t.Fatal(err)
	}

	var rep ComposeReport
	got, err := a.Exhaustive(WithCompose(ComposeOptions{Validate: true, Report: &rep}), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d mismatches against store ground truth", rep.Mismatches)
	}
	for i := range want.Kinds {
		if got.Kinds[i] != want.Kinds[i] {
			t.Fatalf("record %d = %v, want %v", i, got.Kinds[i], want.Kinds[i])
		}
	}
	if rep.SummariesBuilt == 0 || rep.SummariesReused != 0 {
		t.Errorf("first composed run: built=%d reused=%d", rep.SummariesBuilt, rep.SummariesReused)
	}

	// Second composed run: the persisted sidecar summaries all reuse.
	var rep2 ComposeReport
	if _, err := a.Exhaustive(WithCompose(ComposeOptions{Validate: true, Report: &rep2}), WithStore(st)); err != nil {
		t.Fatal(err)
	}
	if rep2.SummariesReused != rep.SummariesBuilt || rep2.SummariesBuilt != 0 || rep2.Calibrated != 0 {
		t.Errorf("second composed run: built=%d reused=%d calibrated=%d, want 0/%d/0",
			rep2.SummariesBuilt, rep2.SummariesReused, rep2.Calibrated, rep.SummariesBuilt)
	}
	if rep2.Mismatches != 0 {
		t.Errorf("%d mismatches on reused summaries", rep2.Mismatches)
	}
}

// TestComposeFacadeErrors pins the failure modes of the composed door:
// programs with no layout, invalid explicit layouts, validation without
// ground truth, and the campaign modes composition cannot ride on.
func TestComposeFacadeErrors(t *testing.T) {
	plain, err := NewAnalysis(func() Program { return testChain{} }, 1e-6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// testChain declares no sections.
	if plain.Sections() != nil {
		t.Fatal("testChain unexpectedly declares sections")
	}
	if _, err := plain.Exhaustive(WithCompose(ComposeOptions{})); err == nil || !strings.Contains(err.Error(), "declares no sections") {
		t.Errorf("no sections: err = %v", err)
	}
	// An explicit layout unblocks it.
	layout := []Section{{Name: "a", Start: 0, End: 2}, {Name: "b", Start: 2, End: 4}}
	gt, err := plain.Exhaustive(WithCompose(ComposeOptions{}), WithSections(layout))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := plain.Exhaustive(); len(gt.Kinds) != len(want.Kinds) {
		t.Errorf("composed space %d, plain %d", len(gt.Kinds), len(want.Kinds))
	}
	// ...but only a partitioning one.
	if _, err := plain.Exhaustive(WithCompose(ComposeOptions{}), WithSections(layout[:1])); err == nil {
		t.Error("non-covering layout accepted")
	}
	// A refined layout still partitions, so it composes too.
	fine := RefineSections(layout, 2)
	if len(fine) != 4 {
		t.Fatalf("RefineSections: %d sections, want 4", len(fine))
	}
	if _, err := plain.Exhaustive(WithCompose(ComposeOptions{}), WithSections(fine)); err != nil {
		t.Errorf("refined layout rejected: %v", err)
	}
	// Validate needs a store to materialize truth from.
	if _, err := plain.Exhaustive(WithCompose(ComposeOptions{Validate: true}), WithSections(layout)); err == nil || !strings.Contains(err.Error(), "WithStore") {
		t.Errorf("Validate without store: err = %v", err)
	}
	// Composed campaigns append no outcomes, so they have no stride.
	if _, err := plain.ExhaustiveCheckpointed("", 2, WithCompose(ComposeOptions{}), WithSections(layout)); err == nil {
		t.Error("WithCompose on ExhaustiveCheckpointed accepted")
	}
}
