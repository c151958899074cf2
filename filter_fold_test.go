package ftb

import (
	"math"
	"testing"
)

// TestWithFilterMatchesFilterSetting: one inference keeps both folds, so
// refolding a result with the other filter setting is bit-identical to
// inferring with that setting from the same seed, for every kernel.
func TestWithFilterMatchesFilterSetting(t *testing.T) {
	differs := 0
	for _, name := range KernelNames() {
		an, err := NewKernelAnalysis(name, SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := an.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			var direct [2]*Result
			for i, filter := range []bool{false, true} {
				direct[i], err = an.InferBoundary(InferOptions{SampleFrac: 0.05, Filter: filter, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
			}
			for i, filter := range []bool{false, true} {
				refolded, err := direct[1-i].WithFilter(filter)
				if err != nil {
					t.Fatal(err)
				}
				if msg := sameResult(refolded, direct[i], gt); msg != "" {
					t.Errorf("%s seed %d: InferBoundary(Filter: %v).WithFilter(%v): %s",
						name, seed, !filter, filter, msg)
				}
				if same, err := direct[i].WithFilter(filter); err != nil || same != direct[i] {
					t.Errorf("%s seed %d: WithFilter(%v) of its own setting = %p, %v; want the receiver",
						name, seed, filter, same, err)
				}
			}
			if sameResult(direct[0], direct[1], gt) != "" {
				differs++
			}
		}
	}
	// The comparison is vacuous unless the filter changes some boundary.
	if differs == 0 {
		t.Error("the filter changed no boundary: nothing was compared")
	}
}

// sameResult reports how two results differ in thresholds (bit for bit),
// predicted SDC ratio, uncertainty or evaluation, or "" if they do not.
func sameResult(got, want *Result, gt *GroundTruth) string {
	g, w := got.Boundary().Thresholds, want.Boundary().Thresholds
	if len(g) != len(w) {
		return "threshold counts differ"
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return "thresholds differ"
		}
	}
	if math.Float64bits(got.PredictedSDCRatio()) != math.Float64bits(want.PredictedSDCRatio()) {
		return "predicted SDC ratios differ"
	}
	if math.Float64bits(got.Uncertainty()) != math.Float64bits(want.Uncertainty()) {
		return "uncertainties differ"
	}
	if got.Evaluate(gt) != want.Evaluate(gt) {
		return "evaluations differ"
	}
	return ""
}
