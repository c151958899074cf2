package ftb

import (
	"bytes"
	"strings"
	"testing"
)

func TestKernelNames(t *testing.T) {
	names := KernelNames()
	if len(names) != 12 {
		t.Fatalf("kernels = %v", names)
	}
}

func TestNewAnalysisValidation(t *testing.T) {
	if _, err := NewAnalysis(nil, 1, Options{}); err == nil {
		t.Error("nil factory accepted")
	}
	factory := func() Program { return testChain{} }
	if _, err := NewAnalysis(factory, 0, Options{}); err == nil {
		t.Error("zero tolerance accepted")
	}
	a, err := NewAnalysis(factory, 1e-6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sites() != 4 || a.Bits() != 64 || a.SampleSpace() != 256 {
		t.Errorf("sites=%d bits=%d space=%d", a.Sites(), a.Bits(), a.SampleSpace())
	}
	if a.Tolerance() != 1e-6 {
		t.Error("tolerance wrong")
	}
}

type testChain struct{}

func (testChain) Name() string { return "testchain" }

func (testChain) Run(ctx *Ctx) []float64 {
	v := 1.0
	for i := 0; i < 4; i++ {
		v = ctx.Store(v + 0.25)
	}
	return []float64{v}
}

func TestNewKernelAnalysis(t *testing.T) {
	a, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sites() == 0 {
		t.Error("no sites")
	}
	if _, err := NewKernelAnalysis("bogus", SizeTest); err == nil {
		t.Error("bogus kernel accepted")
	}
}

func TestEndToEndInferAgainstExhaustive(t *testing.T) {
	a, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := a.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.InferBoundary(InferOptions{SampleFrac: 0.10, Filter: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Evaluate(gt)
	if pr.Precision < 0.9 {
		t.Errorf("precision %.3f < 0.9", pr.Precision)
	}
	if pr.Recall <= 0.2 {
		t.Errorf("recall %.3f suspiciously low", pr.Recall)
	}
	// Self-verification should roughly agree with real precision (the
	// paper's core claim about the uncertainty metric).
	if diff := pr.Uncertainty - pr.Precision; diff > 0.15 || diff < -0.15 {
		t.Errorf("uncertainty %.3f far from precision %.3f", pr.Uncertainty, pr.Precision)
	}
	// Unknowns are assumed SDC, so the prediction must not undershoot the
	// golden SDC ratio by much.
	overall := gt.Overall()
	if res.PredictedSDCRatio() < overall.SDCRatio()-0.05 {
		t.Errorf("predicted SDC %.3f well below golden %.3f",
			res.PredictedSDCRatio(), overall.SDCRatio())
	}
}

func TestInferBoundaryBudgets(t *testing.T) {
	a, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.InferBoundary(InferOptions{}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := a.InferBoundary(InferOptions{Samples: a.SampleSpace() + 1}); err == nil {
		t.Error("overdraw accepted")
	}
	res, err := a.InferBoundary(InferOptions{Samples: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples() != 50 || len(res.Records()) != 50 {
		t.Errorf("samples=%d records=%d", res.Samples(), len(res.Records()))
	}
	if f := res.SampleFraction(); f <= 0 || f > 1 {
		t.Errorf("fraction = %g", f)
	}
}

func TestExhaustiveBoundaryPerfection(t *testing.T) {
	// The searched boundary on a monotone chain predicts the ground truth
	// exactly through the facade as well.
	a, err := NewAnalysis(func() Program { return testChain{} }, 1e-6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := a.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.ExhaustiveBoundary(gt)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sites() != a.Sites() {
		t.Error("boundary size mismatch")
	}
	nm, err := a.NonMonotonicSites(gt)
	if err != nil {
		t.Fatal(err)
	}
	if nm != 0 {
		t.Errorf("chain non-monotonic sites = %d", nm)
	}
}

func TestProgressiveThroughFacade(t *testing.T) {
	a, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	res, rounds, err := a.Progressive(ProgressiveOptions{
		RoundFrac: 0.02,
		Adaptive:  true,
		Filter:    true,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 || res.Samples() == 0 {
		t.Fatal("progressive did nothing")
	}
	if res.Samples() >= a.SampleSpace() {
		t.Error("progressive used the whole space")
	}
	if u := res.Uncertainty(); u < 0.9 {
		t.Errorf("uncertainty %.3f < 0.9", u)
	}
}

func TestRunPairsFacade(t *testing.T) {
	a, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := a.RunPairs([]Pair{{Site: 0, Bit: 0}, {Site: 1, Bit: 63}})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
}

func TestBits32Model(t *testing.T) {
	a, err := NewAnalysis(func() Program { return testChain{} }, 1e-6, Options{Bits: 32})
	if err != nil {
		t.Fatal(err)
	}
	if a.Bits() != 32 || a.SampleSpace() != 4*32 {
		t.Errorf("bits=%d space=%d", a.Bits(), a.SampleSpace())
	}
	gt, err := a.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if gt.BitsN != 32 {
		t.Errorf("gt bits = %d", gt.BitsN)
	}
}

func TestStencil32EndToEnd(t *testing.T) {
	an, err := NewKernelAnalysis("stencil32", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if an.Width() != 32 || an.Bits() != 32 {
		t.Fatalf("width=%d bits=%d, want 32/32", an.Width(), an.Bits())
	}
	if an.SampleSpace() != an.Sites()*32 {
		t.Error("sample space should use 32 flips per site")
	}
	gt, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if gt.BitsN != 32 || gt.Width() != 32 {
		t.Fatalf("gt shape bits=%d width=%d", gt.BitsN, gt.Width())
	}
	res, err := an.InferBoundary(InferOptions{SampleFrac: 0.15, Filter: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Evaluate(gt)
	if pr.Precision < 0.9 {
		t.Errorf("32-bit precision %.3f < 0.9", pr.Precision)
	}
	if pr.Recall <= 0 {
		t.Error("32-bit recall is zero")
	}
	// The exhaustive-search boundary on the 32-bit kernel must predict
	// with high accuracy too.
	b, err := an.ExhaustiveBoundary(gt)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := an.NewPredictor(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for site := 0; site < an.Sites(); site++ {
		for bit := 0; bit < an.Bits(); bit++ {
			if pred.Predict(site, uint8(bit)) != gt.At(site, uint8(bit)) {
				wrong++
			}
		}
	}
	if frac := float64(wrong) / float64(an.SampleSpace()); frac > 0.02 {
		t.Errorf("searched 32-bit boundary mispredicts %.2f%%", 100*frac)
	}
}

func TestExhaustiveCheckpointedFacade(t *testing.T) {
	an, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	// Progress persists through a store only: a checkpoint path, or no
	// store at all, is an error that names the option to use.
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, c := range []struct {
		path string
		opts []RunOption
	}{
		{t.TempDir() + "/cp.ftb", nil},
		{t.TempDir() + "/cp.ftb", []RunOption{WithStore(st)}},
		{"", nil},
	} {
		if _, err := an.ExhaustiveCheckpointed(c.path, 5, c.opts...); err == nil || !strings.Contains(err.Error(), "WithStore") {
			t.Errorf("path %q with %d options: err = %v, want a WithStore requirement", c.path, len(c.opts), err)
		}
	}
	got, err := an.ExhaustiveCheckpointed("", 5, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterGTBytes(t, got), clusterGTBytes(t, want)) {
		t.Fatal("store-backed ground truth differs from the in-memory campaign")
	}
}

func TestProgressiveOn32BitKernel(t *testing.T) {
	an, err := NewKernelAnalysis("stencil32", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	res, rounds, err := an.Progressive(ProgressiveOptions{
		RoundFrac: 0.02, Adaptive: true, Filter: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 || res.Samples() == 0 {
		t.Fatal("progressive did nothing on 32-bit kernel")
	}
	// Every sampled pair must be inside the 32-bit fault population.
	gt, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Evaluate(gt)
	if pr.Precision < 0.9 {
		t.Errorf("32-bit progressive precision %.3f", pr.Precision)
	}
	if u := res.Uncertainty(); u < 0.9 {
		t.Errorf("32-bit progressive uncertainty %.3f", u)
	}
}
