package ftb

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
)

// countSink tallies observations for the low-level runner tests.
type countSink struct{ n int }

func (s *countSink) Observe(int, float64, float64) { s.n++ }

func TestLowLevelRunnerFacade(t *testing.T) {
	k, err := NewKernel("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountSites(k); got == 0 {
		t.Fatal("CountSites = 0")
	}
	g, err := Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	if g.Sites() != CountSites(k) {
		t.Error("Golden/CountSites disagree")
	}

	var ctx Ctx
	res := RunInject(&ctx, k, 3, 20)
	if !res.Injected {
		t.Error("RunInject did not fire")
	}

	sink := &countSink{}
	dres, err := RunInjectDiff(&ctx, k, g, 3, 20, sink)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Crashed {
		t.Fatal("unexpected crash")
	}
	if sink.n != g.Sites() {
		t.Errorf("diff observed %d sites, want %d", sink.n, g.Sites())
	}
}

func TestResultAccessorsAndProfiles(t *testing.T) {
	an, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.InferBoundary(InferOptions{SampleFrac: 0.08, Filter: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictor() == nil || res.Known() == nil || res.Boundary() == nil {
		t.Fatal("nil accessors")
	}
	info := res.Info()
	if len(info) != an.Sites() {
		t.Fatalf("info length %d", len(info))
	}
	reach := res.MeanReach()
	if len(reach) != an.Sites() {
		t.Fatalf("reach length %d", len(reach))
	}
	anyReach := false
	for _, r := range reach {
		if r < 0 {
			t.Fatal("negative reach")
		}
		if r > 0 {
			anyReach = true
		}
	}
	if !anyReach {
		t.Error("no site recorded any propagation reach at 8% sampling")
	}

	prof := res.Profile(gt)
	if len(prof.TrueSDC) != an.Sites() {
		t.Fatal("profile length wrong")
	}
	grouped := prof.Group(16)
	if grouped.MeanAbsError() < 0 {
		t.Error("negative MAE")
	}
	delta := res.DeltaSDC(gt)
	for site, d := range delta {
		if math.Abs(d) > 1 {
			t.Errorf("ΔSDC[%d] = %g out of range", site, d)
		}
	}
}

func TestInferFromPairsAndGrouping(t *testing.T) {
	k, err := NewKernel("cg", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewKernelAnalysis("cg", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	pairs := an.GroupedPairs(k.Phases(), 200, 11)
	if len(pairs) != 200 {
		t.Fatalf("grouped pairs = %d", len(pairs))
	}
	seen := map[Pair]bool{}
	for _, p := range pairs {
		if p.Site < 0 || p.Site >= an.Sites() || int(p.Bit) >= an.Bits() {
			t.Fatalf("pair out of range: %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
	res, err := an.InferFromPairs(pairs, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples() != 200 {
		t.Errorf("samples = %d", res.Samples())
	}
	if u := res.Uncertainty(); u < 0 || u > 1 {
		t.Errorf("uncertainty = %g", u)
	}
	if _, err := an.InferFromPairs(nil, false); err == nil {
		t.Error("empty pairs accepted")
	}
}

func TestBoundaryStreamFacade(t *testing.T) {
	an, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.InferBoundary(InferOptions{Samples: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveBoundary(&buf, res.Boundary()); err != nil {
		t.Fatal(err)
	}
	b2, err := LoadBoundary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Sites() != an.Sites() {
		t.Error("boundary stream round trip lost sites")
	}
}

func TestExhaustiveCheckpointedResumeFacade(t *testing.T) {
	an, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	// Seed a store with the second half of the campaign, as a killed run
	// whose early batches were still in flight would leave it, then let
	// the facade resume: it must run exactly the missing first half.
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c, err := an.StoreCampaign(st)
	if err != nil {
		t.Fatal(err)
	}
	half := (want.SitesN / 2) * want.BitsN
	if err := c.Append(half, want.Kinds[half:]); err != nil {
		t.Fatal(err)
	}
	var ran, total int
	obs := ObserverFunc(func(e ProgressEvent) { ran, total = e.Done, e.Total })
	got, err := an.ExhaustiveCheckpointed("", 7, WithStore(st), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clusterGTBytes(t, got), clusterGTBytes(t, want)) {
		t.Fatal("resumed ground truth differs from the uninterrupted campaign")
	}
	if ran != half || total != half {
		t.Errorf("resume ran %d of %d experiments, want the %d the store lacked", ran, total, half)
	}
}

// TestContextAndObserverFacade exercises the engine plumbing end to end
// through the public API: WithContext cancellation and WithObserver
// progress events, both per call and persistently via Analysis.With.
func TestContextAndObserverFacade(t *testing.T) {
	an, err := NewKernelAnalysis("stencil", SizeTest)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := an.With(WithContext(ctx)).Exhaustive(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Exhaustive = %v, want context.Canceled", err)
	}
	if _, err := an.InferBoundary(InferOptions{SampleFrac: 0.05}, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled InferBoundary = %v, want context.Canceled", err)
	}
	if _, _, err := an.With(WithContext(ctx)).Progressive(ProgressiveOptions{RoundFrac: 0.02}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Progressive = %v, want context.Canceled", err)
	}

	var events int
	var phases = map[string]bool{}
	obs := ObserverFunc(func(e ProgressEvent) {
		events++
		phases[e.Phase] = true
	})
	if _, err := an.With(WithObserver(obs)).InferBoundary(InferOptions{SampleFrac: 0.1}); err != nil {
		t.Fatal(err)
	}
	if events == 0 || !phases["classify"] || len(phases) != 1 {
		t.Errorf("observer saw %d events, phases %v; want classify only", events, phases)
	}

	// Replay on and off agree through the facade too.
	gtReplay, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	gtVanilla, err := an.With(WithoutReplay()).Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	for i := range gtReplay.Kinds {
		if gtReplay.Kinds[i] != gtVanilla.Kinds[i] {
			t.Fatalf("kind[%d] differs with replay off", i)
		}
	}
}
