package ftb

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestWithPropTraceRecordsTrajectories checks the facade wiring: an
// exhaustive campaign with WithPropTrace records one trajectory per
// experiment, labelled with the kernel's name and the run's outcome.
func TestWithPropTraceRecordsTrajectories(t *testing.T) {
	a := runOptionAnalysis(t)
	buf := NewTrajectoryBuffer()
	gt, err := a.Exhaustive(WithPropTrace(buf))
	if err != nil {
		t.Fatal(err)
	}
	ts := buf.Trajectories()
	if len(ts) != a.SampleSpace() {
		t.Fatalf("%d trajectories, want %d", len(ts), a.SampleSpace())
	}
	for i, tr := range ts {
		if tr.Run != i {
			t.Fatalf("trajectory %d has run %d", i, tr.Run)
		}
		if tr.Program != "testchain" {
			t.Fatalf("trajectory %d program %q, want kernel name", i, tr.Program)
		}
		if tr.Outcome != gt.Kinds[i].String() {
			t.Errorf("trajectory %d outcome %q, want %q", i, tr.Outcome, gt.Kinds[i])
		}
	}
}

// TestWithPropTraceOptionsOverride checks that explicit trajectory
// options win over the analysis defaults.
func TestWithPropTraceOptionsOverride(t *testing.T) {
	a := runOptionAnalysis(t)
	buf := NewTrajectoryBuffer()
	_, err := a.RunPairs([]Pair{{Site: 0, Bit: 1}, {Site: 2, Bit: 62}},
		WithPropTraceOptions(buf, TrajectoryOptions{Program: "renamed", MaxSamples: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ts := buf.Trajectories()
	if len(ts) != 2 {
		t.Fatalf("%d trajectories, want 2", len(ts))
	}
	for _, tr := range ts {
		if tr.Program != "renamed" {
			t.Errorf("program %q, want explicit override", tr.Program)
		}
		if len(tr.Samples) > 2 {
			t.Errorf("%d samples, want MaxSamples cap of 2", len(tr.Samples))
		}
	}
}

// TestTrajectoryRoundTripThroughFacade exercises the exported
// serialization helpers end to end: record, write JSONL, read back,
// aggregate, export Chrome trace events.
func TestTrajectoryRoundTripThroughFacade(t *testing.T) {
	a := runOptionAnalysis(t)
	buf := NewTrajectoryBuffer()
	if _, err := a.Exhaustive(WithPropTrace(buf)); err != nil {
		t.Fatal(err)
	}
	ts := buf.Trajectories()

	var jsonl bytes.Buffer
	if err := WriteTrajectoriesJSONL(&jsonl, ts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrajectoriesJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ts) {
		t.Fatalf("round trip lost trajectories: %d vs %d", len(back), len(ts))
	}

	prof := AggregateTrajectories(ts, 4, 4, 8)
	if prof.Trajectories != len(ts) {
		t.Errorf("profile folded %d trajectories, want %d", prof.Trajectories, len(ts))
	}
	heat := prof.Render("")
	if !strings.Contains(heat, "trajector") {
		t.Errorf("heatmap missing caption:\n%s", heat)
	}

	var chrome bytes.Buffer
	if err := WriteTrajectoriesChromeTrace(&chrome, "testchain", ts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"traceEvents"`) {
		t.Error("chrome export missing traceEvents envelope")
	}
}

// TestInferTrajectoryCount pins what the collector counts as a
// trajectory when inference streams every run through Algorithm 1's
// fold: only runs a WithPropTrace recorder saw. Inference runs each
// sample once, in the classify phase, so no propagate phase exists.
// Recording changes nothing the fold infers.
func TestInferTrajectoryCount(t *testing.T) {
	an, err := NewKernelAnalysis("cg", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := InferOptions{SampleFrac: 0.05, Seed: 7}
	var untraced []float64
	for _, traced := range []bool{false, true} {
		col := NewCollector()
		run := []RunOption{WithCollector(col)}
		buf := NewTrajectoryBuffer()
		if traced {
			run = append(run, WithPropTrace(buf))
		}
		res, err := an.InferBoundary(opts, run...)
		if err != nil {
			t.Fatal(err)
		}
		if th := res.Boundary().Thresholds; !traced {
			untraced = th
		} else if !slices.Equal(th, untraced) {
			t.Error("recording trajectories changed the inferred boundary")
		}
		snap := col.Snapshot()
		classify, propagate := snap.Phases["classify"], snap.Phases["propagate"]
		if propagate.Experiments != 0 {
			t.Errorf("traced=%v: propagate experiments = %d, want 0 (one execution per sample)",
				traced, propagate.Experiments)
		}
		if n := int64(len(res.Records())); classify.Experiments != n {
			t.Errorf("traced=%v: classify experiments = %d, want one per sample (%d)",
				traced, classify.Experiments, n)
		}
		if propagate.Trajectories != 0 {
			t.Errorf("traced=%v: propagate trajectories = %d, want 0", traced, propagate.Trajectories)
		}
		want := int64(0)
		if traced {
			want = classify.Experiments
			if n := int64(len(buf.Trajectories())); n != want {
				t.Errorf("recorder delivered %d trajectories, want %d", n, want)
			}
		}
		if snap.Trajectories != want {
			t.Errorf("traced=%v: Trajectories = %d, want %d (classify runs %d)",
				traced, snap.Trajectories, want, classify.Experiments)
		}
	}
}

// TestInferPropTraceMatchesRunPairs: inference records its trajectories
// in the same pass that feeds Algorithm 1's fold, and they equal the
// trajectories a standalone classification campaign records over the
// same samples. Only the worker tag may differ, since scheduling
// decides which worker runs an experiment.
func TestInferPropTraceMatchesRunPairs(t *testing.T) {
	an, err := NewKernelAnalysis("cg", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	inferBuf, pairsBuf := NewTrajectoryBuffer(), NewTrajectoryBuffer()
	res, err := an.InferBoundary(InferOptions{SampleFrac: 0.05, Seed: 3}, WithPropTrace(inferBuf))
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair, len(res.Records()))
	for i, rec := range res.Records() {
		pairs[i] = rec.Pair
	}
	if _, err := an.RunPairs(pairs, WithPropTrace(pairsBuf)); err != nil {
		t.Fatal(err)
	}
	got, want := inferBuf.Trajectories(), pairsBuf.Trajectories()
	if len(got) != len(pairs) || len(want) != len(pairs) {
		t.Fatalf("%d inference and %d campaign trajectories for %d samples", len(got), len(want), len(pairs))
	}
	for i := range want {
		got[i].Worker, want[i].Worker = 0, 0
		var g, w bytes.Buffer
		if err := WriteTrajectoriesJSONL(&g, got[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if err := WriteTrajectoriesJSONL(&w, want[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("trajectory %d differs:\ninference %s\ncampaign  %s", i, g.Bytes(), w.Bytes())
		}
	}
}
