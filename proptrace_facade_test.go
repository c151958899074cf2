package ftb

import (
	"bytes"
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
// trajectory when inference streams both of its passes through run
// sinks: only runs a WithPropTrace recorder saw. The propagate pass feeds
// Algorithm 1's fold, so it adds experiments (one per masked sample) but
// never trajectories.
func TestInferTrajectoryCount(t *testing.T) {
	an, err := NewKernelAnalysis("cg", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	opts := InferOptions{SampleFrac: 0.05, Seed: 7}
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
		var masked int64
		for _, rec := range res.Records() {
			if rec.Kind == Masked {
				masked++
			}
		}
		snap := col.Snapshot()
		classify, propagate := snap.Phases["classify"], snap.Phases["propagate"]
		if masked == 0 || propagate.Experiments != masked {
			t.Errorf("traced=%v: propagate experiments = %d, want the %d masked classify records",
				traced, propagate.Experiments, masked)
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
