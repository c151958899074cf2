package campaign

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"ftb/internal/proptrace"
	"ftb/internal/telemetry"
	"ftb/internal/trace"
)

// tracedConfig attaches a shared trajectory buffer to a chain campaign:
// each worker gets its own recorder (tracers are single-owner) but all
// trajectories land in one mutex-protected buffer.
func tracedConfig(n int, workers int, buf *proptrace.Buffer) Config {
	cfg := chainConfig(n, 1e-9, workers)
	cfg.Sink = func(worker int) RunSink {
		return proptrace.NewRecorder(buf, proptrace.Options{
			Program:       "chain",
			ExpectedSites: cfg.Golden.Sites(),
		})
	}
	return cfg
}

// TestRunPairsTracedMatchesUntraced checks the tentpole invariant: a
// traced campaign classifies identically to an untraced one, and records
// exactly one trajectory per experiment, tagged with its run index.
func TestRunPairsTracedMatchesUntraced(t *testing.T) {
	const n = 12
	pairs := AllPairs(n, 8)
	plain, err := RunPairs(chainConfig(n, 1e-9, 3), pairs)
	if err != nil {
		t.Fatal(err)
	}
	buf := proptrace.NewBuffer()
	traced, err := RunPairs(tracedConfig(n, 3, buf), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain) {
		t.Fatalf("record counts: %d vs %d", len(traced), len(plain))
	}
	for i := range plain {
		if traced[i] != plain[i] {
			t.Errorf("record %d differs: traced %+v, plain %+v", i, traced[i], plain[i])
		}
	}
	ts := buf.Trajectories()
	if len(ts) != len(pairs) {
		t.Fatalf("%d trajectories for %d experiments", len(ts), len(pairs))
	}
	for i, tr := range ts {
		// Buffer sorts by run; run ids are the experiment indices.
		if tr.Run != i {
			t.Fatalf("trajectory %d has run %d", i, tr.Run)
		}
		if tr.Site != pairs[i].Site || tr.Bit != pairs[i].Bit {
			t.Errorf("trajectory %d coordinates (%d,%d), want (%d,%d)",
				i, tr.Site, tr.Bit, pairs[i].Site, pairs[i].Bit)
		}
		if tr.Outcome != plain[i].Kind.String() {
			t.Errorf("trajectory %d outcome %q, want %q", i, tr.Outcome, plain[i].Kind)
		}
		if tr.Program != "chain" {
			t.Errorf("trajectory %d program %q", i, tr.Program)
		}
	}
}

// TestExhaustiveTracedMatchesPlain runs the exhaustive campaign traced
// and checks both the ground truth and the trajectory tagging, including
// crash runs (sign-exponent flips on the chain overflow to +Inf).
func TestExhaustiveTracedMatchesPlain(t *testing.T) {
	cfg := chainConfig(10, 1e-9, 4)
	want, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := proptrace.NewBuffer()
	got, err := Exhaustive(tracedConfig(10, 4, buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Kinds {
		if got.Kinds[i] != want.Kinds[i] {
			t.Fatalf("kind[%d]: traced %v, plain %v", i, got.Kinds[i], want.Kinds[i])
		}
	}
	ts := buf.Trajectories()
	if len(ts) != len(want.Kinds) {
		t.Fatalf("%d trajectories for %d experiments", len(ts), len(want.Kinds))
	}
	for i, tr := range ts {
		if tr.Run != i {
			t.Fatalf("trajectory %d has run %d", i, tr.Run)
		}
		pair := PairAt(i, want.BitsN)
		if tr.Site != pair.Site || tr.Bit != pair.Bit {
			t.Fatalf("trajectory %d coordinates (%d,%d), want %+v", i, tr.Site, tr.Bit, pair)
		}
		if tr.Outcome != want.Kinds[i].String() {
			t.Errorf("trajectory %d outcome %q, want %q", i, tr.Outcome, want.Kinds[i])
		}
		if (tr.Outcome == "crash") != (tr.CrashSite >= 0) {
			t.Errorf("trajectory %d: outcome %q with crash site %d", i, tr.Outcome, tr.CrashSite)
		}
	}
}

// TestExhaustiveCheckpointedTracedRunIDs checks that a resumed campaign
// tags trajectories with absolute experiment indices, so traces from the
// two halves of an interrupted campaign line up, across every gap.
func TestExhaustiveCheckpointedTracedRunIDs(t *testing.T) {
	cfg := tracedConfig(8, 2, proptrace.NewBuffer())
	prior, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := []Range{{Lo: 64, Hi: 3 * 64}, {Lo: 5 * 64, Hi: 6*64 + 10}}
	buf := proptrace.NewBuffer()
	cfg = tracedConfig(8, 2, buf)
	if _, err := ExhaustiveResume(cfg, prior, done, nil); err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, 8*64)
	for _, r := range done {
		for i := r.Lo; i < r.Hi; i++ {
			covered[i] = true
		}
	}
	var wantRuns []int
	for i, c := range covered {
		if !c {
			wantRuns = append(wantRuns, i)
		}
	}
	ts := buf.Trajectories()
	if len(ts) != len(wantRuns) {
		t.Fatalf("%d trajectories, want %d", len(ts), len(wantRuns))
	}
	for i, tr := range ts {
		if tr.Run != wantRuns[i] {
			t.Fatalf("trajectory %d has run %d, want %d", i, tr.Run, wantRuns[i])
		}
		pair := PairAt(tr.Run, 64)
		if tr.Site != pair.Site || tr.Bit != pair.Bit {
			t.Fatalf("trajectory run %d coordinates (%d,%d), want %+v", tr.Run, tr.Site, tr.Bit, pair)
		}
	}
}

// TestTracedTelemetry checks the trajectory counter: runs a trajectory
// recorder saw count; untraced runs and runs into other sinks do not.
func TestTracedTelemetry(t *testing.T) {
	col := telemetry.New()
	pairs := AllPairs(6, 4)

	cfg := tracedConfig(6, 2, proptrace.NewBuffer())
	cfg.Collector = col
	if _, err := RunPairs(cfg, pairs); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if snap.Trajectories != int64(len(pairs)) {
		t.Errorf("Trajectories = %d, want %d", snap.Trajectories, len(pairs))
	}
	if ph := snap.Phases["classify"]; ph.Trajectories != int64(len(pairs)) {
		t.Errorf("classify trajectories = %d, want %d", ph.Trajectories, len(pairs))
	}

	// An untraced campaign on the same collector adds experiments but no
	// trajectories.
	cfg2 := chainConfig(6, 1e-9, 2)
	cfg2.Collector = col
	if _, err := RunPairs(cfg2, pairs); err != nil {
		t.Fatal(err)
	}
	// A pass whose sinks record no trajectories (like boundary
	// inference's fold) streams every run but counts none.
	cfg3 := chainConfig(6, 1e-9, 2)
	cfg3.Collector = col
	runCollected(t, cfg3, pairs)
	snap = col.Snapshot()
	if snap.Trajectories != int64(len(pairs)) {
		t.Errorf("after untraced runs Trajectories = %d, want %d", snap.Trajectories, len(pairs))
	}
	if snap.Experiments != int64(3*len(pairs)) {
		t.Errorf("Experiments = %d, want %d", snap.Experiments, 3*len(pairs))
	}

	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "ftb_trajectories_total 24") {
		t.Errorf("prom exposition missing trajectory counter:\n%s", prom.String())
	}
}

// TestEngineEventLog checks the structured event log: lifecycle records
// at Debug on success, a Warn on a trace mismatch.
func TestEngineEventLog(t *testing.T) {
	var log bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&log, &slog.HandlerOptions{Level: slog.LevelDebug}))

	cfg := chainConfig(4, 1e-9, 2)
	cfg.Logger = logger
	if _, err := RunPairs(cfg, AllPairs(4, 2)); err != nil {
		t.Fatal(err)
	}
	out := log.String()
	for _, want := range []string{"campaign start", "campaign stop", "phase=classify", "traced=false"} {
		if !strings.Contains(out, want) {
			t.Errorf("event log missing %q:\n%s", want, out)
		}
	}

	// A non-data-oblivious factory must produce a Warn-level mismatch
	// event before the campaign aborts.
	log.Reset()
	calls := 0
	cfg.Factory = func() trace.Program {
		calls++
		return &chainProg{n: 3} // shorter trace than the golden run
	}
	if _, err := RunPairs(cfg, AllPairs(3, 2)); err == nil {
		t.Fatal("mismatching factory did not fail")
	}
	out = log.String()
	if !strings.Contains(out, "level=WARN") || !strings.Contains(out, "trace mismatch") {
		t.Errorf("no mismatch warning in event log:\n%s", out)
	}
}

// TestTracedNilWorkerTracer checks that a sink factory returning nil
// leaves that worker sinkless without breaking the campaign.
func TestTracedNilWorkerTracer(t *testing.T) {
	cfg := chainConfig(6, 1e-9, 2)
	cfg.Sink = func(worker int) RunSink { return nil }
	recs, err := RunPairs(cfg, AllPairs(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 24 {
		t.Fatalf("got %d records", len(recs))
	}
}
