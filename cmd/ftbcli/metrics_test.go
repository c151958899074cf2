package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ftb"
	"ftb/internal/telemetry"
)

// -update regenerates the golden files under testdata.
var update = flag.Bool("update", false, "rewrite golden files")

// normalizeSnapshot blanks the timing-dependent fields of a metrics
// snapshot, leaving exactly the deterministic accounting: campaign and
// experiment counts, outcome counters, latency observation counts, and
// per-phase aggregates. Wall-clock, histogram sums and bucket spreads,
// queue-wait counts (claim interleaving is scheduling-dependent), and
// per-worker distributions vary run to run. Within the replay counters
// the totals are deterministic but two splits depend on which worker
// claimed which batch: a rebuilt snapshot seeds from the pool or from
// the golden prefix depending on the worker's previous position (the
// pool/miss split is folded, preserving the rebuild total), and the
// per-bit converge arming adapts to the order a worker saw coordinates
// (both converge counters are blanked).
func normalizeSnapshot(s *ftb.MetricsSnapshot) {
	s.WallSeconds = 0
	s.RunLatency.SumSeconds = 0
	s.RunLatency.Buckets = nil
	s.QueueWait.Count = 0
	s.QueueWait.SumSeconds = 0
	s.QueueWait.Buckets = nil
	s.Workers = nil
	normalizeReplay(&s.Replay)
	for name, ph := range s.Phases {
		ph.WallSeconds = 0
		normalizeReplay(&ph.Replay)
		s.Phases[name] = ph
	}
	for i := range s.Sections {
		s.Sections[i].WallSeconds = 0
	}
}

// normalizeReplay folds the scheduling-dependent replay splits; see
// normalizeSnapshot.
func normalizeReplay(r *telemetry.ReplayCounts) {
	r.PrefixMisses += r.PoolHits
	r.PoolHits = 0
	r.ConvergeExits = 0
	r.StoresConvergeSkipped = 0
}

// TestCmdExhaustiveMetricsGolden pins the `exhaustive -metrics` snapshot
// for cg/test against a golden file (timing-dependent fields blanked)
// and checks the acceptance identity: the snapshot's outcome counters
// equal the campaign's ground-truth tallies exactly.
func TestCmdExhaustiveMetricsGolden(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	out := capture(t, func() error {
		return cmdExhaustive(context.Background(), []string{"-kernel", "cg", "-size", "test",
			"-workers", "2", "-metrics", path})
	})
	if !strings.Contains(out, "wrote metrics to") {
		t.Errorf("output missing metrics confirmation:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap ftb.MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}

	// Acceptance identity against an independent run of the same
	// deterministic campaign.
	an, err := ftb.NewKernelAnalysis("cg", ftb.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := an.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	overall := gt.Overall()
	if snap.Outcomes.Masked != int64(overall[ftb.Masked]) ||
		snap.Outcomes.SDC != int64(overall[ftb.SDC]) ||
		snap.Outcomes.Crash != int64(overall[ftb.Crash]) ||
		snap.Outcomes.Mismatch != 0 {
		t.Errorf("snapshot outcomes %+v != ground truth %v", snap.Outcomes, overall)
	}

	normalizeSnapshot(&snap)
	got, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "exhaustive_metrics_cg_test.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/ftbcli -run MetricsGolden -args -update)", err)
	}
	if string(got) != string(want) {
		t.Errorf("normalized metrics snapshot diverged from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCmdExhaustiveMetricsStdout checks the "-" sink: the snapshot lands
// on stdout after the campaign summary.
func TestCmdExhaustiveMetricsStdout(t *testing.T) {
	out := capture(t, func() error {
		return cmdExhaustive(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-metrics", "-"})
	})
	idx := strings.Index(out, "{")
	if idx < 0 {
		t.Fatalf("no JSON object on stdout:\n%s", out)
	}
	var snap ftb.MetricsSnapshot
	if err := json.Unmarshal([]byte(out[idx:]), &snap); err != nil {
		t.Fatalf("stdout snapshot is not valid JSON: %v\n%s", err, out[idx:])
	}
	if snap.Campaigns != 1 || snap.Experiments == 0 {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestCmdInferMetricsProm checks the Prometheus exposition path on a
// sampling command.
func TestCmdInferMetricsProm(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.prom")
	capture(t, func() error {
		return cmdInfer(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-frac", "0.1", "-metrics", path, "-metrics-format", "prom"})
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE ftb_experiments_total counter",
		`ftb_outcomes_total{outcome="masked"}`,
		`ftb_run_latency_seconds_bucket{le="+Inf"}`,
		`ftb_phase_experiments_total{phase="classify"}`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
}

func TestCmdMetricsFormatValidation(t *testing.T) {
	err := cmdExhaustive(context.Background(), []string{"-kernel", "stencil", "-size", "test",
		"-metrics", "-", "-metrics-format", "xml"})
	if err == nil || !strings.Contains(err.Error(), "metrics-format") {
		t.Errorf("bad -metrics-format accepted: %v", err)
	}
}

// TestCmdExhaustivePprofFlags checks the profile files are written and
// non-empty.
func TestCmdExhaustivePprofFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	capture(t, func() error {
		return cmdExhaustive(context.Background(), []string{"-kernel", "stencil", "-size", "test",
			"-cpuprofile", cpu, "-memprofile", mem})
	})
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// expSeed is the last seed TestCmdExpHonoursExecFlags passed to exp.
var expSeed = 200

// TestCmdExpHonoursExecFlags: exp takes its campaign options from the
// shared exec flags through Scale.RunOptions alone, so every flag routed
// there must reach its campaigns: -noreplay leaves zero replay restores
// where the default run restores from snapshots, -workers 1 leaves one
// worker in the per-worker counts, -spans explains part of the wall
// clock, -progress draws a progress line and -v logs campaign starts.
// The experiments package memoizes sampling campaigns per seed within
// one process, so each call passes a seed no other call uses (expSeed
// persists across -count repetitions) and runs its table2 campaigns
// fresh.
func TestCmdExpHonoursExecFlags(t *testing.T) {
	// A default pool larger than one worker, so a dropped -workers shows
	// even on a one-CPU machine.
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	exp := func(extra ...string) (stdout, stderr string, snap ftb.MetricsSnapshot) {
		t.Helper()
		expSeed++
		seed := expSeed
		dir := t.TempDir()
		path := filepath.Join(dir, "metrics.json")
		args := append([]string{"table2", "-size", "test", "-trials", "1", "-seed", fmt.Sprint(seed), "-metrics", path}, extra...)
		errFile, err := os.Create(filepath.Join(dir, "stderr"))
		if err != nil {
			t.Fatal(err)
		}
		oldErr := os.Stderr
		os.Stderr = errFile
		stdout = capture(t, func() error { return cmdExp(context.Background(), args) })
		os.Stderr = oldErr
		errFile.Close()
		errBytes, err := os.ReadFile(errFile.Name())
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Phases["classify"].Experiments == 0 {
			t.Fatalf("exp %v ran no classify experiments; the check would be vacuous", extra)
		}
		return stdout, string(errBytes), snap
	}
	restores := func(snap ftb.MetricsSnapshot) int64 {
		r := snap.Replay
		return r.Tier1Hits + r.Tier2Hits + r.PoolHits + r.PrefixMisses
	}

	if _, _, snap := exp("-noreplay"); restores(snap) != 0 {
		t.Errorf("exp -noreplay restored %d times, want 0", restores(snap))
	}
	_, stderr, snap := exp()
	if restores(snap) == 0 {
		t.Error("default exp run restored nothing")
	}
	if strings.Contains(stderr, "campaign start") || strings.Contains(stderr, "classify ") {
		t.Errorf("default exp run wrote progress or debug records to stderr:\n%s", stderr)
	}

	if _, _, snap := exp("-workers", "1"); len(snap.Workers) != 1 {
		t.Errorf("exp -workers 1: per-worker counts %+v, want exactly one worker", snap.Workers)
	}

	stdout, _, _ := exp("-spans")
	m := regexp.MustCompile(`spans explain ([0-9.]+)% of worker time`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("exp -spans printed no attribution table:\n%s", stdout)
	}
	if pct, err := strconv.ParseFloat(m[1], 64); err != nil || pct <= 0 {
		t.Errorf("exp -spans: spans explain %s%%, want more than 0%%", m[1])
	}

	if _, stderr, _ := exp("-progress"); !regexp.MustCompile(`classify \d+/\d+`).MatchString(stderr) {
		t.Errorf("exp -progress drew no progress line on stderr:\n%s", stderr)
	}
	if _, stderr, _ := exp("-v"); !strings.Contains(stderr, "campaign start") {
		t.Errorf("exp -v logged no campaign start record on stderr:\n%s", stderr)
	}
}
