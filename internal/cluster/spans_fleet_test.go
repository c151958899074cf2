package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ftb/internal/campaign"
	"ftb/internal/obs"
	"ftb/internal/trace"
)

// TestClusterSpansStitched runs a two-worker campaign with span tracing
// on and checks that the coordinator stitches the workers' span
// timelines into one tree — every worker span re-parented under a
// coordinator lease span and stamped with its worker's URL — without
// perturbing the merged ground truth.
func TestClusterSpansStitched(t *testing.T) {
	const name, bits = "cg", 2
	golden, err := trace.Golden(testFactory(t, name)())
	if err != nil {
		t.Fatal(err)
	}
	tol := testTolerance(t, name)
	want := gtBytes(t, inProcessGT(t, name, golden, tol, bits))

	_, w1 := startTestWorker(t, name, nil)
	_, w2 := startTestWorker(t, name, nil)
	rec := obs.NewRecorder()
	root := rec.Start(obs.CatCampaign, name, 0, -1)
	res, err := Exhaustive(Config{
		Campaign: campaign.Config{
			Golden:     golden,
			Tol:        tol,
			Bits:       bits,
			Spans:      rec,
			SpanParent: root.ID(),
			SpanSample: 1,
		},
		Workers:   []string{w1.URL, w2.URL},
		Program:   name,
		ShardSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End(0)
	if got := gtBytes(t, res.GT); !bytes.Equal(got, want) {
		t.Fatal("spans-on cluster ground truth is not byte-identical to the in-process campaign")
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("dropped %d spans", d)
	}

	spans := rec.Cut()
	byID := make(map[uint64]obs.Span, len(spans))
	counts := make(map[obs.Category]int)
	shards := make(map[string]bool)
	for _, sp := range spans {
		byID[sp.ID] = sp
		counts[sp.Cat]++
		shards[sp.Shard] = true
	}
	if counts[obs.CatLease] != res.Shards {
		t.Errorf("lease spans = %d, want one per shard (%d)", counts[obs.CatLease], res.Shards)
	}
	if counts[obs.CatPhase] != res.Shards {
		t.Errorf("phase spans = %d, want one per lease (%d)", counts[obs.CatPhase], res.Shards)
	}
	total := golden.Sites() * bits
	if counts[obs.CatExperiment] != total {
		t.Errorf("experiment spans = %d, want %d at sample 1", counts[obs.CatExperiment], total)
	}
	if !shards[w1.URL] || !shards[w2.URL] {
		t.Errorf("span shards = %v, want both worker URLs", shards)
	}
	// Every span must resolve to the root through live parents: grafting
	// may not leave dangling IDs, and worker roots must hang off leases.
	for _, sp := range spans {
		if sp.ID == root.ID() {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %d (%s %q, shard %q) has dangling parent %d", sp.ID, sp.Cat, sp.Name, sp.Shard, sp.Parent)
		}
		if sp.Shard != "" && parent.Shard == "" && parent.Cat != obs.CatLease {
			t.Fatalf("worker span %d (%s) grafted under non-lease coordinator span %d (%s)", sp.ID, sp.Cat, parent.ID, parent.Cat)
		}
	}

	// The stitched timeline attributes: lease totals present, one
	// exhaustive phase group aggregating every lease instance.
	a := obs.Attribute(spans)
	if a.Leases != res.Shards || a.LeaseNS <= 0 {
		t.Errorf("attribution leases = %d (%dns), want %d", a.Leases, a.LeaseNS, res.Shards)
	}
	if len(a.Phases) != 1 || a.Phases[0].Phase != "exhaustive" {
		t.Fatalf("attribution phases = %+v, want one exhaustive group", a.Phases)
	}
	if a.Phases[0].Samples != total {
		t.Errorf("attribution samples = %d, want %d", a.Phases[0].Samples, total)
	}
}

// TestFetchFleetWithDeadWorker polls a fleet where one worker has been
// killed (its listener closed): the live workers aggregate, the dead one
// stays visible as unreachable.
func TestFetchFleetWithDeadWorker(t *testing.T) {
	const name, bits = "cg", 1
	golden, err := trace.Golden(testFactory(t, name)())
	if err != nil {
		t.Fatal(err)
	}
	tol := testTolerance(t, name)

	_, w1 := startTestWorker(t, name, nil)
	_, w2 := startTestWorker(t, name, nil)
	_, dead := startTestWorker(t, name, nil)
	deadURL := dead.URL
	dead.Close() // the fleet-view stand-in for a SIGKILL'd worker

	if _, err := Exhaustive(Config{
		Campaign: campaign.Config{
			Golden: golden,
			Tol:    tol,
			Bits:   bits,
		},
		Workers:   []string{w1.URL, w2.URL},
		Program:   name,
		ShardSize: 64,
	}); err != nil {
		t.Fatal(err)
	}

	fleet := FetchFleet(context.Background(), []string{w1.URL, w2.URL, deadURL}, 5*time.Second)
	if len(fleet.Workers) != 3 {
		t.Fatalf("fleet workers = %d, want 3", len(fleet.Workers))
	}
	if fleet.Reachable != 2 {
		t.Errorf("reachable = %d, want 2", fleet.Reachable)
	}
	total := int64(golden.Sites() * bits)
	if fleet.Experiments != total {
		t.Errorf("fleet experiments = %d, want %d", fleet.Experiments, total)
	}
	if got := fleet.Outcomes.Masked + fleet.Outcomes.SDC + fleet.Outcomes.Crash; got != total {
		t.Errorf("fleet outcome total = %d, want %d", got, total)
	}
	for _, w := range fleet.Workers {
		if w.URL == deadURL {
			if w.Reachable || w.Error == "" {
				t.Errorf("dead worker entry = %+v, want unreachable with error", w)
			}
		} else {
			if !w.Reachable || w.Status == nil || w.Status.UptimeSeconds <= 0 {
				t.Errorf("live worker entry = %+v, want reachable status with uptime", w)
			}
			if w.Status != nil && w.Status.Info.Program != name {
				t.Errorf("worker %s program = %q", w.URL, w.Status.Info.Program)
			}
		}
	}
}

// TestWorkerObservabilityEndpoints pins the worker's /v1/telemetry and
// /metrics surfaces: decodable status JSON, Prometheus exposition with
// the ftb_build_info gauge carrying program and golden-CRC labels.
func TestWorkerObservabilityEndpoints(t *testing.T) {
	w, srv := startTestWorker(t, "cg", nil)

	resp, err := http.Get(srv.URL + pathTelemetry)
	if err != nil {
		t.Fatal(err)
	}
	var st WorkerStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Info != w.Info() || st.UptimeSeconds <= 0 || st.Telemetry == nil {
		t.Errorf("status = %+v, want worker info with uptime and telemetry", st)
	}

	resp, err = http.Get(srv.URL + pathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE ftb_build_info gauge",
		`program="cg"`,
		"golden_crc=",
		"ftb_experiments_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}
