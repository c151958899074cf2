package cluster

import (
	"bytes"
	"testing"

	"ftb/internal/bits"
	"ftb/internal/campaign"
	"ftb/internal/trace"
)

// TestClusterFaultModelMatchesInProcess: a clustered campaign under a
// non-default fault model merges byte-identically to the in-process
// engine running the same model.
func TestClusterFaultModelMatchesInProcess(t *testing.T) {
	const name = "cg"
	model := bits.FaultModel{Kind: bits.FaultBurstFlip, Region: bits.RegionExponent, K: 2}
	golden, err := trace.Golden(testFactory(t, name)())
	if err != nil {
		t.Fatal(err)
	}
	tol := testTolerance(t, name)
	ref, err := campaign.Exhaustive(campaign.Config{
		Factory: testFactory(t, name),
		Golden:  golden,
		Tol:     tol,
		Model:   model,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.BitsN != 11 {
		t.Fatalf("BitsN = %d, want 11 (exponent population)", ref.BitsN)
	}
	want := gtBytes(t, ref)

	_, w1 := startTestWorker(t, name, nil)
	_, w2 := startTestWorker(t, name, nil)
	res, err := Exhaustive(Config{
		Campaign: campaign.Config{
			Golden: golden,
			Tol:    tol,
			Model:  model,
		},
		Workers:   []string{w1.URL, w2.URL},
		Program:   name,
		ShardSize: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gtBytes(t, res.GT), want) {
		t.Fatal("clustered fault-model ground truth is not byte-identical to in-process")
	}
	if res.Frontier != golden.Sites()*11 {
		t.Errorf("Frontier = %d, want %d", res.Frontier, golden.Sites()*11)
	}
}

// TestWorkerRejectsBadFaultModel: malformed or width-incompatible fault
// strings are rejected before any execution.
func TestWorkerRejectsBadFaultModel(t *testing.T) {
	golden, err := trace.Golden(testFactory(t, "cg")())
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startTestWorker(t, "cg", nil)
	base := Config{
		Campaign: campaign.Config{
			Golden: golden,
			Tol:    testTolerance(t, "cg"),
		},
		Workers: []string{srv.URL},
	}

	bad := base
	bad.Campaign.Model = bits.FaultModel{Kind: bits.FaultMultiFlip, Region: bits.RegionSign, K: 2}
	if _, err := Exhaustive(bad); err == nil {
		t.Fatal("coordinator accepted an over-arity fault model")
	}

	// A request with a fault string the worker cannot parse must be
	// rejected by the worker (not silently run as a default flip).
	wc := &workerClient{url: srv.URL, client: srv.Client()}
	if _, err := wc.run(t.Context(), runRequest{
		Lease: "l1", Lo: 0, Hi: 4, Bits: 64, Width: 64,
		Tol: base.Campaign.Tol, GoldenCRC: GoldenCRC(golden), Fault: "nonsense",
	}); err == nil {
		t.Fatal("worker accepted an unparseable fault model")
	}
}
