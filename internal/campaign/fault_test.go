package campaign

import (
	"slices"
	"testing"

	"ftb/internal/bits"
	"ftb/internal/kernels"
	"ftb/internal/trace"
)

func kernelConfig(t *testing.T, name string, m bits.FaultModel) Config {
	t.Helper()
	k, err := kernels.New(name, kernels.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Factory: func() trace.Program {
			kk, err := kernels.New(name, kernels.SizeTest)
			if err != nil {
				panic(err)
			}
			return kk
		},
		Golden: golden,
		Tol:    k.Tolerance(),
		Width:  k.Width(),
		Model:  m,
	}
}

// TestFaultModelCampaignDeterministic: ground truth under a non-default
// fault model is byte-identical across worker counts and replay on/off — the same invariant the single-flip campaign guarantees.
func TestFaultModelCampaignDeterministic(t *testing.T) {
	model := bits.FaultModel{Kind: bits.FaultBurstFlip, K: 3}
	base := kernelConfig(t, "stencil", model)
	ref, err := Exhaustive(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.BitsN != 64 {
		t.Fatalf("BitsN = %d, want full 64-coordinate population", ref.BitsN)
	}
	want := ref.Kinds

	for _, v := range []struct {
		name    string
		workers int
		replay  bool
	}{
		{"workers4", 4, false},
		{"workers7", 7, false},
		{"replay", 3, true},
	} {
		cfg := base
		cfg.Workers = v.workers
		cfg.Replay = v.replay
		gt, err := Exhaustive(cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !slices.Equal(gt.Kinds, want) {
			t.Fatalf("%s: burst-model ground truth differs", v.name)
		}
	}
}

// TestFaultModelRegionCampaign: an exponent-only campaign probes exactly
// the exponent population and matches per-experiment re-runs.
func TestFaultModelRegionCampaign(t *testing.T) {
	model := bits.FaultModel{Region: bits.RegionExponent}
	cfg := kernelConfig(t, "cg", model)
	gt, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gt.BitsN != 11 {
		t.Fatalf("BitsN = %d, want 11 (exponent population)", gt.BitsN)
	}
	// Spot-check a handful of experiments against direct single runs.
	p := cfg.Factory()
	var ctx trace.Ctx
	ctx.SetFaultModel(model)
	for _, pair := range []Pair{{Site: 0, Bit: 0}, {Site: 3, Bit: 10}, {Site: gt.SitesN - 1, Bit: 5}} {
		rec := RunPair(&ctx, p, cfg.Golden, cfg.Tol, pair)
		if got := gt.At(pair.Site, pair.Bit); got != rec.Kind {
			t.Errorf("gt.At(%d,%d) = %v, direct run = %v", pair.Site, pair.Bit, got, rec.Kind)
		}
	}
}

// TestFaultModelPairsValidated: coordinates outside the model population
// are rejected up front.
func TestFaultModelPairsValidated(t *testing.T) {
	cfg := kernelConfig(t, "cg", bits.FaultModel{Region: bits.RegionExponent})
	if _, err := RunPairs(cfg, []Pair{{Site: 0, Bit: 11}}); err == nil {
		t.Fatal("coordinate 11 accepted against an 11-coordinate population")
	}
	bad := cfg
	bad.Model = bits.FaultModel{Kind: bits.FaultMultiFlip, Region: bits.RegionSign, K: 2}
	if _, err := Exhaustive(bad); err == nil {
		t.Fatal("multi-flip arity above region population accepted")
	}
}
