package campaign_test

import (
	"fmt"
	"math"
	"testing"

	"ftb/internal/boundary"
	"ftb/internal/campaign"
	"ftb/internal/kernels"
	"ftb/internal/rng"
	"ftb/internal/telemetry"
	"ftb/internal/trace"
)

// TestReplayMatrixByteIdentical is the tentpole's correctness bar: for
// every registered kernel — both element widths, crash-heavy kernels
// (cholesky's sqrt of corrupted negatives) included — an exhaustive
// campaign with checkpointed replay must produce a ground truth
// byte-identical to the vanilla full-execution campaign.
func TestReplayMatrixByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel matrix in -short mode")
	}
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, err := kernels.New(name, kernels.SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := trace.Golden(k)
			if err != nil {
				t.Fatal(err)
			}
			base := campaign.Config{
				Factory: func() trace.Program {
					kk, err := kernels.New(name, kernels.SizeTest)
					if err != nil {
						panic(err)
					}
					return kk
				},
				Golden:  golden,
				Tol:     k.Tolerance(),
				Width:   k.Width(),
				Workers: 2,
			}
			vanilla := base
			want, err := campaign.Exhaustive(vanilla)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Replay = true
			got, err := campaign.Exhaustive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Kinds) != len(want.Kinds) {
				t.Fatalf("%d records, want %d", len(got.Kinds), len(want.Kinds))
			}
			for i := range want.Kinds {
				if got.Kinds[i] != want.Kinds[i] {
					t.Fatalf("record %d (site %d, bit %d) = %v, want %v",
						i, i/cfg.Width, i%cfg.Width, got.Kinds[i], want.Kinds[i])
				}
			}
		})
	}
}

// snapOnly exposes a kernel as a plain trace.Snapshotter: the replay
// cache keeps only its head snapshot (no pool, no converge exit, no
// delta restore).
type snapOnly struct{ trace.Snapshotter }

// multiOnly exposes a kernel as a trace.MultiSnapshotter without
// StateComparer or DeltaSnapshotter: the cache pools golden snapshots
// but never arms the converge exit and always restores in full.
type multiOnly struct{ trace.MultiSnapshotter }

// TestReplayFeatureTogglesByteIdentical walks the replay cache's
// capability-driven paths — snapshot pool, reconvergence early exit,
// delta restore — by hiding kernel capabilities behind wrappers, over
// the delta-restore kernels at both element widths (stencil is float64,
// stencil32 float32) plus a dense non-delta kernel, and requires every
// combination to reproduce the vanilla ground truth byte for byte. Each
// capability changes only where a prefix comes from or when a run is
// allowed to stop early, never what gets classified. Boundary inference
// is held to the same bar: a seeded inference must merge into the same
// boundary.Builder state (thresholds, information counts, reach) as
// without replay. Each wrapper must also keep its hidden paths silent in
// the replay telemetry.
func TestReplayFeatureTogglesByteIdentical(t *testing.T) {
	toggles := []struct {
		name string
		wrap func(trace.Program) trace.Program
		// off sums the replay counters the wrapper must leave at zero.
		off func(telemetry.ReplayCounts) int64
	}{
		{"default", func(p trace.Program) trace.Program { return p },
			func(r telemetry.ReplayCounts) int64 { return r.Tier1Hits }},
		{"snapshotter", func(p trace.Program) trace.Program { return snapOnly{p.(trace.Snapshotter)} },
			func(r telemetry.ReplayCounts) int64 {
				return r.Tier1Hits + r.PoolHits + r.ConvergeExits + r.DeltaRestores
			}},
		{"multi-no-compare", func(p trace.Program) trace.Program { return multiOnly{p.(trace.MultiSnapshotter)} },
			func(r telemetry.ReplayCounts) int64 { return r.Tier1Hits + r.ConvergeExits + r.DeltaRestores }},
	}
	for _, name := range []string{"stencil", "stencil32", "cg"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := kernelConfig(t, name, 2)
			base.Replay = false
			want, err := campaign.Exhaustive(base)
			if err != nil {
				t.Fatal(err)
			}
			sample := rng.New(7).SampleK(len(want.Kinds), len(want.Kinds)/20)
			pairs := make([]campaign.Pair, len(sample))
			for i, idx := range sample {
				pairs[i] = campaign.PairAt(idx, base.Width)
			}
			wantB := inferState(t, base, pairs)
			for _, tg := range toggles {
				cfg := kernelConfig(t, name, 2)
				factory, wrap := cfg.Factory, tg.wrap
				cfg.Factory = func() trace.Program { return wrap(factory()) }
				cfg.Collector = telemetry.New()
				got, err := campaign.Exhaustive(cfg)
				if err != nil {
					t.Fatalf("%s: %v", tg.name, err)
				}
				if r := cfg.Collector.Snapshot().Replay; tg.off(r) != 0 {
					t.Fatalf("%s: hidden replay path ran: %+v", tg.name, r)
				}
				for i := range want.Kinds {
					if got.Kinds[i] != want.Kinds[i] {
						t.Fatalf("%s: record %d (site %d, bit %d) = %v, want %v",
							tg.name, i, i/cfg.Width, i%cfg.Width, got.Kinds[i], want.Kinds[i])
					}
				}
				if msg := wantB.diff(inferState(t, cfg, pairs)); msg != "" {
					t.Fatalf("%s: inference: %s", tg.name, msg)
				}
			}
		})
	}
}

// builderState is the merged boundary.Builder state an inference
// produces.
type builderState struct {
	thresholds, reach []float64
	info              []int64
}

// inferState runs one inference round with the §3.5 filter on and
// returns the merged builder state.
func inferState(t *testing.T, cfg campaign.Config, pairs []campaign.Pair) builderState {
	t.Helper()
	b, _, err := boundary.Build(cfg, pairs, boundary.BuildOptions{Filter: true})
	if err != nil {
		t.Fatal(err)
	}
	info := append([]int64(nil), b.Info()...)
	return builderState{thresholds: b.Finalize().Thresholds, reach: b.MeanReach(), info: info}
}

// diff describes the first bitwise difference from got, or "".
func (w builderState) diff(got builderState) string {
	for i := range w.thresholds {
		if math.Float64bits(got.thresholds[i]) != math.Float64bits(w.thresholds[i]) {
			return fmt.Sprintf("threshold[%d] = %g, want %g", i, got.thresholds[i], w.thresholds[i])
		}
		if got.info[i] != w.info[i] {
			return fmt.Sprintf("info[%d] = %d, want %d", i, got.info[i], w.info[i])
		}
		if math.Float64bits(got.reach[i]) != math.Float64bits(w.reach[i]) {
			return fmt.Sprintf("reach[%d] = %g, want %g", i, got.reach[i], w.reach[i])
		}
	}
	return ""
}

// plainProg is a program that deliberately does NOT implement
// trace.Snapshotter, to pin the transparent-fallback contract.
type plainProg struct {
	inputs []float64
}

func (p *plainProg) Name() string { return "plain" }

func (p *plainProg) Run(ctx *trace.Ctx) []float64 {
	s := 0.0
	for _, v := range p.inputs {
		v = ctx.Store(v)
		s = ctx.Store(s + v)
	}
	return []float64{s}
}

// TestReplayFallbackNonSnapshotter checks that Replay on a program
// without Snapshot/Restore silently runs the vanilla path — same
// records, zero replay telemetry.
func TestReplayFallbackNonSnapshotter(t *testing.T) {
	mk := func() trace.Program { return &plainProg{inputs: []float64{1, 2, 3, 4, 5}} }
	golden, err := trace.Golden(mk())
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	cfg := campaign.Config{
		Factory:   mk,
		Golden:    golden,
		Tol:       1e-12,
		Workers:   2,
		Replay:    true,
		Collector: col,
	}
	got, err := campaign.Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Exhaustive(campaign.Config{Factory: mk, Golden: golden, Tol: 1e-12, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Kinds {
		if got.Kinds[i] != want.Kinds[i] {
			t.Fatalf("record %d = %v, want %v", i, got.Kinds[i], want.Kinds[i])
		}
	}
	snap := col.Snapshot()
	if snap.Replay.SnapshotHits != 0 || snap.Replay.SnapshotMisses != 0 || snap.Replay.StoresSkipped != 0 {
		t.Errorf("fallback campaign recorded replay activity: %+v", snap.Replay)
	}
}

// TestReplayTelemetryCounts pins the counter arithmetic for the densest
// policy (every=1, per-site snapshots): each site past the first costs
// exactly one snapshot rebuild — seeded from the boundary pool or the
// golden prefix, the split is scheduling-dependent but the total is not —
// and serves its remaining flips from the second-tier (per-site) cache.
// The skipped-store total is the sum of every experiment's prefix length.
func TestReplayTelemetryCounts(t *testing.T) {
	k, err := kernels.New("matmul", kernels.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	const bitsN = 16
	col := telemetry.New()
	_, err = campaign.Exhaustive(campaign.Config{
		Factory: func() trace.Program {
			kk, err := kernels.New("matmul", kernels.SizeTest)
			if err != nil {
				panic(err)
			}
			return kk
		},
		Golden:    golden,
		Tol:       k.Tolerance(),
		Bits:      bitsN,
		Workers:   3,
		Replay:    true,
		Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := int64(golden.Sites())
	snap := col.Snapshot()
	wantMisses := sites - 1 // site 0 resumes from nothing; every other site extends once
	wantHits := (sites - 1) * (bitsN - 1)
	wantSkipped := bitsN * sites * (sites - 1) / 2
	if snap.Replay.SnapshotMisses != wantMisses {
		t.Errorf("misses = %d, want %d", snap.Replay.SnapshotMisses, wantMisses)
	}
	if snap.Replay.SnapshotHits != wantHits {
		t.Errorf("hits = %d, want %d", snap.Replay.SnapshotHits, wantHits)
	}
	if snap.Replay.StoresSkipped != wantSkipped {
		t.Errorf("stores skipped = %d, want %d", snap.Replay.StoresSkipped, wantSkipped)
	}
	// Tier decomposition: with per-site snapshots on (the default) every
	// cache hit is a second-tier hit, and the coarse hits/misses are
	// exactly the sums of their fine-grained buckets.
	if snap.Replay.Tier2Hits != wantHits || snap.Replay.Tier1Hits != 0 {
		t.Errorf("tier hits = %d/%d, want %d second-tier and 0 boundary",
			snap.Replay.Tier1Hits, snap.Replay.Tier2Hits, wantHits)
	}
	if got := snap.Replay.PoolHits + snap.Replay.PrefixMisses; got != wantMisses {
		t.Errorf("pool + prefix rebuilds = %d, want %d", got, wantMisses)
	}
	if snap.Replay.DeltaRestores != 0 {
		t.Errorf("delta restores = %d on a kernel without RestoreDelta", snap.Replay.DeltaRestores)
	}
}
