package boundary_test

import (
	"fmt"
	"math"
	"testing"

	"ftb/internal/boundary"
	"ftb/internal/campaign"
	"ftb/internal/kernels"
	"ftb/internal/outcome"
	"ftb/internal/randprog"
	"ftb/internal/rng"
	"ftb/internal/sampling"
	"ftb/internal/trace"
)

// reference is Algorithm 1 and the §3.5 filter written out plainly, the
// oracle the one-pass Absorb is checked against. Each round classifies
// every pair from the program entry, with no replay and no run sink,
// lowers the SDC floors from the records, then re-runs every masked
// pair in diff mode and folds its deltas: unfiltered, and filtered by
// the round's final floors.
type reference struct {
	golden     *trace.GoldenRun
	factory    func() trace.Program
	tol        float64
	thresholds []float64
	filtered   []float64
	info       []int64
	minSDC     []float64
	reachSum   []int64
	reachRuns  []int64
}

func newReference(cfg campaign.Config) *reference {
	n := cfg.Golden.Sites()
	r := &reference{
		golden:     cfg.Golden,
		factory:    cfg.Factory,
		tol:        cfg.Tol,
		thresholds: make([]float64, n),
		filtered:   make([]float64, n),
		info:       make([]int64, n),
		minSDC:     make([]float64, n),
		reachSum:   make([]int64, n),
		reachRuns:  make([]int64, n),
	}
	for i := range r.minSDC {
		r.minSDC[i] = math.Inf(1)
	}
	return r
}

// significant restates the relative-error test of the paper's Figure 4
// row 2: above boundary.SignificanceRel relative to the golden value,
// or absolute where that value is zero.
func significant(g, d float64) bool {
	if d == 0 {
		return false
	}
	if ag := math.Abs(g); ag >= math.SmallestNonzeroFloat64 {
		return d/ag > boundary.SignificanceRel
	}
	return d > boundary.SignificanceRel
}

// deltas keeps one diff run's per-site deltas.
type deltas []float64

func (d deltas) Observe(site int, _, delta float64) { d[site] = delta }

func (r *reference) round(pairs []campaign.Pair) []campaign.Record {
	p := r.factory()
	var ctx trace.Ctx
	recs := make([]campaign.Record, len(pairs))
	for i, pair := range pairs {
		recs[i] = campaign.RunPair(&ctx, p, r.golden, r.tol, pair)
		rec := recs[i]
		if rec.Kind == outcome.SDC && rec.InjErr < r.minSDC[rec.Site] {
			r.minSDC[rec.Site] = rec.InjErr
		}
		if significant(r.golden.Trace[rec.Site], rec.InjErr) {
			r.info[rec.Site]++
		}
	}
	d := make(deltas, r.golden.Sites())
	for _, rec := range recs {
		if rec.Kind != outcome.Masked {
			continue
		}
		clear(d)
		res, err := trace.Run(&ctx, p, r.golden, trace.Plan{Site: rec.Site, Bit: uint(rec.Bit), Sink: d})
		if err != nil {
			panic(err)
		}
		if k := outcome.Classify(r.golden.Output, res.Output, r.tol, res.Crashed); k != outcome.Masked {
			panic(fmt.Sprintf("pair %v: diff run %v, plain run masked", rec.Pair, k))
		}
		var reach int64
		for j, dj := range d {
			if dj == 0 {
				continue
			}
			if significant(r.golden.Trace[j], dj) {
				r.info[j]++
				if j != rec.Site {
					reach++
				}
			}
			r.thresholds[j] = max(r.thresholds[j], dj)
			if dj <= r.minSDC[j] {
				r.filtered[j] = max(r.filtered[j], dj)
			}
		}
		r.reachSum[rec.Site] += reach
		r.reachRuns[rec.Site]++
	}
	return recs
}

// sameBits reports whether two float64 slices agree bit for bit.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// compare fails t where the fused builder's state differs from the
// reference, and returns how many sites the filter changes.
func (r *reference) compare(t *testing.T, b *boundary.Builder) int {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"unfiltered", b.FinalizeFilter(false).Thresholds, r.thresholds},
		{"filtered", b.FinalizeFilter(true).Thresholds, r.filtered},
		{"minSDC", b.MinSDC(), r.minSDC},
	} {
		if i, ok := sameBits(c.got, c.want); !ok {
			t.Fatalf("%s[%d] = %g, reference %g", c.name, i, c.got[i], c.want[i])
		}
	}
	reach := b.MeanReach()
	for j := range r.info {
		if b.Info()[j] != r.info[j] {
			t.Fatalf("info[%d] = %d, reference %d", j, b.Info()[j], r.info[j])
		}
		want := 0.0
		if r.reachRuns[j] > 0 {
			want = float64(r.reachSum[j]) / float64(r.reachRuns[j])
		}
		if math.Float64bits(reach[j]) != math.Float64bits(want) {
			t.Fatalf("reach[%d] = %g, reference %g", j, reach[j], want)
		}
	}
	differs := 0
	for j := range r.thresholds {
		if r.thresholds[j] != r.filtered[j] {
			differs++
		}
	}
	return differs
}

// sameRecords fails t unless the fused pass classified every pair as
// the reference did.
func sameRecords(t *testing.T, got, want []campaign.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Pair != w.Pair || g.Kind != w.Kind ||
			math.Float64bits(g.InjErr) != math.Float64bits(w.InjErr) ||
			math.Float64bits(g.OutErr) != math.Float64bits(w.OutErr) {
			t.Fatalf("record %d = %+v, reference %+v", i, g, w)
		}
	}
}

// kernelCampaign is the replayed, two-worker campaign configuration the
// paper pipeline runs a kernel with.
func kernelCampaign(t *testing.T, name, size string) campaign.Config {
	t.Helper()
	k, err := kernels.New(name, size)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	return campaign.Config{
		Factory: func() trace.Program {
			kk, err := kernels.New(name, size)
			if err != nil {
				panic(err)
			}
			return kk
		},
		Golden:  golden,
		Tol:     k.Tolerance(),
		Width:   k.Width(),
		Workers: 2,
		Replay:  true,
	}
}

// TestFusedBuildMatchesReference: one fused Build over a 1% uniform
// sample equals the plain two-pass reference bit for bit, on the paper's
// evaluation kernels at paper size.
func TestFusedBuildMatchesReference(t *testing.T) {
	for _, name := range []string{"cg", "lu", "fft"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := kernelCampaign(t, name, kernels.SizePaper)
			sites := cfg.Golden.Sites()
			for seed := uint64(1); seed <= 3; seed++ {
				pairs := sampling.Uniform(rng.New(seed), sites, cfg.Width, sites*cfg.Width/100)
				known := boundary.NewKnown(sites, cfg.Width)
				b, recs, err := boundary.Build(cfg, pairs, boundary.BuildOptions{Filter: true, Known: known})
				if err != nil {
					t.Fatal(err)
				}
				ref := newReference(cfg)
				sameRecords(t, recs, ref.round(pairs))
				differs := ref.compare(t, b)
				if name == "cg" && differs == 0 {
					t.Errorf("seed %d: the filter changed no cg site; the filtered fold went unchecked", seed)
				}
				for _, rec := range recs {
					if k, ok := known.Get(rec.Site, rec.Bit); !ok || k != rec.Kind {
						t.Fatalf("seed %d: known %v, %v at %v; record %v", seed, k, ok, rec.Pair, rec.Kind)
					}
				}
			}
		})
	}
}

// TestFusedAbsorbRoundsMatchReference: floors learned in earlier rounds
// filter later rounds' deltas, and each round's new floors filter its
// own. Four Absorb rounds must equal four reference rounds after every
// round.
func TestFusedAbsorbRoundsMatchReference(t *testing.T) {
	cfg := kernelCampaign(t, "cg", kernels.SizeSmall)
	sites := cfg.Golden.Sites()
	b := boundary.NewBuilder(cfg.Golden, true)
	ref := newReference(cfg)
	r := rng.New(11)
	differs := 0
	for round := 0; round < 4; round++ {
		pairs := sampling.Uniform(r.Split(), sites, cfg.Width, sites*cfg.Width/50)
		recs, err := b.Absorb(cfg, pairs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, recs, ref.round(pairs))
		differs = ref.compare(t, b)
	}
	if differs == 0 {
		t.Error("the filter changed no site; the filtered fold went unchecked")
	}
}

// TestFusedBuildMatchesReferenceOnRandomPrograms runs the same
// differential check over generated programs, in one and in several
// rounds.
func TestFusedBuildMatchesReferenceOnRandomPrograms(t *testing.T) {
	differs := 0
	for seed := uint64(1); seed <= 16; seed++ {
		const sites = 120
		outs := 1 + int(seed%2)*3
		newProg := func() trace.Program {
			p, err := randprog.New(randprog.Config{Sites: sites, Seed: seed, Outputs: outs})
			if err != nil {
				panic(err)
			}
			return p
		}
		golden, err := trace.Golden(newProg())
		if err != nil {
			t.Fatal(err)
		}
		cfg := campaign.Config{Factory: newProg, Golden: golden, Tol: 1e-3, Workers: 2}
		b := boundary.NewBuilder(golden, true)
		ref := newReference(cfg)
		r := rng.New(seed)
		for round := 0; round < 3; round++ {
			pairs := sampling.Uniform(r.Split(), sites, 64, sites*64/3)
			recs, err := b.Absorb(cfg, pairs, nil)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			sameRecords(t, recs, ref.round(pairs))
			differs += ref.compare(t, b)
		}
	}
	if differs == 0 {
		t.Error("the filter changed no site of any program; the filtered fold went unchecked")
	}
}
