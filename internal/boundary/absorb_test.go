package boundary_test

import (
	"context"
	"errors"
	"math"
	"strings"
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

// mismatchAfter wraps a program so that every run after the first
// `after` on an instance stores one value more than the golden run: the
// campaign then fails with trace.ErrTraceMismatch part-way through.
type mismatchAfter struct {
	trace.Program
	after, runs int
}

func (p *mismatchAfter) Run(ctx *trace.Ctx) []float64 {
	out := p.Program.Run(ctx)
	if p.runs++; p.runs > p.after {
		ctx.Store(0)
	}
	return out
}

// sameKnown fails t unless known holds exactly the outcomes of recs.
func sameKnown(t *testing.T, known *boundary.Known, recs []campaign.Record) {
	t.Helper()
	want := boundary.NewKnown(known.Sites(), known.BitsN())
	for _, rec := range recs {
		want.Add(rec)
	}
	for site := range known.Sites() {
		for bit := range known.BitsN() {
			g, gok := known.Get(site, uint8(bit))
			w, wok := want.Get(site, uint8(bit))
			if g != w || gok != wok {
				t.Fatalf("known (%d, %d) = %v, %v; want %v, %v", site, bit, g, gok, w, wok)
			}
		}
	}
}

// TestAbsorbFailureLeavesStateUnchanged: an Absorb cancelled or failed
// part-way through its pass, after workers have folded deltas, leaves
// the Builder and Known as the previous round left them, and the next
// round folds as if the failed one had never run.
func TestAbsorbFailureLeavesStateUnchanged(t *testing.T) {
	cfg := kernelCampaign(t, "cg", kernels.SizeSmall)
	sites := cfg.Golden.Sites()
	r := rng.New(5)
	round1 := sampling.Uniform(r.Split(), sites, cfg.Width, sites*cfg.Width/50)
	round2 := sampling.Uniform(r.Split(), sites, cfg.Width, sites*cfg.Width/50)

	b := boundary.NewBuilder(cfg.Golden, true)
	known := boundary.NewKnown(sites, cfg.Width)
	ref := newReference(cfg)
	recs1, err := b.Absorb(cfg, round1, known)
	if err != nil {
		t.Fatal(err)
	}
	ref.round(round1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := cfg
	cancelled.Context = ctx
	cancelled.Observer = campaign.ObserverFunc(func(e campaign.Event) {
		if e.Done >= e.Total/2 {
			cancel()
		}
	})
	if _, err := b.Absorb(cancelled, round2, known); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Absorb = %v, want context.Canceled", err)
	}
	ref.compare(t, b)
	sameKnown(t, known, recs1)

	failing := cfg
	failing.Factory = func() trace.Program { return &mismatchAfter{Program: cfg.Factory(), after: len(round2) / 4} }
	if _, err := b.Absorb(failing, round2, known); !errors.Is(err, trace.ErrTraceMismatch) {
		t.Fatalf("failing Absorb = %v, want trace.ErrTraceMismatch", err)
	}
	ref.compare(t, b)
	sameKnown(t, known, recs1)

	recs2, err := b.Absorb(cfg, round2, known)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, recs2, ref.round(round2))
	ref.compare(t, b)
	sameKnown(t, known, append(recs1, recs2...))
}

// unchanged fails t unless b holds no observation at all.
func unchanged(t *testing.T, b *boundary.Builder) {
	t.Helper()
	for j := range b.Sites() {
		if b.Info()[j] != 0 || !math.IsInf(b.MinSDC()[j], 1) ||
			b.FinalizeFilter(false).Thresholds[j] != 0 || b.FinalizeFilter(true).Thresholds[j] != 0 {
			t.Fatalf("site %d changed by a failed merge", j)
		}
	}
}

// TestFloorOutsideCandidatesIsAnError: a round whose final SDC floor is
// not one of the candidates the round opened with cannot place the
// filtered thresholds exactly, so it fails and changes nothing.
func TestFloorOutsideCandidatesIsAnError(t *testing.T) {
	newProg := func(seed uint64) func() trace.Program {
		return func() trace.Program {
			p, err := randprog.New(randprog.Config{Sites: 60, Seed: seed, Outputs: 1})
			if err != nil {
				panic(err)
			}
			return p
		}
	}
	golden, err := trace.Golden(newProg(1)())
	if err != nil {
		t.Fatal(err)
	}

	// Driven by hand: a worker opened before the record lowers a floor.
	b := boundary.NewBuilder(golden, true)
	w := b.NewWorker()
	sdc := campaign.Record{Pair: campaign.Pair{Site: 3, Bit: 60}, Kind: outcome.SDC, InjErr: 0.5}
	if err := b.MergeWorkers([]campaign.RunSink{w}, []campaign.Record{sdc}); err == nil || !strings.Contains(err.Error(), "candidate") {
		t.Fatalf("MergeWorkers with an unforeseen floor = %v, want a candidate error", err)
	}
	unchanged(t, b)

	// Through Absorb: the runs come from another program than the
	// builder's golden run, so their injected errors are not the
	// candidates the builder computed.
	other, err := trace.Golden(newProg(2)())
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Factory: newProg(2), Golden: other, Tol: 1e-3, Workers: 2}
	b = boundary.NewBuilder(golden, true)
	known := boundary.NewKnown(60, 64)
	if _, err := b.Absorb(cfg, campaign.AllPairs(60, 64), known); err == nil || !strings.Contains(err.Error(), "candidate") {
		t.Fatalf("Absorb of another program's runs = %v, want a candidate error", err)
	}
	unchanged(t, b)
	sameKnown(t, known, nil)
}
