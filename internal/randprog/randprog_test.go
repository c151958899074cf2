package randprog

import (
	"fmt"
	"math"
	"testing"

	"ftb"
	"ftb/internal/trace"
)

func TestGeneratorValidation(t *testing.T) {
	if _, err := New(Config{Sites: 1}); err == nil {
		t.Error("Sites=1 accepted")
	}
}

func TestGoldenBounded(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		p, err := New(Config{Sites: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.Golden(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, v := range g.Trace {
			if math.Abs(v) > 1 {
				t.Fatalf("seed %d: trace[%d] = %g escapes [-1,1]", seed, i, v)
			}
		}
		if g.Sites() != 120 {
			t.Fatalf("seed %d: sites = %d", seed, g.Sites())
		}
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	mk := func() *Prog {
		p, err := New(Config{Sites: 64, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	g1, err := trace.Golden(mk())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := trace.Golden(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Trace {
		if g1.Trace[i] != g2.Trace[i] {
			t.Fatalf("trace[%d] differs across instances", i)
		}
	}
}

// Whole-pipeline property sweep: for a spread of random programs, the
// full analysis pipeline must hold its invariants.
func TestPipelineInvariantsOnRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		p, err := New(Config{Sites: 80, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		an, err := ftb.NewAnalysis(func() ftb.Program {
			q, err := New(Config{Sites: 80, Seed: seed})
			if err != nil {
				panic(err)
			}
			return q
		}, 1e-6, ftb.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_ = p
		gt, err := an.Exhaustive()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		overall := gt.Overall()
		if overall.Total() != an.SampleSpace() {
			t.Fatalf("seed %d: campaign size %d != space %d", seed, overall.Total(), an.SampleSpace())
		}

		res, err := an.InferBoundary(ftb.InferOptions{SampleFrac: 0.05, Filter: true, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pr := res.Evaluate(gt)

		// Invariant: metrics are probabilities.
		for name, v := range map[string]float64{
			"precision":   pr.Precision,
			"recall":      pr.Recall,
			"uncertainty": pr.Uncertainty,
			"crashPrec":   pr.CrashPrecision(),
			"crashRecall": pr.CrashRecall(),
		} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("seed %d: %s = %g", seed, name, v)
			}
		}
		// Invariant: count consistency.
		if pr.CorrectMasked > pr.PredictedMasked || pr.CorrectMasked > pr.TotalMasked {
			t.Fatalf("seed %d: masked counts inconsistent %+v", seed, pr)
		}
		// Invariant: fully-tested sites predict their recorded outcomes.
		known := res.Known()
		pred := res.Predictor()
		for site := 0; site < an.Sites(); site++ {
			if !known.FullyTested(site) {
				continue
			}
			for bit := 0; bit < an.Bits(); bit++ {
				want, _ := known.Get(site, uint8(bit))
				if got := pred.Predict(site, uint8(bit)); got != want {
					t.Fatalf("seed %d: fully-tested site %d bit %d predicted %v, recorded %v",
						seed, site, bit, got, want)
				}
			}
		}
		// Invariant: every sampled outcome matches the ground truth
		// (campaigns are deterministic, so sampling re-observes gt).
		for site := 0; site < an.Sites(); site++ {
			for bit := 0; bit < an.Bits(); bit++ {
				if obs, ok := known.Get(site, uint8(bit)); ok {
					if truth := gt.At(site, uint8(bit)); obs != truth {
						t.Fatalf("seed %d: sample outcome %v != ground truth %v at (%d,%d)",
							seed, obs, truth, site, bit)
					}
				}
			}
		}
		// Invariant: with the filter on, no inferred threshold exceeds the
		// smallest *observed* SDC injected error at its site.
		minSDC := make([]float64, an.Sites())
		for i := range minSDC {
			minSDC[i] = math.Inf(1)
		}
		for _, rec := range res.Records() {
			if rec.Kind == ftb.SDC && rec.InjErr < minSDC[rec.Site] {
				minSDC[rec.Site] = rec.InjErr
			}
		}
		for site, th := range res.Boundary().Thresholds {
			if th > minSDC[site] {
				t.Fatalf("seed %d: filtered threshold[%d] = %g above observed SDC floor %g",
					seed, site, th, minSDC[site])
			}
		}
	}
}

// TestPlansAgreeOnRandomPrograms is the differential test of trace.Run
// over generated programs: for every (site, bit), a diff plan must
// classify exactly like the plain plan, and a truncated diff plan must
// stream a prefix of the full diff stream and pause exactly at its
// boundary (or end exactly like the full run when that crashes first).
func TestPlansAgreeOnRandomPrograms(t *testing.T) {
	const sites = 60
	for seed := uint64(1); seed <= 5; seed++ {
		p, err := New(Config{Sites: sites, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.Golden(p)
		if err != nil {
			t.Fatal(err)
		}
		var ctx trace.Ctx
		for site := 0; site < sites; site++ {
			for bit := uint(0); bit < 64; bit++ {
				where := fmt.Sprintf("seed %d site %d bit %d", seed, site, bit)
				plain, err := trace.Run(&ctx, p, g, trace.Plan{Site: site, Bit: bit})
				if err != nil {
					t.Fatal(err)
				}
				plainOut := append([]float64(nil), plain.Output...)
				full := &collect{}
				diff, err := trace.Run(&ctx, p, g, trace.Plan{Site: site, Bit: bit, Sink: full})
				if err != nil {
					t.Fatal(err)
				}
				if diff.Crashed != plain.Crashed || diff.CrashAt != plain.CrashAt ||
					diff.Injected != plain.Injected || !sameBits(diff.InjErr, plain.InjErr) {
					t.Fatalf("%s: diff %+v, plain %+v", where, diff, plain)
				}
				if len(diff.Output) != len(plainOut) {
					t.Fatalf("%s: diff output length %d, plain %d", where, len(diff.Output), len(plainOut))
				}
				for i := range plainOut {
					if !sameBits(diff.Output[i], plainOut[i]) {
						t.Fatalf("%s: output[%d] = %g, plain %g", where, i, diff.Output[i], plainOut[i])
					}
				}
				stream := sites
				if diff.Crashed {
					stream = diff.CrashAt
				}
				if len(full.deltas) != stream {
					t.Fatalf("%s: diff stream has %d sites, want %d", where, len(full.deltas), stream)
				}
				for _, until := range []int{site + 1, (site + sites + 1) / 2, sites} {
					part := &collect{}
					res, err := trace.Run(&ctx, p, g, trace.Plan{Site: site, Bit: bit, Until: until, Sink: part})
					if err != nil {
						t.Fatal(err)
					}
					if len(part.deltas) > len(full.deltas) {
						t.Fatalf("%s: until %d streamed %d sites, full run %d", where, until, len(part.deltas), len(full.deltas))
					}
					for i, d := range part.deltas {
						if !sameBits(d, full.deltas[i]) {
							t.Fatalf("%s: until %d: delta[%d] = %g, full run %g", where, until, i, d, full.deltas[i])
						}
					}
					switch crashFirst := diff.Crashed && diff.CrashAt < until; {
					case crashFirst:
						if res.Paused || !res.Crashed || res.CrashAt != diff.CrashAt {
							t.Fatalf("%s: until %d: %+v, want the full run's crash at %d", where, until, res, diff.CrashAt)
						}
					case until < sites:
						if !res.Paused || res.Crashed || res.Output != nil || len(part.deltas) != until {
							t.Fatalf("%s: until %d: paused=%v crashed=%v after %d sites, want a pause at %d", where,
								until, res.Paused, res.Crashed, len(part.deltas), until)
						}
					default:
						if res.Paused || res.Crashed != diff.Crashed || len(part.deltas) != len(full.deltas) {
							t.Fatalf("%s: until %d (trace end): %+v, want the full run", where, until, res)
						}
					}
					if res.Injected != diff.Injected || !sameBits(res.InjErr, diff.InjErr) {
						t.Fatalf("%s: until %d: injection %v/%g, full run %v/%g", where, until, res.Injected, res.InjErr, diff.Injected, diff.InjErr)
					}
				}
			}
		}
	}
}

// sameBits compares floats by bit pattern (NaN-safe, sign-exact).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

type collect struct{ deltas []float64 }

func (c *collect) Observe(site int, golden, delta float64) {
	c.deltas = append(c.deltas, delta)
}
