package campaign

import (
	"errors"
	"fmt"
	"sort"

	"ftb/internal/bits"
	"ftb/internal/obs"
	"ftb/internal/outcome"
	"ftb/internal/telemetry"
	"ftb/internal/trace"
)

// ErrCheckpointMismatch reports a resume whose prior ground truth — a
// store campaign or an in-memory partial result — disagrees with the
// campaign it is being resumed into: program shape (site count), bits
// per site, or completed ranges outside the campaign. Resuming such a
// prior would silently trust experiment outcomes from a different
// campaign, so it is a typed, checkable error rather than a fresh start.
var ErrCheckpointMismatch = errors.New("campaign: resume prior does not match campaign identity")

// GroundTruth is the result of an exhaustive campaign: the classified
// outcome of every single-bit flip at every dynamic instruction. It is
// the oracle that the boundary method's predictions are evaluated against.
type GroundTruth struct {
	SitesN int
	BitsN  int
	WidthN int            // IEEE-754 width of the data elements (32 or 64)
	Kinds  []outcome.Kind // len SitesN*BitsN, indexed site*BitsN + bit
}

// Width returns the campaign's data-element width, defaulting to 64 for
// ground truths built before the field existed (e.g. loaded from old
// files).
func (g *GroundTruth) Width() int {
	if g.WidthN == 0 {
		return 64
	}
	return g.WidthN
}

// At returns the outcome of flipping bit at site.
func (g *GroundTruth) At(site int, bit uint8) outcome.Kind {
	return g.Kinds[site*g.BitsN+int(bit)]
}

// SiteCounts tallies site's outcomes over all bit positions.
func (g *GroundTruth) SiteCounts(site int) outcome.Counts {
	var c outcome.Counts
	row := g.Kinds[site*g.BitsN : (site+1)*g.BitsN]
	for _, k := range row {
		c.Add(k)
	}
	return c
}

// SiteSDCRatio returns site's per-instruction SDC ratio (n_sdc over all
// bit-flip experiments at the site).
func (g *GroundTruth) SiteSDCRatio(site int) float64 {
	c := g.SiteCounts(site)
	return c.SDCRatio()
}

// Overall tallies every experiment in the campaign.
func (g *GroundTruth) Overall() outcome.Counts {
	var c outcome.Counts
	for _, k := range g.Kinds {
		c.Add(k)
	}
	return c
}

// Range is a half-open [Lo, Hi) range of experiment indices
// (site*Bits + bit), the unit of resume: a store reports the ranges it
// holds, and a resumed campaign runs only the gaps between them.
type Range struct{ Lo, Hi int }

// Resume validates a resume of a sites × bits campaign and seeds its
// ground truth: done lists the sorted, non-overlapping experiment ranges
// whose outcomes in prior are trusted (prior may be nil only when done is
// empty). It returns the seeded ground truth and the gaps, the sorted
// experiment ranges still to run. The in-process and cluster campaigns
// share it, so both resume from exactly the same state.
func Resume(prior *GroundTruth, done []Range, sites, bits, width int) (*GroundTruth, []Range, error) {
	total := sites * bits
	if len(done) > 0 && prior == nil {
		return nil, nil, errors.New("campaign: completed ranges without a prior ground truth")
	}
	if prior != nil && (prior.SitesN != sites || prior.BitsN != bits || len(prior.Kinds) != total) {
		return nil, nil, fmt.Errorf("%w: prior shape %d sites × %d bits, campaign %d sites × %d bits",
			ErrCheckpointMismatch, prior.SitesN, prior.BitsN, sites, bits)
	}
	gt := &GroundTruth{SitesN: sites, BitsN: bits, WidthN: width, Kinds: make([]outcome.Kind, total)}
	var gaps []Range
	lo := 0
	for _, r := range done {
		if r.Lo < lo || r.Hi < r.Lo || r.Hi > total {
			return nil, nil, fmt.Errorf("%w: completed range [%d, %d) unsorted, overlapping, or outside [0, %d)",
				ErrCheckpointMismatch, r.Lo, r.Hi, total)
		}
		copy(gt.Kinds[r.Lo:r.Hi], prior.Kinds[r.Lo:r.Hi])
		if r.Lo > lo {
			gaps = append(gaps, Range{Lo: lo, Hi: r.Lo})
		}
		lo = r.Hi
	}
	if lo < total {
		gaps = append(gaps, Range{Lo: lo, Hi: total})
	}
	return gt, gaps, nil
}

// Exhaustive runs the complete fault-injection campaign: cfg.Bits flips at
// every one of the golden run's dynamic instructions. This is the paper's
// "exhaustive fault injection campaign where every bit is flipped" (§4.1);
// its cost is sites × bits program executions, which is why the inference
// method exists. The campaign runs on the engine: cancellable through
// cfg.Context and observable through cfg.Observer.
func Exhaustive(cfg Config) (*GroundTruth, error) { return ExhaustiveResume(cfg, nil, nil, nil) }

// ExhaustiveResume runs the exhaustive campaign minus the work an earlier
// run finished: the outcomes of the done ranges are taken from prior (see
// Resume) and only the gaps between them execute. onRange, when non-nil,
// is called serialized after every completed engine batch with its
// absolute experiment range and outcomes; kinds aliases the result and is
// final once reported. Persisting what onRange reports makes an
// interrupted campaign resumable from exactly the work it finished, in
// whatever order the workers finished it. An onRange error aborts the
// campaign.
func ExhaustiveResume(cfg Config, prior *GroundTruth, done []Range, onRange func(lo, hi int, kinds []outcome.Kind) error) (*GroundTruth, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	gt, gaps, err := Resume(prior, done, cfg.Golden.Sites(), cfg.Bits, cfg.Width)
	if err != nil {
		return nil, err
	}
	idx := newGapIndex(gaps)
	if len(done) > 0 {
		cfg.Logger.Debug("campaign resume",
			"phase", "exhaustive", "experiments_left", idx.n, "experiments_total", len(gt.Kinds))
	}
	var hook func(lo, hi int) error
	if onRange != nil {
		hook = func(lo, hi int) error {
			return idx.each(lo, hi, func(lo, hi int) error { return onRange(lo, hi, gt.Kinds[lo:hi]) })
		}
	}
	err = runEngine(cfg, "exhaustive", idx.n,
		func(w int, rec *telemetry.CampaignRecorder, sp *obs.WorkerSpans) *pairWorker {
			return newPairWorker(cfg, w, rec, sp)
		},
		func(w *pairWorker, i int) (outcome.Kind, error) {
			abs := idx.abs(i)
			rec, err := w.runChecked(cfg, abs, PairAt(abs, cfg.Bits))
			if err != nil {
				return 0, err
			}
			gt.Kinds[abs] = rec.Kind
			return rec.Kind, nil
		}, hook)
	if err != nil {
		return nil, err
	}
	return gt, nil
}

// gapIndex maps the engine's dense item indices [0, n) onto the absolute
// experiment indices of a resume's gaps, in order.
type gapIndex struct {
	gaps []Range
	offs []int // offs[g] is the dense index of gaps[g].Lo
	n    int
}

func newGapIndex(gaps []Range) gapIndex {
	x := gapIndex{gaps: gaps, offs: make([]int, len(gaps))}
	for g, r := range gaps {
		x.offs[g] = x.n
		x.n += r.Hi - r.Lo
	}
	return x
}

// gap returns the gap holding dense index i.
func (x gapIndex) gap(i int) int {
	return sort.Search(len(x.offs), func(g int) bool { return x.offs[g] > i }) - 1
}

// abs returns the absolute experiment index of dense index i.
func (x gapIndex) abs(i int) int {
	g := x.gap(i)
	return x.gaps[g].Lo + i - x.offs[g]
}

// each calls f with the absolute ranges that dense range [lo, hi) covers:
// one per gap it spans.
func (x gapIndex) each(lo, hi int, f func(lo, hi int) error) error {
	for g := x.gap(lo); lo < hi; g++ {
		r := x.gaps[g]
		end := min(hi, x.offs[g]+r.Hi-r.Lo)
		a := r.Lo + lo - x.offs[g]
		if err := f(a, a+end-lo); err != nil {
			return err
		}
		lo = end
	}
	return nil
}

// InjErr returns the injected-error magnitude of (site, bit) for 64-bit
// data elements, computed from the golden trace: the error is a pure
// function of the stored value and the flipped bit, so the exhaustive
// campaign does not store it.
func InjErr(golden *trace.GoldenRun, site int, bit uint8) float64 {
	return bits.Err64(golden.Trace[site], uint(bit))
}

// InjErrWidth is InjErr generalized over the data-element width.
func InjErrWidth(golden *trace.GoldenRun, site int, bit uint8, width int) float64 {
	if width == 32 {
		return bits.Err32(float32(golden.Trace[site]), uint(bit))
	}
	return bits.Err64(golden.Trace[site], uint(bit))
}

// Validate sanity-checks a ground truth against a golden run: the site
// count must match the golden trace, the data-element width must be a
// legal IEEE-754 width, the bits-per-site count must fit the width, every
// site must carry exactly BitsN records, and every record must be a valid
// outcome kind. The cluster merge path assembles ground truths from
// remote shard responses, so these checks are what stands between a
// corrupt or mismatched worker and a silently wrong oracle.
func (g *GroundTruth) Validate(golden *trace.GoldenRun) error {
	if g.SitesN != golden.Sites() {
		return fmt.Errorf("campaign: ground truth has %d sites, golden %d", g.SitesN, golden.Sites())
	}
	if w := g.Width(); w != 32 && w != 64 {
		return fmt.Errorf("campaign: ground truth width %d must be 32 or 64", w)
	}
	if g.BitsN < 1 || g.BitsN > g.Width() {
		return fmt.Errorf("campaign: ground truth bits %d outside [1, %d]", g.BitsN, g.Width())
	}
	if len(g.Kinds) != g.SitesN*g.BitsN {
		return fmt.Errorf("campaign: ground truth has %d records for %d sites × %d bits (want %d per site)",
			len(g.Kinds), g.SitesN, g.BitsN, g.BitsN)
	}
	for i, k := range g.Kinds {
		if int(k) >= outcome.NumKinds {
			return fmt.Errorf("campaign: ground truth record %d (site %d, bit %d) has invalid outcome kind %d",
				i, i/g.BitsN, i%g.BitsN, k)
		}
	}
	return nil
}
