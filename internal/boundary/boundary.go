// Package boundary implements the paper's primary contribution: the fault
// tolerance boundary — one threshold value Δe per dynamic instruction, the
// largest error the instruction can absorb while the program still
// produces an acceptable output — together with the two ways of obtaining
// it:
//
//   - ExhaustiveSearch (§3.2/§4.1): derive the exact per-site threshold
//     from an exhaustive campaign's ground truth.
//   - Builder (§3.3, Algorithm 1): infer the threshold from the error
//     propagation of a small number of *masked* fault-injection
//     experiments — if an injected error propagated a perturbation Δe to
//     site k and the run was still masked, then site k tolerates at least
//     Δe. The filter operation (§3.5) drops masked propagation values
//     that exceed the smallest error known to cause SDC at that site.
//
// A Predictor turns a boundary into per-(site, bit) outcome predictions:
// unknown cases are assumed SDC, flips that produce NaN/Inf are predicted
// crashes, and fully-tested sites use their recorded outcomes verbatim
// (§4.4).
package boundary

import (
	"fmt"
	"math"

	"ftb/internal/bits"
	"ftb/internal/campaign"
	"ftb/internal/outcome"
	"ftb/internal/trace"
)

// SignificanceRel is the relative-error threshold above which an injected
// or propagated perturbation counts as "significant" information for a
// site (the paper's Figure 4 row 2 uses relative error greater than 1e-8).
const SignificanceRel = 1e-8

// Boundary is a program's fault tolerance boundary: Thresholds[i] is the
// inferred or searched Δe of dynamic instruction i. A threshold of zero
// means no tolerance is known (only an exactly-zero error is predicted
// masked); +Inf means the site never influences the output.
type Boundary struct {
	Thresholds []float64
}

// Sites returns the number of dynamic instructions covered.
func (b *Boundary) Sites() int { return len(b.Thresholds) }

// Scaled returns a copy of b with every threshold multiplied by factor.
// Factors below 1 make the boundary more conservative (fewer masked
// predictions, higher precision / lower recall); factors above 1 trade
// the other way. Used by the sensitivity ablation. It panics on a
// non-positive factor.
func (b *Boundary) Scaled(factor float64) *Boundary {
	if factor <= 0 {
		panic("boundary: scale factor must be positive")
	}
	th := make([]float64, len(b.Thresholds))
	for i, t := range b.Thresholds {
		th[i] = t * factor
	}
	return &Boundary{Thresholds: th}
}

// ExhaustiveSearch derives the exact fault tolerance boundary from an
// exhaustive campaign (§4.1): per site, the threshold is the largest
// masked injected error that is still below the smallest SDC-causing
// injected error. Crash outcomes are excluded — a crash is detected, not
// silent, so it neither extends nor caps the silent-corruption threshold.
func ExhaustiveSearch(gt *campaign.GroundTruth, golden *trace.GoldenRun) (*Boundary, error) {
	if err := gt.Validate(golden); err != nil {
		return nil, err
	}
	th := make([]float64, gt.SitesN)
	for site := 0; site < gt.SitesN; site++ {
		minSDC := math.Inf(1)
		for b := 0; b < gt.BitsN; b++ {
			if gt.At(site, uint8(b)) == outcome.SDC {
				if e := campaign.InjErrWidth(golden, site, uint8(b), gt.Width()); e < minSDC {
					minSDC = e
				}
			}
		}
		var maxMasked float64
		for b := 0; b < gt.BitsN; b++ {
			if gt.At(site, uint8(b)) != outcome.Masked {
				continue
			}
			e := campaign.InjErrWidth(golden, site, uint8(b), gt.Width())
			if e < minSDC && e > maxMasked {
				maxMasked = e
			}
		}
		th[site] = maxMasked
	}
	return &Boundary{Thresholds: th}, nil
}

// NonMonotonicSites counts the sites where the error response is
// non-monotonic: some masked flip injects a *larger* error than some
// SDC-causing flip at the same site (§4.1 reports 10.7% of LU and 9.3% of
// CG sites behave this way).
func NonMonotonicSites(gt *campaign.GroundTruth, golden *trace.GoldenRun) (int, error) {
	if err := gt.Validate(golden); err != nil {
		return 0, err
	}
	count := 0
	for site := 0; site < gt.SitesN; site++ {
		minSDC := math.Inf(1)
		maxMasked := 0.0
		for b := 0; b < gt.BitsN; b++ {
			e := campaign.InjErrWidth(golden, site, uint8(b), gt.Width())
			switch gt.At(site, uint8(b)) {
			case outcome.SDC:
				if e < minSDC {
					minSDC = e
				}
			case outcome.Masked:
				if e > maxMasked {
					maxMasked = e
				}
			}
		}
		if maxMasked > minSDC {
			count++
		}
	}
	return count, nil
}

// Known is a dense table of experiment outcomes already observed by
// sampling, used for the §4.4 fully-tested-site shortcut and for the
// uncertainty metric's restriction to the sampled set.
type Known struct {
	bitsN int
	kinds []uint8 // 2 bits per experiment: outcome.Kind + 1; 0 = unknown
	full  []int   // per-site count of known bits
}

// NewKnown returns an empty table for sites × bitsN experiments.
func NewKnown(sites, bitsN int) *Known {
	return &Known{
		bitsN: bitsN,
		kinds: make([]uint8, (sites*bitsN+3)/4),
		full:  make([]int, sites),
	}
}

// slot returns the byte index and bit shift of (site, bit)'s 2-bit code.
func (k *Known) slot(site int, bit uint8) (int, uint) {
	idx := site*k.bitsN + int(bit)
	return idx / 4, uint(idx%4) * 2
}

// BitsN returns the number of bit positions per site.
func (k *Known) BitsN() int { return k.bitsN }

// Sites returns the number of sites covered.
func (k *Known) Sites() int { return len(k.full) }

// Set records the outcome of (site, bit). Re-recording the same pair is
// idempotent (campaigns are deterministic).
func (k *Known) Set(site int, bit uint8, kind outcome.Kind) {
	i, sh := k.slot(site, bit)
	if k.kinds[i]>>sh&3 == 0 {
		k.full[site]++
	}
	k.kinds[i] = k.kinds[i]&^(3<<sh) | (uint8(kind)+1)<<sh
}

// Add records a campaign result.
func (k *Known) Add(rec campaign.Record) { k.Set(rec.Site, rec.Bit, rec.Kind) }

// Get returns the recorded outcome of (site, bit) and whether one exists.
func (k *Known) Get(site int, bit uint8) (outcome.Kind, bool) {
	i, sh := k.slot(site, bit)
	v := k.kinds[i] >> sh & 3
	if v == 0 {
		return 0, false
	}
	return outcome.Kind(v - 1), true
}

// Tested reports how many experiments at site have known outcomes.
func (k *Known) Tested(site int) int { return k.full[site] }

// FullyTested reports whether every bit of site has been injected.
func (k *Known) FullyTested(site int) bool { return k.full[site] == k.bitsN }

// Total returns the number of known experiments.
func (k *Known) Total() int {
	t := 0
	for _, n := range k.full {
		t += n
	}
	return t
}

// Predictor classifies any (site, bit) experiment using a boundary, the
// golden trace, and optionally the sampled outcomes.
type Predictor struct {
	golden *trace.GoldenRun
	b      *Boundary
	known  *Known // may be nil
	width  int    // IEEE-754 width of the data elements (32 or 64)
}

// NewPredictor builds a predictor for 64-bit data elements. known may be
// nil (no fully-tested-site shortcut). It returns an error on a
// site-count mismatch. For single-precision programs call SetWidth(32)
// afterwards.
func NewPredictor(b *Boundary, golden *trace.GoldenRun, known *Known) (*Predictor, error) {
	if b.Sites() != golden.Sites() {
		return nil, fmt.Errorf("boundary: %d thresholds for %d sites", b.Sites(), golden.Sites())
	}
	if known != nil && known.Sites() != golden.Sites() {
		return nil, fmt.Errorf("boundary: known table has %d sites, golden %d", known.Sites(), golden.Sites())
	}
	return &Predictor{golden: golden, b: b, known: known, width: 64}, nil
}

// SetWidth selects the IEEE-754 width the flip-error model assumes when
// predicting: 64 for Ctx.Store programs (the default), 32 for Ctx.Store32
// programs.
func (p *Predictor) SetWidth(width int) error {
	if width != 32 && width != 64 {
		return fmt.Errorf("boundary: width %d must be 32 or 64", width)
	}
	p.width = width
	return nil
}

// Predict returns the predicted outcome of flipping bit at site: the
// recorded outcome if the site is fully tested (§4.4); Crash if the flip
// itself produces NaN/Inf; Masked if the flip's error is within the
// site's threshold; otherwise SDC (unknown cases are assumed SDC, which
// is why low sampling rates overestimate the SDC ratio, §4.4).
func (p *Predictor) Predict(site int, bit uint8) outcome.Kind {
	if p.known != nil && p.known.FullyTested(site) {
		k, _ := p.known.Get(site, bit)
		return k
	}
	v := p.golden.Trace[site]
	if p.width == 32 {
		v32 := float32(v)
		if bits.FlipMakesUnsafe32(v32, uint(bit)) {
			return outcome.Crash
		}
		if bits.Err32(v32, uint(bit)) <= p.b.Thresholds[site] {
			return outcome.Masked
		}
		return outcome.SDC
	}
	if bits.FlipMakesUnsafe(v, uint(bit)) {
		return outcome.Crash
	}
	if bits.Err64(v, uint(bit)) <= p.b.Thresholds[site] {
		return outcome.Masked
	}
	return outcome.SDC
}

// PredictSite tallies the predicted outcomes of every bit at site.
func (p *Predictor) PredictSite(site int, bitsN int) outcome.Counts {
	var c outcome.Counts
	for b := 0; b < bitsN; b++ {
		c.Add(p.Predict(site, uint8(b)))
	}
	return c
}

// SiteSDCRatio returns the predicted per-site SDC ratio over bitsN flips.
func (p *Predictor) SiteSDCRatio(site, bitsN int) float64 {
	c := p.PredictSite(site, bitsN)
	return c.SDCRatio()
}

// OverallSDCRatio returns the predicted whole-program SDC ratio over the
// full site × bit space.
func (p *Predictor) OverallSDCRatio(bitsN int) float64 {
	var c outcome.Counts
	for site := 0; site < p.golden.Sites(); site++ {
		c.Merge(p.PredictSite(site, bitsN))
	}
	return c.SDCRatio()
}
