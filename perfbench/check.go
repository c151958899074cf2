package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"ftb"
	"ftb/internal/campaign"
)

// referenceJSON holds the output digests recorded at this commit. Per
// workload and scale, "any" lists outputs no seed changes (exhaustive
// ground truth and the tables built only from it) and "seed-<n>" lists
// the rest at the seed they were recorded with. Re-record with -record.
//
//go:embed reference.json
var referenceJSON []byte

// references is referenceJSON decoded: workload → scale → scope → output
// label → SHA-256.
type references map[string]map[string]map[string]map[string]string

// recordedSeed is the seed of the "seed-<n>" references.
const recordedSeed = 1

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// checkDigest compares one output's digest with its reference. At the
// recorded seed every output must have one, so a stale reference file
// cannot pass by leaving an output unchecked. In record mode it keeps
// the digest instead.
func (e *runEnv) checkDigest(label, digest string) error {
	if e.digests != nil {
		e.digests[label] = digest
		return nil
	}
	scopes := e.refs[e.name][e.scale]
	checked := false
	for _, scope := range []string{"any", fmt.Sprintf("seed-%d", e.seed)} {
		want, ok := scopes[scope][label]
		if ok && want != digest {
			return fmt.Errorf("output digest %.12s… differs from the %s reference %.12s…", digest, scope, want)
		}
		checked = checked || ok
	}
	if !checked && e.seed == recordedSeed {
		return fmt.Errorf("no reference digest for %s at seed %d", label, e.seed)
	}
	return nil
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// thresholdsDigest hashes a boundary's thresholds bit for bit.
func thresholdsDigest(b *ftb.Boundary) string {
	h := sha256.New()
	var buf [8]byte
	for _, t := range b.Thresholds {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(t))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// groundTruthDigest hashes a ground truth's shape and outcome array.
func groundTruthDigest(gt *ftb.GroundTruth) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range []int{gt.SitesN, gt.BitsN, gt.Width()} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, k := range gt.Kinds {
		h.Write([]byte{byte(k)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pairs draws spotPairs distinct experiments of an analysis's sample
// space from the workload seed.
func (e *runEnv) pairs(purpose string, an *ftb.Analysis) []ftb.Pair {
	r := e.rand(purpose)
	n := min(spotPairs, an.SampleSpace())
	seen := make(map[int]bool, n)
	out := make([]ftb.Pair, 0, n)
	for len(out) < n {
		i := r.IntN(an.SampleSpace())
		if !seen[i] {
			seen[i] = true
			out = append(out, campaign.PairAt(i, an.Bits()))
		}
	}
	return out
}

// sampleRecords draws up to spotPairs of an inference's classified
// samples from the workload seed.
func (e *runEnv) sampleRecords(purpose string, recs []ftb.Record) []ftb.Record {
	r := e.rand(purpose)
	idx := r.Perm(len(recs))
	out := make([]ftb.Record, 0, spotPairs)
	for _, i := range idx[:min(spotPairs, len(idx))] {
		out = append(out, recs[i])
	}
	return out
}

// reference re-runs one experiment from the program entry on a fresh
// kernel instance with campaign.RunPair: no engine, no replay.
func reference(an *ftb.Analysis, k kernelCfg, p ftb.Pair) (ftb.Record, error) {
	prog, err := ftb.NewKernel(k.name, k.size)
	if err != nil {
		return ftb.Record{}, err
	}
	var ctx ftb.Ctx
	return campaign.RunPair(&ctx, prog, an.Golden(), an.Tolerance(), p), nil
}

// spotCheckRecords compares classified records with the reference
// executor: outcome and both error magnitudes must match bit for bit.
func spotCheckRecords(an *ftb.Analysis, k kernelCfg, recs []ftb.Record) error {
	for _, got := range recs {
		want, err := reference(an, k, got.Pair)
		if err != nil {
			return err
		}
		if got.Kind != want.Kind || !sameFloat(got.InjErr, want.InjErr) || !sameFloat(got.OutErr, want.OutErr) {
			return fmt.Errorf("site %d bit %d: engine %v (inj %g, out %g), reference %v (inj %g, out %g)",
				got.Site, got.Bit, got.Kind, got.InjErr, got.OutErr, want.Kind, want.InjErr, want.OutErr)
		}
	}
	return nil
}

// spotCheckGroundTruth compares ground-truth outcomes with the reference
// executor.
func spotCheckGroundTruth(an *ftb.Analysis, k kernelCfg, gt *ftb.GroundTruth, pairs []ftb.Pair) error {
	for _, p := range pairs {
		want, err := reference(an, k, p)
		if err != nil {
			return err
		}
		if got := gt.At(p.Site, p.Bit); got != want.Kind {
			return fmt.Errorf("site %d bit %d: ground truth %v, reference %v", p.Site, p.Bit, got, want.Kind)
		}
	}
	return nil
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}
