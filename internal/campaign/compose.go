// Compositional section campaigns (FastFlip-style): instead of running
// every (site × bit) experiment through the whole program suffix, run it
// only to the end of its own declared section, then predict the final
// outcome by chaining per-section error-transfer summaries — built once
// from a seeded calibration sample of full runs — and fall back to full
// execution whenever the summaries' evidence is not conclusive. Three
// within-section terminations need no prediction at all and are byte-
// exact by construction: a crash before the section boundary (the
// truncated run is a prefix-identical replay of the full run), an error
// that is exactly zero at the boundary (the remaining run is then
// byte-identical to the golden run, so the outcome is Masked), and an
// injection in the last section (truncation is the full run).
package campaign

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ftb/internal/obs"
	"ftb/internal/outcome"
	"ftb/internal/rng"
	"ftb/internal/sections"
	"ftb/internal/telemetry"
	"ftb/internal/trace"
)

// ComposeOptions configures ComposedExhaustive.
type ComposeOptions struct {
	// Sections is the program's compositional section layout; it must
	// Validate against the golden run's site count.
	Sections []sections.Section
	// Calibration is the fraction of the (site × bit) space sampled for
	// full cross-boundary calibration runs (default 0.02). Calibration
	// outcomes are exact and double as campaign results.
	Calibration float64
	// Seed drives the deterministic calibration sample.
	Seed uint64
	// MinSamples, Safety, and Slack tune the predictor; see
	// sections.Params.
	MinSamples int
	Safety     float64
	Slack      float64
	// Prior holds persisted summaries from an earlier campaign; those
	// whose section identity hashes still match are reused, and their
	// sections are not re-calibrated (incremental re-analysis).
	Prior *sections.Library
	// Truth, when non-nil, is exhaustive ground truth to validate every
	// result against; disagreements are counted in Report.Mismatches.
	Truth *GroundTruth
}

// SectionReport is one section's share of a composed campaign.
type SectionReport struct {
	Section sections.Section `json:"section"`
	Hash    uint64           `json:"hash,string"`
	// Reused reports that the section's summary was taken from Prior
	// (identity hash matched) instead of being rebuilt.
	Reused bool `json:"reused"`
	// Experiments counts the campaign experiments injected in this
	// section; Exact, Predicted, and Fallbacks partition them (plus the
	// section's share of the calibration sample).
	Experiments int `json:"experiments"`
	Calibrated  int `json:"calibrated"`
	Exact       int `json:"exact"`
	Predicted   int `json:"predicted"`
	Fallbacks   int `json:"fallbacks"`
}

// ComposeReport is the accounting of a composed exhaustive campaign.
type ComposeReport struct {
	// Experiments is the campaign size (sites × bits).
	Experiments int `json:"experiments"`
	// Calibrated counts full calibration runs (exact results).
	Calibrated int `json:"calibrated"`
	// ExactCrash / ExactZero / ExactLast count the by-construction-exact
	// truncated terminations: crash inside the injection's section, an
	// error dead at the section boundary, and last-section injections.
	ExactCrash int `json:"exact_crash"`
	ExactZero  int `json:"exact_zero"`
	ExactLast  int `json:"exact_last"`
	// Predicted tallies the outcomes decided by summary composition.
	Predicted outcome.Counts `json:"predicted"`
	// Fallbacks counts experiments the predictor declined and the
	// campaign executed in full (exact results); FallbackReasons breaks
	// them down by what evidence was missing (indexed by
	// sections.FallbackReason).
	Fallbacks       int                      `json:"fallbacks"`
	FallbackReasons [sections.NumReasons]int `json:"fallback_reasons"`
	// FallbackKinds tallies what the declined experiments' full runs
	// resolved to: the Masked share is the predictor's remaining
	// headroom, the rest is the irreducible population no summary
	// evidence could certify.
	FallbackKinds outcome.Counts `json:"fallback_kinds"`
	// Mismatches counts disagreements with Truth (0 when Truth is nil).
	Mismatches int `json:"mismatches"`
	// SummariesReused / SummariesBuilt partition the downstream-usable
	// sections (every section but the first) by provenance.
	SummariesReused int `json:"summaries_reused"`
	SummariesBuilt  int `json:"summaries_built"`
	// StoresExecuted is the exact number of tracked stores the campaign
	// executed (injection runs only, excluding replay advances);
	// StoresBaseline is what a full-suffix campaign at the same replay
	// setting would have executed. Both are exact: predictions are
	// always Masked, whose avoided full run executes every remaining
	// store.
	StoresExecuted int64 `json:"stores_executed"`
	StoresBaseline int64 `json:"stores_baseline"`
	// Sections is the per-section breakdown, in section order.
	Sections []SectionReport `json:"sections"`
	// Library holds the campaign's final summaries (reused + rebuilt),
	// ready to persist for the next incremental run.
	Library *sections.Library `json:"-"`
}

// Speedup returns the estimated store-count ratio of a full-suffix
// campaign over this composed one (≥ 1 when composition helped).
func (r *ComposeReport) Speedup() float64 {
	if r.StoresExecuted <= 0 {
		return 1
	}
	return float64(r.StoresBaseline) / float64(r.StoresExecuted)
}

// withDefaults fills the tunables.
func (o ComposeOptions) withDefaults() ComposeOptions {
	if o.Calibration <= 0 {
		o.Calibration = 0.02
	}
	return o
}

// boundarySink measures the running-max deviation of a truncated run:
// the scalar that summarizes the corrupted state at the section
// boundary. The running max (rather than the last delta) is the honest
// conservative choice because earlier large deltas can sit parked in
// state elements the section never rewrites.
type boundarySink struct{ max float64 }

func (s *boundarySink) Observe(_ int, _, delta float64) {
	if delta > s.max {
		s.max = delta
	}
}

// SparseDeltas implements trace.SparseSink: the max of zeros changes
// nothing.
func (s *boundarySink) SparseDeltas() {}

// calibAggregator rides a full calibration run's diff stream and records
// the running-max deviation at every section boundary.
type calibAggregator struct {
	secs     []sections.Section
	cur      int
	runMax   float64
	boundary []float64 // running max at secs[i].End-1, per section
}

func newCalibAggregator(secs []sections.Section) *calibAggregator {
	return &calibAggregator{secs: secs, boundary: make([]float64, len(secs))}
}

func (a *calibAggregator) begin() {
	a.cur, a.runMax = 0, 0
	for i := range a.boundary {
		a.boundary[i] = 0
	}
}

// Observe implements trace.DiffSink.
func (a *calibAggregator) Observe(site int, _, delta float64) {
	if delta > a.runMax {
		a.runMax = delta
	}
	if a.cur < len(a.secs) && site == a.secs[a.cur].End-1 {
		a.boundary[a.cur] = a.runMax
		a.cur++
	}
}

// fold turns one classified calibration run into per-section transfer
// observations: for every section the run traversed after its injection
// section, the boundary error entering it, the boundary error (or
// in-section crash) leaving it, and the run's final outcome.
func (a *calibAggregator) fold(secIdx int, rec Record, crashed bool, crashAt int, into []*sections.Summary) {
	for j := secIdx + 1; j < len(a.secs); j++ {
		if crashed && crashAt < a.secs[j].Start {
			return // never reached section j
		}
		crashedIn := crashed && crashAt < a.secs[j].End
		if into[j] != nil {
			into[j].Observe(a.boundary[j-1], a.boundary[j], crashedIn, rec.Kind, rec.OutErr)
		}
		if crashedIn {
			return
		}
	}
}

// composeWorker is the per-goroutine state of a composed campaign. The
// same worker type serves both phases: calibration items run the full
// diff path through agg, main items run the truncated path through bnd.
type composeWorker struct {
	p       trace.Program
	ctx     trace.Ctx
	worker  int
	canTail bool // p supports cursor-guided resume (fallbacks finish from the pause boundary)
	replay  *replayCache
	rec     *telemetry.CampaignRecorder
	sp      *obs.WorkerSpans // nil-safe when the campaign records no spans
	agg     *calibAggregator
	bnd     boundarySink
	// locals are this worker's private summary builders (calibration
	// phase, merged after the engine drains); sums are the shared
	// read-only merged summaries (main phase).
	locals []*sections.Summary
	sums   []*sections.Summary
	stats  composeStats
}

// composeStats is one worker's counters, merged single-threaded after
// each engine phase completes.
type composeStats struct {
	exactCrash, exactZero, exactLast int
	predicted                        outcome.Counts
	fallbacks, mismatches            int
	reasons                          [sections.NumReasons]int
	fallbackKinds                    outcome.Counts
	executed, baseline               int64
	bySec                            []sectionCounters
}

type sectionCounters struct {
	experiments, calibrated, exact, predicted, fallbacks int
}

func (s *composeStats) mergeInto(rep *ComposeReport) {
	rep.ExactCrash += s.exactCrash
	rep.ExactZero += s.exactZero
	rep.ExactLast += s.exactLast
	rep.Predicted.Merge(s.predicted)
	rep.Fallbacks += s.fallbacks
	for r, n := range s.reasons {
		rep.FallbackReasons[r] += n
	}
	rep.FallbackKinds.Merge(s.fallbackKinds)
	rep.Mismatches += s.mismatches
	rep.StoresExecuted += s.executed
	rep.StoresBaseline += s.baseline
	for i, c := range s.bySec {
		rep.Sections[i].Experiments += c.experiments
		rep.Sections[i].Calibrated += c.calibrated
		rep.Sections[i].Exact += c.exact
		rep.Sections[i].Predicted += c.predicted
		rep.Sections[i].Fallbacks += c.fallbacks
	}
}

// prepare positions the worker for an injection at site, mirroring
// pairWorker's replay accounting.
func (w *composeWorker) prepare(site int) (int, error) {
	if w.replay == nil {
		return 0, nil
	}
	t := w.sp.SubClock()
	pr, err := w.replay.prepare(&w.ctx, site)
	chargeRestore(w.rec, w.sp, w.worker, t, pr)
	if err != nil {
		return 0, err
	}
	return pr.resume, nil
}

// ComposedExhaustive runs the exhaustive campaign in composed mode and
// returns the resulting ground truth with its accounting. The result
// covers the full (site × bit) space like Exhaustive; predicted entries
// carry the composed verdict, everything else is exact. With opts.Truth
// supplied, every entry is compared against it and disagreements are
// counted (the zero-mismatch acceptance gate).
func ComposedExhaustive(cfg Config, opts ComposeOptions) (*GroundTruth, *ComposeReport, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	sites := cfg.Golden.Sites()
	secs := opts.Sections
	if err := sections.Validate(secs, sites); err != nil {
		return nil, nil, err
	}
	space := sites * cfg.Bits
	if opts.Truth != nil && (opts.Truth.SitesN != sites || opts.Truth.BitsN != cfg.Bits) {
		return nil, nil, fmt.Errorf("%w: truth is %d sites × %d bits, campaign is %d × %d",
			ErrCheckpointMismatch, opts.Truth.SitesN, opts.Truth.BitsN, sites, cfg.Bits)
	}
	params := sections.Params{MinSamples: opts.MinSamples, Safety: opts.Safety, Slack: opts.Slack}

	// Per-site section index and per-section identity hashes.
	secOf := make([]int, sites)
	for j, s := range secs {
		for i := s.Start; i < s.End; i++ {
			secOf[i] = j
		}
	}
	hashes := sections.Hashes(secs, cfg.Golden.Trace)

	// Resolve each section's summary: reuse a hash-matching prior or
	// schedule a rebuild. Section 0 has no upstream boundary, so no
	// summary of it is ever consulted; it is carried empty for layout.
	name := cfg.Factory().Name()
	rep := &ComposeReport{Experiments: space, Sections: make([]SectionReport, len(secs))}
	sums := make([]*sections.Summary, len(secs))
	rebuild := false
	for j, s := range secs {
		rep.Sections[j] = SectionReport{Section: s, Hash: hashes[j]}
		if prior := opts.Prior.Find(s, hashes[j]); prior != nil && j > 0 {
			sums[j] = prior
			rep.Sections[j].Reused = true
			rep.SummariesReused++
			continue
		}
		sums[j] = sections.NewSummary(s, hashes[j])
		if j > 0 {
			rep.SummariesBuilt++
			rebuild = true
		}
	}

	gt := &GroundTruth{
		SitesN: sites,
		BitsN:  cfg.Bits,
		WidthN: cfg.Width,
		Kinds:  make([]outcome.Kind, space),
	}
	calibrated := make([]bool, space)

	newWorker := func(w int, rec *telemetry.CampaignRecorder, sp *obs.WorkerSpans) *composeWorker {
		cw := &composeWorker{p: cfg.Factory(), worker: w, rec: rec, sp: sp, sums: sums}
		cw.agg = newCalibAggregator(secs)
		cw.stats.bySec = make([]sectionCounters, len(secs))
		if s, ok := cw.p.(trace.Snapshotter); ok {
			cw.canTail = true
			if cfg.Replay {
				cw.replay = newReplayCache(cfg.Golden.Sites(), s)
			}
		}
		return cw
	}

	// Phase 1 — calibration: a seeded uniform sample of full runs whose
	// diff streams populate the summaries being rebuilt. Skipped
	// entirely when every downstream summary was reused (the
	// incremental-re-analysis fast path).
	if rebuild && len(secs) > 1 {
		k := int(math.Ceil(opts.Calibration * float64(space)))
		if k > space {
			k = space
		}
		sample := rng.New(opts.Seed).SampleK(space, k)
		sort.Ints(sample) // site-major order keeps the replay cache warm
		for _, idx := range sample {
			calibrated[idx] = true
		}
		rep.Calibrated = len(sample)

		var mu workerMerge
		err = runEngine(cfg, "compose-calibrate", len(sample),
			func(w int, rec *telemetry.CampaignRecorder, sp *obs.WorkerSpans) *composeWorker {
				cw := newWorker(w, rec, sp)
				cw.locals = make([]*sections.Summary, len(secs))
				for j := 1; j < len(secs); j++ {
					if !rep.Sections[j].Reused {
						cw.locals[j] = sections.NewSummary(secs[j], hashes[j])
					}
				}
				mu.add(cw)
				return cw
			},
			func(w *composeWorker, i int) (outcome.Kind, error) {
				idx := sample[i]
				pair := PairAt(idx, cfg.Bits)
				resume, err := w.prepare(pair.Site)
				if err != nil {
					return 0, err
				}
				w.agg.begin()
				res, err := trace.Run(&w.ctx, w.p, cfg.Golden,
					trace.Plan{Site: pair.Site, Bit: uint(pair.Bit), Resume: resume, Sink: w.agg})
				if err != nil {
					return 0, err
				}
				rec := classify(cfg.Golden, cfg.Tol, pair, res)
				sec := secOf[pair.Site]
				w.agg.fold(sec, rec, res.Crashed, res.CrashAt, w.locals)
				end := sites
				if res.Crashed {
					end = res.CrashAt + 1
				}
				w.stats.executed += int64(end - resume)
				w.stats.baseline += int64(end - resume)
				w.stats.bySec[sec].calibrated++
				gt.Kinds[idx] = rec.Kind
				return rec.Kind, nil
			}, nil)
		for _, cw := range mu.workers {
			cw.stats.mergeInto(rep)
			for j := 1; j < len(secs); j++ {
				if cw.locals[j] != nil {
					sums[j].Merge(cw.locals[j])
				}
			}
		}
		if err != nil {
			return nil, nil, err
		}
	}

	// Phase 2 — the composed main pass over the whole space (calibrated
	// entries short-circuit: their exact result is already in).
	var mu workerMerge
	err = runEngine(cfg, "compose", space,
		func(w int, rec *telemetry.CampaignRecorder, sp *obs.WorkerSpans) *composeWorker {
			cw := newWorker(w, rec, sp)
			mu.add(cw)
			return cw
		},
		func(w *composeWorker, i int) (outcome.Kind, error) {
			if calibrated[i] {
				return gt.Kinds[i], nil
			}
			pair := PairAt(i, cfg.Bits)
			sec := secOf[pair.Site]
			kind, err := w.runComposed(cfg, pair, sec, secs[sec].End, sites, params)
			if err != nil {
				return 0, err
			}
			w.stats.bySec[sec].experiments++
			if opts.Truth != nil && opts.Truth.At(pair.Site, pair.Bit) != kind {
				w.stats.mismatches++
			}
			gt.Kinds[i] = kind
			return kind, nil
		}, nil)
	for _, cw := range mu.workers {
		cw.stats.mergeInto(rep)
	}
	if err != nil {
		return nil, nil, err
	}

	rep.Library = &sections.Library{Program: name, Summaries: sums}
	return gt, rep, nil
}

// runComposed executes one main-phase experiment: truncate at the
// section boundary, take an exact shortcut when one applies, otherwise
// compose a prediction or fall back to a full run.
func (w *composeWorker) runComposed(cfg Config, pair Pair, sec, until, sites int, params sections.Params) (outcome.Kind, error) {
	resume, err := w.prepare(pair.Site)
	if err != nil {
		return 0, err
	}
	w.bnd.max = 0
	res, err := trace.Run(&w.ctx, w.p, cfg.Golden,
		trace.Plan{Site: pair.Site, Bit: uint(pair.Bit), Resume: resume, Until: until, Sink: &w.bnd})
	if err != nil {
		return 0, err
	}
	switch {
	case !res.Paused && res.Crashed:
		// Crash before the boundary: the truncated run is a byte-exact
		// prefix replay of the full run.
		w.stats.exactCrash++
		w.stats.bySec[sec].exact++
		w.stats.executed += int64(res.CrashAt + 1 - resume)
		w.stats.baseline += int64(res.CrashAt + 1 - resume)
		return outcome.Crash, nil
	case !res.Paused:
		// The section ends at the trace end: the run completed in full.
		w.stats.exactLast++
		w.stats.bySec[sec].exact++
		w.stats.executed += int64(sites - resume)
		w.stats.baseline += int64(sites - resume)
		return classify(cfg.Golden, cfg.Tol, pair, res).Kind, nil
	}
	w.stats.executed += int64(until - resume)
	if w.bnd.max == 0 {
		// The deviation stream is identically zero through the
		// boundary, so the suffix would replay the golden run exactly
		// (a ±0 sign difference is the only possible residue, and it
		// cannot change the output's L∞ deviation): Masked, exact.
		w.stats.exactZero++
		w.stats.bySec[sec].exact++
		w.stats.baseline += int64(sites - resume)
		return outcome.Masked, nil
	}
	pt := w.sp.SubClock()
	pred := sections.Compose(w.sums, sec, w.bnd.max, cfg.Tol, params)
	w.sp.Sub(obs.CatPredict, pt, int64(pred.Why))
	if pred.Composed {
		// Compose only ever predicts Masked, so the avoided full run
		// would have executed every remaining store: the baseline term
		// is exact.
		w.stats.predicted.Add(pred.Kind)
		w.stats.bySec[sec].predicted++
		w.stats.baseline += int64(sites - resume)
		return pred.Kind, nil
	}
	w.stats.fallbacks++
	w.stats.reasons[pred.Why]++
	w.stats.bySec[sec].fallbacks++
	if w.canTail {
		// Fallback, cheap path: the truncated run is a byte-exact prefix
		// of the full experiment and the instance still holds its state
		// at the pause boundary, so finish the run from there instead of
		// re-executing the prefix. A declined prediction then costs
		// exactly what the baseline campaign would have paid. (A
		// progressive variant that re-attempted composition at every
		// later boundary was measured and rejected: the running-max seed
		// never shrinks and the chained bins are coarse, so under 0.2%
		// of declines ever rescued, while each extra pause/resume
		// segment re-paid the cursor skip-walk.)
		tt := w.sp.SubClock()
		full, err := trace.Run(&w.ctx, w.p, cfg.Golden, trace.Plan{Site: -1, Resume: until})
		w.sp.Sub(obs.CatTail, tt, int64(until))
		if err != nil {
			return 0, err
		}
		full.Injected, full.InjErr = res.Injected, res.InjErr
		end := sites
		if full.Crashed {
			end = full.CrashAt + 1
		}
		w.stats.executed += int64(end - until)
		w.stats.baseline += int64(end - resume)
		kind := classify(cfg.Golden, cfg.Tol, pair, full).Kind
		w.stats.fallbackKinds.Add(kind)
		return kind, nil
	}
	// Fallback for programs without cursor-guided resume: run the
	// experiment in full from the same snapshot.
	resume, err = w.prepare(pair.Site)
	if err != nil {
		return 0, err
	}
	ft := w.sp.SubClock()
	full, err := trace.Run(&w.ctx, w.p, cfg.Golden, trace.Plan{Site: pair.Site, Bit: uint(pair.Bit), Resume: resume})
	w.sp.Sub(obs.CatFallback, ft, int64(pair.Site))
	if err != nil {
		return 0, err
	}
	end := sites
	if full.Crashed {
		end = full.CrashAt + 1
	}
	w.stats.executed += int64(end - resume)
	w.stats.baseline += int64(end - resume)
	kind := classify(cfg.Golden, cfg.Tol, pair, full).Kind
	w.stats.fallbackKinds.Add(kind)
	return kind, nil
}

// workerMerge collects the workers an engine run created so their
// private stats and summary builders can be merged after it drains.
// Engine setup callbacks run concurrently, hence the lock.
type workerMerge struct {
	mu      sync.Mutex
	workers []*composeWorker
}

func (m *workerMerge) add(w *composeWorker) {
	m.mu.Lock()
	m.workers = append(m.workers, w)
	m.mu.Unlock()
}
