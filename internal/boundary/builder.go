package boundary

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"ftb/internal/campaign"
	"ftb/internal/outcome"
	"ftb/internal/trace"
)

// Builder infers a fault tolerance boundary from sampled fault-injection
// experiments (Algorithm 1 plus the §3.5 filter operation).
//
// Absorb ingests one round of samples in a single campaign pass: every
// sample runs once, in diff mode, with Config.Sink handing each engine
// worker a sink from NewWorker. The classified records teach the filter
// (the smallest injected error known to cause SDC per site) and the
// per-site information counts used by adaptive sampling. Each masked
// run's propagation deltas raise the per-site thresholds
// (Δe_j = max(Δe_j, s_i[j])). The Builder folds every delta twice: once
// unfiltered, and once with the filter, which discards deltas above the
// site's known-SDC minimum.
//
// The filter stays exact although a round's SDC floors are known only
// when its pass ends. A site's final floor is either its floor before
// the round or the injected error of a pair sampled at it, and both are
// known before the pass. So each round opens a fold whose bucket edges
// are those candidate floors, workers keep the largest masked delta per
// bucket, and MergeWorkers reads each site's filtered threshold off the
// buckets at or below its final floor.
//
// Finalize returns the boundary under the filter setting chosen at
// NewBuilder, FinalizeFilter under either setting. The Builder can keep
// absorbing further rounds (progressive sampling).
type Builder struct {
	golden *trace.GoldenRun
	filter bool
	sig    []float64 // per-site significance floors (see significanceFloor)

	thresholds []float64 // every masked delta folded
	filtered   []float64 // only deltas at or below minSDC folded (§3.5)
	info       []int64   // significant-error observations per site
	minSDC     []float64 // smallest known SDC injected error per site
	reachSum   []int64   // total sites significantly perturbed, per injection site
	reachRuns  []int64   // masked propagation runs observed, per injection site

	round *roundFold // the open round's filter buckets; nil between rounds
}

// NewBuilder returns a Builder for the given golden run. filter selects
// which fold Finalize returns: true for the one with the §3.5 filter
// operation.
func NewBuilder(golden *trace.GoldenRun, filter bool) *Builder {
	n := golden.Sites()
	minSDC := make([]float64, n)
	sig := make([]float64, n)
	for i, g := range golden.Trace {
		minSDC[i] = math.Inf(1)
		sig[i] = significanceFloor(g)
	}
	return &Builder{
		golden:     golden,
		filter:     filter,
		sig:        sig,
		thresholds: make([]float64, n),
		filtered:   make([]float64, n),
		info:       make([]int64, n),
		minSDC:     minSDC,
		reachSum:   make([]int64, n),
		reachRuns:  make([]int64, n),
	}
}

// Sites returns the number of dynamic instructions covered.
func (b *Builder) Sites() int { return len(b.thresholds) }

// ObserveRecord ingests one classified sample; MergeWorkers calls it for
// every record of the round it closes. SDC records update the filter
// floor; every record with a significant injected error counts as
// information at its site.
func (b *Builder) ObserveRecord(rec campaign.Record) {
	if rec.Kind == outcome.SDC && rec.InjErr < b.minSDC[rec.Site] {
		b.minSDC[rec.Site] = rec.InjErr
	}
	if rec.InjErr > b.sig[rec.Site] {
		b.info[rec.Site]++
	}
}

// significanceFloor returns the largest error that is not a significant
// perturbation of the golden value g, so that an error d ≥ 0 (+Inf
// included) is significant exactly when d > floor. Significant means a
// nonzero d with d/|g| above SignificanceRel, or d itself above it where
// g is zero. The rounded quotient d/|g| is monotone in d, so the floor
// is SignificanceRel·|g| moved by a few ulps to the last d whose
// quotient stays at or below SignificanceRel. No error is significant
// against a non-finite g, which golden traces never hold.
func significanceFloor(g float64) float64 {
	ag := math.Abs(g)
	switch {
	case ag == 0:
		return SignificanceRel
	case !(ag <= math.MaxFloat64):
		return math.Inf(1)
	}
	t := SignificanceRel * ag
	for t > 0 && t/ag > SignificanceRel {
		t = math.Nextafter(t, 0)
	}
	for {
		u := math.Nextafter(t, math.Inf(1))
		if u/ag > SignificanceRel {
			return t
		}
		t = u
	}
}

// Info returns the per-site significant-error observation counts (the
// "potential impact" quantity of Figure 4 row 2). The returned slice is
// live; callers must not modify it.
func (b *Builder) Info() []int64 { return b.info }

// MinSDC returns the per-site filter floors. The returned slice is live.
func (b *Builder) MinSDC() []float64 { return b.minSDC }

// MeanReach returns, per injection site, the mean number of dynamic
// instructions an injected error significantly perturbed across the
// site's observed masked propagation runs (0 where no run was observed).
// Reach is the propagation fan-out the SpotSDC visualization work (the
// paper's ref. [20]) studies: high-reach sites feed the boundary a lot of
// evidence per experiment; zero-reach sites are the blind spots adaptive
// sampling targets.
func (b *Builder) MeanReach() []float64 {
	out := make([]float64, len(b.reachSum))
	for i, runs := range b.reachRuns {
		if runs > 0 {
			out[i] = float64(b.reachSum[i]) / float64(runs)
		}
	}
	return out
}

// Finalize returns the current boundary under the filter setting chosen
// at NewBuilder. The thresholds slice is copied, so later observations
// do not mutate the returned boundary.
func (b *Builder) Finalize() *Boundary { return b.FinalizeFilter(b.filter) }

// FinalizeFilter returns the current boundary with the §3.5 filter on or
// off, whatever the setting chosen at NewBuilder: both folds see the same
// masked deltas. The thresholds slice is copied.
func (b *Builder) FinalizeFilter(filter bool) *Boundary {
	src := b.thresholds
	if filter {
		src = b.filtered
	}
	return &Boundary{Thresholds: slices.Clone(src)}
}

// roundFold holds one round's candidate filter floors and the masked
// deltas bucketed between them, for every site in one CSR layout. Site
// j's candidates are edges[off[j]:off[j+1]], sorted ascending, and
// top[j] is the last of them (-Inf where there is none); bucket k
// holds the float64 bits of the largest masked delta in
// (edges[k-1], edges[k]], open below at a site's first edge. A delta
// above a site's top lies above any floor the site can end the round
// with, so only the unfiltered fold keeps it. Workers share the
// buckets: deltas are positive, so their bit patterns order like the
// values, and a CAS on the bits raises a bucket's maximum.
type roundFold struct {
	off   []int
	edges []float64
	top   []float64
	max   []atomic.Uint64
}

// newRoundFold collects the candidate final floors of every site: its
// current finite floor, and each sampled pair's injected error below
// that floor (a larger one can never become the minimum). A counting
// sort over sites fills the CSR arrays without per-site allocations.
// Pairs outside the golden trace are skipped; the campaign rejects them.
func newRoundFold(golden *trace.GoldenRun, floors []float64, pairs []campaign.Pair, width int) *roundFold {
	n := len(floors)
	candidate := func(p campaign.Pair) (float64, bool) {
		if p.Site < 0 || p.Site >= n {
			return 0, false
		}
		e := campaign.InjErrWidth(golden, p.Site, p.Bit, width)
		return e, e < floors[p.Site]
	}
	off := make([]int, n+1)
	for _, p := range pairs {
		if _, ok := candidate(p); ok {
			off[p.Site+1]++
		}
	}
	for j, f := range floors {
		if !math.IsInf(f, 1) {
			off[j+1]++
		}
	}
	for j := range n {
		off[j+1] += off[j]
	}
	// off[j] is site j's fill cursor; once filled, it has advanced to
	// the site's end, which is the next site's start.
	edges := make([]float64, off[n])
	for _, p := range pairs {
		if e, ok := candidate(p); ok {
			edges[off[p.Site]] = e
			off[p.Site]++
		}
	}
	for j, f := range floors {
		if !math.IsInf(f, 1) {
			edges[off[j]] = f
			off[j]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	top := make([]float64, n)
	for j := range n {
		lo, hi := off[j], off[j+1]
		slices.Sort(edges[lo:hi])
		top[j] = math.Inf(-1)
		if lo < hi {
			top[j] = edges[hi-1]
		}
	}
	return &roundFold{off: off, edges: edges, top: top, max: make([]atomic.Uint64, len(edges))}
}

// bucket returns the index of site j's first candidate at or above v, or
// -1 when v lies above all of them.
func (f *roundFold) bucket(j int, v float64) int {
	if !(v <= f.top[j]) {
		return -1
	}
	return f.scan(j, v)
}

// scan returns the index of site j's first candidate at or above
// v ≤ top[j]. A site has a handful of candidates per round, so a linear
// scan beats a binary search.
func (f *roundFold) scan(j int, v float64) int {
	k := f.off[j]
	for f.edges[k] < v {
		k++
	}
	return k
}

// raise lifts bucket k's maximum to the positive delta d.
func (f *roundFold) raise(k int, d float64) {
	nb := math.Float64bits(d)
	for {
		old := f.max[k].Load()
		if nb <= old || f.max[k].CompareAndSwap(old, nb) {
			return
		}
	}
}

// isCandidate reports whether floor is one of site j's candidates.
func (f *roundFold) isCandidate(j int, floor float64) bool {
	k := f.bucket(j, floor)
	return k >= 0 && f.edges[k] == floor
}

// below returns the largest masked delta folded at site j at or below
// floor, one of the site's candidates.
func (f *roundFold) below(j int, floor float64) float64 {
	var m uint64
	for k, last := f.off[j], f.bucket(j, floor); k <= last; k++ {
		m = max(m, f.max[k].Load())
	}
	return math.Float64frombits(m)
}

// Worker is a per-goroutine propagation accumulator. It implements
// campaign.RunSink and trace.SparseSink: a run's nonzero deltas are
// listed as they arrive and committed only if the run's final outcome
// is Masked, as Algorithm 1 requires, so a run costs what its error
// reaches, not the trace length. Worker state is private to one
// goroutine, apart from the round's filter buckets, which all workers
// raise atomically; MergeWorkers folds it back into the Builder.
type Worker struct {
	parent *Builder
	round  *roundFold

	thresholds []float64
	info       []int64
	reachSum   []int64
	reachRuns  []int64

	run  []siteDelta // the current run's nonzero deltas, in site order
	site int         // injection site of the current run
}

// siteDelta is one nonzero propagation delta of a run.
type siteDelta struct {
	site  int
	delta float64
}

// NewWorker returns a sink for one engine worker of the open round.
// Absorb opens the round before its pass, with every floor its samples
// can set as a candidate, and workers may then be built concurrently. A
// Worker built outside Absorb opens a round whose candidates are the
// current floors alone: records that lower a floor afterwards make
// MergeWorkers fail.
func (b *Builder) NewWorker() campaign.RunSink {
	if b.round == nil {
		b.round = newRoundFold(b.golden, b.minSDC, nil, 64)
	}
	n := b.Sites()
	return &Worker{
		parent:     b,
		round:      b.round,
		thresholds: make([]float64, n),
		info:       make([]int64, n),
		reachSum:   make([]int64, n),
		reachRuns:  make([]int64, n),
	}
}

// BeginRun implements campaign.RunSink.
func (w *Worker) BeginRun(_, _ int, site int, _ uint8) { w.run, w.site = w.run[:0], site }

// Observe implements trace.DiffSink.
func (w *Worker) Observe(site int, _, delta float64) {
	w.run = append(w.run, siteDelta{site, delta})
}

// SparseDeltas implements trace.SparseSink.
func (w *Worker) SparseDeltas() {}

// EndRun implements campaign.RunSink: commit the run's deltas if it was
// masked, to the unfiltered thresholds and to the round's filter
// buckets.
func (w *Worker) EndRun(kind outcome.Kind, _, _ float64, _ int) {
	if kind != outcome.Masked {
		return
	}
	sig, f := w.parent.sig, w.round
	var reach int64
	for _, e := range w.run {
		j, d := e.site, e.delta
		if d > sig[j] {
			w.info[j]++
			if j != w.site {
				reach++
			}
		}
		if d > w.thresholds[j] {
			w.thresholds[j] = d
		}
		if d <= f.top[j] {
			f.raise(f.scan(j, d), d)
		}
	}
	w.reachSum[w.site] += reach
	w.reachRuns[w.site]++
}

// MergeWorkers closes the open round: it ingests the round's classified
// records through ObserveRecord, folds the workers' accumulators back
// into the Builder (thresholds by max, information counts by sum), and
// raises each site's filtered threshold to the largest masked delta at
// or below the site's final floor. It returns an error, and changes
// nothing, if a sink is not a worker of this round or a final floor is
// not one of the round's candidates.
func (b *Builder) MergeWorkers(sinks []campaign.RunSink, recs []campaign.Record) error {
	f := b.round
	if f == nil {
		return errors.New("boundary: MergeWorkers without an open round")
	}
	workers := make([]*Worker, len(sinks))
	for i, s := range sinks {
		w, ok := s.(*Worker)
		if !ok {
			return errors.New("boundary: MergeWorkers received a foreign sink")
		}
		if w.parent != b || w.round != f {
			return errors.New("boundary: MergeWorkers received a worker of a different builder or round")
		}
		workers[i] = w
	}
	for j, fl := range b.minSDC {
		if !math.IsInf(fl, 1) && !f.isCandidate(j, fl) {
			return fmt.Errorf("boundary: site %d's SDC floor %g is not a candidate of the round", j, fl)
		}
	}
	for _, rec := range recs {
		if rec.Kind == outcome.SDC && rec.InjErr < b.minSDC[rec.Site] && !f.isCandidate(rec.Site, rec.InjErr) {
			return fmt.Errorf("boundary: SDC record at site %d, bit %d has injected error %g, not a candidate floor of the round",
				rec.Site, rec.Bit, rec.InjErr)
		}
	}

	for _, rec := range recs {
		b.ObserveRecord(rec)
	}
	for _, w := range workers {
		maxInto(b.thresholds, w.thresholds)
		for i, n := range w.info {
			b.info[i] += n
		}
		for i := range w.reachSum {
			b.reachSum[i] += w.reachSum[i]
			b.reachRuns[i] += w.reachRuns[i]
		}
	}
	for j, fl := range b.minSDC {
		if math.IsInf(fl, 1) {
			// No floor has ever filtered this site, so both folds hold
			// the same deltas.
			b.filtered[j] = b.thresholds[j]
		} else if m := f.below(j, fl); m > b.filtered[j] {
			b.filtered[j] = m
		}
	}
	b.round = nil
	return nil
}

// maxInto raises dst[i] to src[i] wherever src is larger.
func maxInto(dst, src []float64) {
	for i, t := range src {
		if t > dst[i] {
			dst[i] = t
		}
	}
}

// BuildOptions configures Build.
type BuildOptions struct {
	// Filter selects the fold Finalize returns (see NewBuilder).
	Filter bool
	// Known, when non-nil, additionally receives every sample outcome
	// (for the §4.4 fully-tested shortcut and the uncertainty metric).
	Known *Known
}

// Build runs the complete inference over a fixed sample of pairs: one
// Absorb round into a new Builder. It returns the builder (so
// progressive sampling can continue) and the classified records.
func Build(cfg campaign.Config, pairs []campaign.Pair, opts BuildOptions) (*Builder, []campaign.Record, error) {
	b := NewBuilder(cfg.Golden, opts.Filter)
	recs, err := b.Absorb(cfg, pairs, opts.Known)
	if err != nil {
		return nil, nil, err
	}
	return b, recs, nil
}

// Absorb ingests one round of samples into an existing builder in one
// campaign pass: every pair runs once, in diff mode, with a Worker as
// its run sink; the records then go to MergeWorkers and to known (which
// may be nil). A cfg.Sink of the caller (a trajectory recorder) sees
// every run too, teed with the Worker. A cfg.Observer sees one event
// phase per round, "classify". A cancelled cfg.Context aborts the pass
// promptly with the context's error. A cancelled or failed Absorb
// leaves the Builder and known unchanged. Inference is defined over
// the single-bit-flip space, so a non-default cfg.Model is an error.
func (b *Builder) Absorb(cfg campaign.Config, pairs []campaign.Pair, known *Known) ([]campaign.Record, error) {
	tcfg, err := cfg.NormalizedTarget()
	if err != nil {
		return nil, err
	}
	if !tcfg.Model.IsDefault() {
		return nil, fmt.Errorf("boundary: inference is defined over the single-bit-flip space, not fault model %q", tcfg.Model)
	}
	b.round = newRoundFold(b.golden, b.minSDC, pairs, tcfg.Width)
	defer func() { b.round = nil }()

	// The engine builds one sink per started worker, on that worker's
	// goroutine.
	var (
		mu      sync.Mutex
		workers []campaign.RunSink
	)
	caller := cfg.Sink
	cfg.Sink = func(worker int) campaign.RunSink {
		w := b.NewWorker()
		mu.Lock()
		workers = append(workers, w)
		mu.Unlock()
		if caller != nil {
			if s := caller(worker); s != nil {
				return &tee{fold: w.(*Worker), next: s}
			}
		}
		return w
	}
	recs, err := campaign.RunPairs(cfg, pairs)
	if err != nil {
		return nil, err
	}
	if err := b.MergeWorkers(workers, recs); err != nil {
		return nil, err
	}
	if known != nil {
		for _, rec := range recs {
			known.Add(rec)
		}
	}
	return recs, nil
}

// tee hands one engine worker's runs to its fold Worker and to the
// caller's own run sink. It is a dense sink, so the caller's sink keeps
// the full delta stream; the fold gets only the nonzero deltas.
type tee struct {
	fold *Worker
	next campaign.RunSink
}

// BeginRun implements campaign.RunSink.
func (t *tee) BeginRun(run, worker int, site int, bit uint8) {
	t.fold.BeginRun(run, worker, site, bit)
	t.next.BeginRun(run, worker, site, bit)
}

// Observe implements trace.DiffSink.
func (t *tee) Observe(site int, golden, delta float64) {
	if delta != 0 {
		t.fold.Observe(site, golden, delta)
	}
	t.next.Observe(site, golden, delta)
}

// EndRun implements campaign.RunSink.
func (t *tee) EndRun(kind outcome.Kind, injErr, outErr float64, crashSite int) {
	t.fold.EndRun(kind, injErr, outErr, crashSite)
	t.next.EndRun(kind, injErr, outErr, crashSite)
}

// RecordsTrajectories implements campaign.TrajectoryRecorder: the tee
// records what the caller's sink records.
func (t *tee) RecordsTrajectories() bool {
	r, ok := t.next.(campaign.TrajectoryRecorder)
	return ok && r.RecordsTrajectories()
}
