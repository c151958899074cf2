package boundary

import (
	"errors"
	"math"
	"slices"
	"sync"

	"ftb/internal/campaign"
	"ftb/internal/outcome"
	"ftb/internal/trace"
)

// Builder infers a fault tolerance boundary from sampled fault-injection
// experiments (Algorithm 1 plus the §3.5 filter operation).
//
// Usage follows the two passes of a sampled campaign:
//
//  1. Feed every classified sample to ObserveRecord. SDC records teach the
//     filter (the smallest injected error known to cause SDC per site);
//     all records teach the per-site information counts used by adaptive
//     sampling.
//  2. Run the masked samples through campaign.RunPairsInPhase as the
//     "propagate" phase, with Config.Sink handing each engine worker a
//     sink from NewWorker, then call MergeWorkers. Each masked run's
//     propagation deltas raise the per-site thresholds
//     (Δe_j = max(Δe_j, s_i[j])). The Builder folds every delta twice:
//     once unfiltered, and once with the filter, which discards deltas
//     above the site's known-SDC minimum.
//
// Finalize returns the boundary under the filter setting chosen at
// NewBuilder, FinalizeFilter under either setting. The Builder can keep
// absorbing further rounds (progressive sampling re-enters both passes).
type Builder struct {
	golden *trace.GoldenRun
	filter bool

	thresholds []float64 // every masked delta folded
	filtered   []float64 // only deltas at or below minSDC folded (§3.5)
	info       []int64   // significant-error observations per site
	minSDC     []float64 // smallest known SDC injected error per site
	reachSum   []int64   // total sites significantly perturbed, per injection site
	reachRuns  []int64   // masked propagation runs observed, per injection site
}

// NewBuilder returns a Builder for the given golden run. filter selects
// which fold Finalize returns: true for the one with the §3.5 filter
// operation.
func NewBuilder(golden *trace.GoldenRun, filter bool) *Builder {
	n := golden.Sites()
	minSDC := make([]float64, n)
	for i := range minSDC {
		minSDC[i] = math.Inf(1)
	}
	return &Builder{
		golden:     golden,
		filter:     filter,
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

// ObserveRecord ingests one classified sample (pass 1). SDC records
// update the filter floor; every record with a significant injected error
// counts as information at its site.
func (b *Builder) ObserveRecord(rec campaign.Record) {
	if rec.Kind == outcome.SDC && rec.InjErr < b.minSDC[rec.Site] {
		b.minSDC[rec.Site] = rec.InjErr
	}
	if significant(b.golden.Trace[rec.Site], rec.InjErr) {
		b.info[rec.Site]++
	}
}

// significant reports whether delta is a significant perturbation of the
// golden value g: relative error above SignificanceRel, falling back to
// the absolute delta when g is (near) zero.
func significant(g, delta float64) bool {
	if delta == 0 {
		return false
	}
	ag := math.Abs(g)
	if ag < math.SmallestNonzeroFloat64 {
		return delta > SignificanceRel
	}
	return delta/ag > SignificanceRel
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

// Worker is a per-goroutine propagation accumulator. It implements
// campaign.RunSink: deltas observed during a run are buffered and
// committed only if the run's final outcome is Masked, as Algorithm 1
// requires. Worker state is private to one goroutine; MergeWorkers folds
// it back into the Builder.
type Worker struct {
	parent *Builder

	thresholds []float64
	filtered   []float64
	info       []int64
	reachSum   []int64
	reachRuns  []int64

	buf  []float64 // per-run deltas, indexed by site
	seen int       // sites observed in the current run
	site int       // injection site of the current run
}

// NewWorker returns a sink for one engine worker of the propagate pass.
// The parent Builder's filter floors must be complete (pass 1 finished)
// before any worker runs; workers read them concurrently and never
// write them.
func (b *Builder) NewWorker() campaign.RunSink {
	n := b.Sites()
	return &Worker{
		parent:     b,
		thresholds: make([]float64, n),
		filtered:   make([]float64, n),
		info:       make([]int64, n),
		reachSum:   make([]int64, n),
		reachRuns:  make([]int64, n),
		buf:        make([]float64, n),
	}
}

// BeginRun implements campaign.RunSink.
func (w *Worker) BeginRun(_, _ int, site int, _ uint8) { w.seen, w.site = 0, site }

// Observe implements trace.DiffSink. Sites arrive in execution order
// (0, 1, 2, ...), so the buffer prefix [0, seen) is the current run.
func (w *Worker) Observe(site int, golden, delta float64) {
	if site < len(w.buf) {
		w.buf[site] = delta
		if site >= w.seen {
			w.seen = site + 1
		}
	}
}

// ObserveZeroPrefix implements trace.ZeroPrefixSink: a run resumed from
// a golden-prefix snapshot reports its skipped prefix as zeros in one
// call.
func (w *Worker) ObserveZeroPrefix(n int) {
	n = min(n, len(w.buf))
	clear(w.buf[:n])
	if n > w.seen {
		w.seen = n
	}
}

// EndRun implements campaign.RunSink: commit the run's deltas if it was
// masked, to the unfiltered and the filtered thresholds alike.
func (w *Worker) EndRun(kind outcome.Kind, _, _ float64, _ int) {
	if kind != outcome.Masked {
		return
	}
	g := w.parent.golden.Trace
	minSDC := w.parent.minSDC
	var reach int64
	for j := 0; j < w.seen; j++ {
		d := w.buf[j]
		if d == 0 {
			continue
		}
		if significant(g[j], d) {
			w.info[j]++
			if j != w.site {
				reach++
			}
		}
		if d > w.thresholds[j] {
			w.thresholds[j] = d
		}
		if d <= minSDC[j] && d > w.filtered[j] {
			w.filtered[j] = d
		}
	}
	w.reachSum[w.site] += reach
	w.reachRuns[w.site]++
}

// MergeWorkers folds propagation accumulators back into the Builder:
// both threshold arrays merge by max, information counts by sum.
func (b *Builder) MergeWorkers(sinks []campaign.RunSink) error {
	for _, s := range sinks {
		w, ok := s.(*Worker)
		if !ok {
			return errors.New("boundary: MergeWorkers received a foreign sink")
		}
		if w.parent != b {
			return errors.New("boundary: MergeWorkers received a worker of a different builder")
		}
		maxInto(b.thresholds, w.thresholds)
		maxInto(b.filtered, w.filtered)
		for i, n := range w.info {
			b.info[i] += n
		}
		for i := range w.reachSum {
			b.reachSum[i] += w.reachSum[i]
			b.reachRuns[i] += w.reachRuns[i]
		}
	}
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

// Build runs the complete two-pass inference over a fixed sample of
// pairs: classify every sample (pass 1), then collect propagation data
// from the masked subset (pass 2) and aggregate it into a boundary. It
// returns the builder (so progressive sampling can continue) and the
// classified records.
func Build(cfg campaign.Config, pairs []campaign.Pair, opts BuildOptions) (*Builder, []campaign.Record, error) {
	b := NewBuilder(cfg.Golden, opts.Filter)
	recs, err := b.Absorb(cfg, pairs, opts.Known)
	if err != nil {
		return nil, nil, err
	}
	return b, recs, nil
}

// Absorb ingests one round of samples into an existing builder: pass 1
// classification of all pairs, then pass 2 propagation over the masked
// subset. known may be nil. Both passes run on the campaign engine, so a
// cfg.Observer sees two event phases per round ("classify" over all
// pairs, then "propagate" over the masked subset) and a cancelled
// cfg.Context aborts either pass promptly with the context's error.
func (b *Builder) Absorb(cfg campaign.Config, pairs []campaign.Pair, known *Known) ([]campaign.Record, error) {
	recs, err := campaign.RunPairs(cfg, pairs)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, rec := range recs {
		b.ObserveRecord(rec)
		if known != nil {
			known.Add(rec)
		}
		if rec.Kind == outcome.Masked {
			n++
		}
	}
	masked := make([]campaign.Pair, 0, n)
	for _, rec := range recs {
		if rec.Kind == outcome.Masked {
			masked = append(masked, rec.Pair)
		}
	}
	// The engine builds one sink per started worker, on that worker's
	// goroutine. The pass keeps no records: its result is the sinks.
	var (
		mu    sync.Mutex
		sinks []campaign.RunSink
	)
	cfg.Sink = func(int) campaign.RunSink {
		w := b.NewWorker()
		mu.Lock()
		sinks = append(sinks, w)
		mu.Unlock()
		return w
	}
	if err := campaign.RunPairsInPhase(cfg, masked, "propagate", nil); err != nil {
		return nil, err
	}
	if err := b.MergeWorkers(sinks); err != nil {
		return nil, err
	}
	return recs, nil
}
