// Package campaign executes fault-injection campaigns: the exhaustive
// ground-truth campaign (every bit of every dynamic instruction) and
// sampled campaigns over chosen (site, bit) pairs, optionally streaming
// each run's propagation deltas to a per-worker RunSink (trajectory
// recording, or the boundary-inference fold).
//
// Campaigns are embarrassingly parallel and run on the package's
// execution engine (engine.go): a context-aware dispatcher that feeds a
// goroutine worker pool from a shared work queue in small batches
// (dynamic scheduling). Each worker owns a private program instance
// (kernels keep mutable work buffers) and a private trace context;
// results are merged in input order, so campaign output is
// byte-identical regardless of GOMAXPROCS, worker count, or batch size.
// Campaigns are cancellable through Config.Context, observable through
// Config.Observer, and propagate the first worker error uniformly from
// every entry point.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"

	"ftb/internal/bits"
	"ftb/internal/obs"
	"ftb/internal/outcome"
	"ftb/internal/telemetry"
	"ftb/internal/trace"
)

// Pair identifies one fault-injection experiment: flip bit Bit of the
// value stored by dynamic instruction Site.
type Pair struct {
	Site int
	Bit  uint8
}

// PairAt maps a flat sample-space index to its experiment under the
// canonical row-major (site-major, bit-minor) layout. Every enumeration
// of the (site × bit) space — exhaustive campaigns, uniform sampling,
// Monte Carlo draws — must go through this mapping so fault-model
// indexing can never drift between them.
func PairAt(index, bitsN int) Pair {
	return Pair{Site: index / bitsN, Bit: uint8(index % bitsN)}
}

// Record is the classified result of one experiment.
type Record struct {
	Pair
	Kind   outcome.Kind
	InjErr float64 // |flipped − original| at the injection site (+Inf if unsafe)
	OutErr float64 // L∞ output deviation (+Inf for crashes)
}

// Campaign sizing limits.
const (
	// MaxWorkers is the largest accepted Config.Workers. Campaign
	// workers each run a full program instance; pools beyond this bound
	// indicate a configuration bug (e.g. sites passed as workers), not a
	// bigger machine.
	MaxWorkers = 1024
	// DefaultBatch is the number of experiments a worker claims from the
	// queue at a time when Config.Batch is zero. Small enough that
	// cancellation and progress stay responsive, large enough that queue
	// contention is negligible next to a program execution.
	DefaultBatch = 32
)

// Config describes the campaign target.
type Config struct {
	// Factory creates an independent program instance; it is called once
	// per worker. Instances must produce identical store sequences.
	Factory func() trace.Program
	// Golden is the fault-free run of the program.
	Golden *trace.GoldenRun
	// Tol is the acceptable L∞ output deviation T.
	Tol float64
	// Bits is the number of fault coordinates probed per site (default:
	// the Model's full population at Width — the word width for the
	// default single-bit-flip model).
	Bits int
	// Width is the IEEE-754 width of the program's data elements: 64 for
	// programs instrumented with Ctx.Store (the default) or 32 for
	// programs instrumented with Ctx.Store32. Bits may not exceed the
	// Model's population at this width.
	Width int
	// Model is the fault model applied at injection sites. The zero value
	// is the paper's single-bit flip; see bits.FaultModel for the
	// multi/burst/region/stuck-at generalizations. Pair.Bit is then a
	// region-relative fault coordinate in [0, Model.BitsPerSite(Width)).
	Model bits.FaultModel
	// Workers caps the pool size (default runtime.GOMAXPROCS(0), at most
	// MaxWorkers).
	Workers int
	// Batch is the scheduling granularity in experiments (default
	// DefaultBatch): the size of a queue claim, and the
	// cancellation-check and progress-event interval.
	Batch int
	// Context, when non-nil, cancels the campaign: entry points return
	// the context's error promptly (within one in-flight experiment per
	// worker) without leaking goroutines. Items completed before the
	// cancellation are still valid.
	Context context.Context
	// Observer, when non-nil, receives structured progress events after
	// every completed batch. Callbacks run synchronously on worker
	// goroutines under an internal lock: they MUST be cheap and
	// non-blocking, or they will serialize the pool.
	Observer Observer
	// Collector, when non-nil, receives the engine's telemetry: per-run
	// latency, outcome counts, batch queue wait, per-worker experiment
	// counts, and per-campaign wall-clock, keyed by campaign phase. Unlike
	// the Observer path it is fed from the experiment hot path, which is
	// why it is the concrete lock-cheap collector rather than an
	// interface. One collector may serve many campaigns concurrently.
	Collector *telemetry.Collector
	// Sink, when non-nil, is called once per engine worker to build that
	// worker's RunSink, and switches the campaign into diff mode: every
	// experiment streams its per-site |golden − corrupted| deltas to the
	// worker's sink between a BeginRun/EndRun pair. A trajectory recorder
	// (*proptrace.Recorder) records trajectories without a second
	// campaign; Algorithm 1's fold (*boundary.Worker) raises per-site
	// thresholds from masked runs in the pass that classifies them.
	// Records and outcome counts are identical to the sinkless path; only
	// execution cost changes. A factory returning nil leaves that worker
	// sinkless.
	Sink func(worker int) RunSink
	// Replay enables checkpointed prefix replay: a worker whose program
	// implements trace.Snapshotter snapshots the kernel state at the
	// injection site and replays every experiment at that site from the
	// snapshot, instead of re-executing the prefix from the program
	// entry. Programs implementing trace.MultiSnapshotter also get a
	// pool of golden snapshots seeding out-of-order rebuilds; with
	// trace.StateComparer, untraced runs that provably reconverge with
	// the golden trace stop early; with trace.DeltaSnapshotter, restores
	// copy back only the dirtied interval. Classification output is
	// byte-identical to a vanilla campaign; only execution cost changes.
	// Programs that do not implement Snapshotter fall back to the vanilla
	// path silently.
	Replay bool
	// Logger, when non-nil, receives the engine's structured event log:
	// campaign start/stop, resumes, and trace-mismatch aborts, at
	// conventional slog levels (Debug for lifecycle, Warn for aborts).
	// Nil discards events; the engine never logs from the
	// per-experiment hot path.
	Logger *slog.Logger
	// Spans, when non-nil, records the campaign's hierarchical execution
	// spans: one phase span, chained queue-wait/batch spans per worker,
	// sampled experiment spans, and typed sub-spans (checkpoint restore,
	// compose predict/tail/fallback). Like Collector it is fed from the
	// hot path, so it is the concrete striped recorder, not an interface.
	Spans *obs.Recorder
	// SpanParent is the span ID the phase span attaches to (0 = root),
	// typically a facade-level campaign span or, on a cluster worker, 0
	// so the coordinator can graft the lease's spans under its own tree.
	SpanParent uint64
	// SpanSample records one experiment span (with sub-spans) per this
	// many experiments per worker (0 = obs.DefaultSampleEvery).
	// Unsampled experiments cost one counter increment and no clock
	// reads, which is what keeps span overhead inside the ≤5% budget.
	SpanSample int
}

// RunSink consumes one worker's per-run diff streams. It extends
// trace.DiffSink with per-run boundaries carrying campaign coordinates:
// the engine calls BeginRun before each experiment (run is the
// campaign-wide experiment index, worker the engine worker executing
// it), streams the per-site deltas through Observe, and closes the run
// with its classified outcome via EndRun (crashSite is -1 when the run
// did not crash). A RunSink is owned by a single worker and is never
// called concurrently; *proptrace.Recorder and *boundary.Worker
// implement it. On a campaign abort (error or cancellation) an opened
// run may never see its EndRun — implementations must tolerate
// dropping it.
type RunSink interface {
	trace.DiffSink
	BeginRun(run, worker int, site int, bit uint8)
	EndRun(kind outcome.Kind, injErr, outErr float64, crashSite int)
}

// TrajectoryRecorder is optionally implemented by a RunSink that records
// one propagation trajectory per run it sees (*proptrace.Recorder, or a
// sink forwarding to one). The telemetry collector counts a run as a
// trajectory only when its worker's sink reports RecordsTrajectories; a
// sink that folds deltas instead, like *boundary.Worker, does not
// implement it.
type TrajectoryRecorder interface {
	RunSink
	RecordsTrajectories() bool
}

func (c *Config) normalized() (Config, error) {
	if c.Factory == nil {
		return *c, errors.New("campaign: Config.Factory is required")
	}
	out, err := c.NormalizedTarget()
	if err != nil {
		return out, err
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Workers > MaxWorkers {
		return out, fmt.Errorf("campaign: workers %d above limit %d", out.Workers, MaxWorkers)
	}
	if out.Batch == 0 {
		out.Batch = DefaultBatch
		if out.Replay {
			// Site-aligned claims: exhaustive campaigns enumerate pairs
			// site-major, so a batch of Bits experiments is exactly one
			// site's worth of flips — each snapshot a worker builds is
			// used for a full claim before the queue hands it elsewhere.
			out.Batch = out.Bits
		}
	}
	if out.Batch < 1 {
		return out, fmt.Errorf("campaign: batch %d must be positive", out.Batch)
	}
	return out, nil
}

// NormalizedTarget validates the campaign target — Golden, Tol, Width,
// Model and Bits — and fills in the defaults of Width, Bits, Context and
// Logger. It does not require Factory: a cluster coordinator, which runs
// no program itself, normalizes its campaign through it.
func (c Config) NormalizedTarget() (Config, error) {
	out := c
	if out.Golden == nil {
		return out, errors.New("campaign: Config.Golden is required")
	}
	if out.Tol <= 0 {
		return out, fmt.Errorf("campaign: tolerance %g must be positive", out.Tol)
	}
	if out.Width == 0 {
		out.Width = 64
	}
	if out.Width != 32 && out.Width != 64 {
		return out, fmt.Errorf("campaign: width %d must be 32 or 64", out.Width)
	}
	if err := out.Model.Validate(out.Width); err != nil {
		return out, fmt.Errorf("campaign: %w", err)
	}
	pop := out.Model.BitsPerSite(out.Width)
	if out.Bits == 0 {
		out.Bits = pop
	}
	if out.Bits < 1 || out.Bits > pop {
		return out, fmt.Errorf("campaign: bits %d outside [1, %d] (fault model %q at width %d)",
			out.Bits, pop, out.Model, out.Width)
	}
	if out.Context == nil {
		out.Context = context.Background()
	}
	if out.Logger == nil {
		out.Logger = slog.New(slog.DiscardHandler)
	}
	return out, nil
}

// validatePairs rejects experiments outside the program's (site ×
// population) space up front, so a bad selection fails loudly instead of
// panicking in a worker or silently probing the wrong site.
func validatePairs(cfg Config, pairs []Pair) error {
	sites := cfg.Golden.Sites()
	pop := cfg.Model.BitsPerSite(cfg.Width)
	for _, p := range pairs {
		if p.Site < 0 || p.Site >= sites {
			return fmt.Errorf("campaign: pair site %d outside [0, %d)", p.Site, sites)
		}
		if int(p.Bit) >= pop {
			return fmt.Errorf("campaign: pair coordinate %d outside the %d-coordinate fault population (model %q, width %d)",
				p.Bit, pop, cfg.Model, cfg.Width)
		}
	}
	return nil
}

// classify builds the Record for one completed injection run.
func classify(golden *trace.GoldenRun, tol float64, pair Pair, res trace.InjectResult) Record {
	return Record{
		Pair:   pair,
		Kind:   outcome.Classify(golden.Output, res.Output, tol, res.Crashed),
		InjErr: res.InjErr,
		OutErr: outcome.OutputError(golden.Output, res.Output, res.Crashed),
	}
}

// RunPair executes a single experiment with an existing context and
// program instance, from the program entry and without the
// trace-mismatch check the engine workers apply.
func RunPair(ctx *trace.Ctx, p trace.Program, golden *trace.GoldenRun, tol float64, pair Pair) Record {
	res, _ := trace.Run(ctx, p, nil, trace.Plan{Site: pair.Site, Bit: uint(pair.Bit)})
	return classify(golden, tol, pair, res)
}

// pairWorker is the per-goroutine state of a pair campaign.
type pairWorker struct {
	p      trace.Program
	ctx    trace.Ctx
	worker int
	sink   RunSink                     // nil when the campaign streams no deltas
	traced bool                        // sink records a trajectory per run
	replay *replayCache                // nil when replay is off or unsupported
	rec    *telemetry.CampaignRecorder // nil when the campaign is uncollected
	sp     *obs.WorkerSpans            // nil-safe when the campaign records no spans
}

// newPairWorker builds one worker's state, attaching its run sink when
// the campaign streams deltas and its replay cache when the campaign
// replays prefixes and the program can snapshot. A program that does not
// implement trace.Snapshotter silently keeps the vanilla full-execution
// path — Replay is a pure optimization, never a capability requirement.
func newPairWorker(cfg Config, w int, rec *telemetry.CampaignRecorder, sp *obs.WorkerSpans) *pairWorker {
	pw := &pairWorker{p: cfg.Factory(), worker: w, rec: rec, sp: sp}
	pw.ctx.SetFaultModel(cfg.Model)
	if cfg.Sink != nil {
		pw.sink = cfg.Sink(w)
		if r, ok := pw.sink.(TrajectoryRecorder); ok {
			pw.traced = r.RecordsTrajectories()
		}
	}
	if cfg.Replay {
		if s, ok := pw.p.(trace.Snapshotter); ok {
			pw.replay = newReplayCache(cfg.Golden.Sites(), s)
		}
	}
	return pw
}

// chargeRestore records one prepared experiment's restore accounting:
// the typed obs sub-span (started at t) and the telemetry tier counters.
// Site-snapshot hits count as the second tier (the first, boundary tier
// of the telemetry schema is never charged); pool-seeded and
// golden-prefix rebuilds count as misses.
func chargeRestore(rec *telemetry.CampaignRecorder, sp *obs.WorkerSpans, worker int, t int64, pr prep) {
	cat := obs.CatRestore
	switch pr.tier {
	case tierSite:
		cat = obs.CatRestoreSite
	case tierPool:
		cat = obs.CatRestorePool
	case tierMiss:
		cat = obs.CatRestoreBuild
	}
	sp.Sub(cat, t, int64(pr.resume))
	if rec == nil {
		return
	}
	switch pr.tier {
	case tierSite:
		rec.RestoreTier2(worker)
	case tierPool:
		rec.RestorePool(worker)
	case tierMiss:
		rec.RestoreMiss(worker)
	default:
		return
	}
	if pr.delta {
		rec.DeltaRestore(worker)
	}
	rec.StoresSkipped(worker, int64(pr.resume))
}

// runChecked executes one experiment on this worker. With a run sink
// attached, the run streams its per-site deltas there, bracketed by the
// sink's BeginRun/EndRun. With a replay cache, the experiment resumes
// from the site's prefix snapshot instead of the program entry. Records
// are identical on every path, and every path applies trace.Run's
// trace-mismatch check. run is the campaign-wide experiment index
// handed to the sink.
func (w *pairWorker) runChecked(cfg Config, run int, pair Pair) (Record, error) {
	pl := trace.Plan{Site: pair.Site, Bit: uint(pair.Bit)}
	if w.replay != nil {
		t := w.sp.SubClock()
		pr, err := w.replay.prepare(&w.ctx, pair.Site)
		chargeRestore(w.rec, w.sp, w.worker, t, pr)
		if err != nil {
			return Record{}, err
		}
		pl.Resume = pr.resume
	}
	switch {
	case w.sink != nil:
		w.sink.BeginRun(run, w.worker, pair.Site, pair.Bit)
		pl.Sink = w.sink
	case w.replay != nil:
		// Untraced runs on a pooled, state-comparable kernel may prove
		// mid-run that they replay the golden suffix exactly and return
		// early with the golden output — byte-identical classification,
		// fewer executed stores. Diff runs never take this path: their
		// sinks need the full delta stream.
		if first, step, ok := w.replay.convergeSchedule(pair.Site, uint(pair.Bit)); ok {
			pl.Converge = trace.Converge{First: first, Step: step, StateAt: w.replay.poolStateAt}
		}
	}
	res, err := trace.Run(&w.ctx, w.p, cfg.Golden, pl)
	if err != nil {
		return Record{}, err
	}
	if pl.Converge.StateAt != nil {
		w.replay.convergeResult(uint(pair.Bit), res)
		if w.rec != nil && res.ConvergedAt > 0 {
			w.rec.Converge(w.worker, int64(cfg.Golden.Sites()-res.ConvergedAt))
		}
	}
	rec := classify(cfg.Golden, cfg.Tol, pair, res)
	if w.sink != nil {
		crashAt := -1
		if res.Crashed {
			crashAt = res.CrashAt
		}
		w.sink.EndRun(rec.Kind, rec.InjErr, rec.OutErr, crashAt)
		if w.traced && w.rec != nil {
			w.rec.Traced(w.worker)
		}
	}
	return rec, nil
}

// RunPairs executes all experiments on the engine and returns their
// records in input order. The first worker error (e.g. a trace mismatch)
// cancels the remaining work and is returned; a cancelled Config.Context
// surfaces as its context error.
func RunPairs(cfg Config, pairs []Pair) ([]Record, error) {
	records := make([]Record, len(pairs))
	if err := RunPairsInPhase(cfg, pairs, "classify", records); err != nil {
		return nil, err
	}
	return records, nil
}

// RunPairsInPhase is the one entry point of every pair campaign: it
// executes pairs under an explicit telemetry/observer phase label and
// writes pairs[i]'s record to records[i]. records is caller-owned and
// must have len(pairs) entries, or be nil for a pass whose result lives
// entirely in its run sinks. Cluster workers execute exhaustive-campaign
// shards through it under the campaign's phase, instead of every remote
// shard masquerading as "classify". Which worker (and therefore which
// sink) handles an experiment depends on scheduling; sinks whose merge
// is a max/sum fold over the same run set, like boundary inference's,
// merge deterministically.
func RunPairsInPhase(cfg Config, pairs []Pair, phase string, records []Record) error {
	cfg, err := cfg.normalized()
	if err != nil {
		return err
	}
	if records != nil && len(records) != len(pairs) {
		return fmt.Errorf("campaign: %d records for %d pairs", len(records), len(pairs))
	}
	if err := validatePairs(cfg, pairs); err != nil {
		return err
	}
	return runEngine(cfg, phase, len(pairs),
		func(w int, rec *telemetry.CampaignRecorder, sp *obs.WorkerSpans) *pairWorker {
			return newPairWorker(cfg, w, rec, sp)
		},
		func(w *pairWorker, i int) (outcome.Kind, error) {
			rec, err := w.runChecked(cfg, i, pairs[i])
			if err != nil {
				return 0, err
			}
			if records != nil {
				records[i] = rec
			}
			return rec.Kind, nil
		}, nil)
}

// AllPairs enumerates the complete sample space: every bit of every site.
func AllPairs(sites, bitsPerSite int) []Pair {
	pairs := make([]Pair, 0, sites*bitsPerSite)
	for s := 0; s < sites; s++ {
		for b := 0; b < bitsPerSite; b++ {
			pairs = append(pairs, Pair{Site: s, Bit: uint8(b)})
		}
	}
	return pairs
}
