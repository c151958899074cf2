// Package ftb (fault tolerance boundary) analyzes a program's resiliency
// to silent data corruption through error propagation, implementing the
// method of Li et al., "Understanding a Program's Resiliency Through
// Error Propagation" (PPoPP 2021).
//
// The core idea: every dynamic instruction i of a program has a fault
// tolerance threshold Δe_i — the largest error that can be injected into
// its result while the program still produces an acceptable output. The
// collection of thresholds is the program's fault tolerance boundary.
// Instead of finding it with an exhaustive fault-injection campaign
// (sites × 64 runs), ftb infers it from the error-propagation data of a
// small sample of injections: when an injected error propagates a
// perturbation Δe to instruction k and the run is still masked,
// instruction k tolerates at least Δe.
//
// # Quick start
//
//	an, err := ftb.NewKernelAnalysis("cg", ftb.SizeSmall)
//	if err != nil { ... }
//	res, err := an.InferBoundary(ftb.InferOptions{SampleFrac: 0.01, Filter: true, Seed: 1})
//	if err != nil { ... }
//	fmt.Printf("predicted SDC ratio: %.2f%%\n", 100*res.PredictedSDCRatio())
//	fmt.Printf("self-verified uncertainty: %.2f%%\n", 100*res.Uncertainty())
//
// Programs are instrumented by writing every tracked floating-point store
// as v = ctx.Store(v) against a trace.Ctx (see the Program interface);
// the built-in HPC kernels (KernelNames lists them: cg, lu, fft, cholesky,
// heat3d, stencil, stencil32, matvec, spmv, matmul) show the pattern.
//
// # Campaign execution options
//
// Every campaign-running method accepts trailing RunOptions controlling
// how its campaigns execute — cancellation (WithContext), progress
// streaming (WithObserver), parallelism (WithWorkers), checkpointed
// replay (on unless WithoutReplay), and metrics collection
// (WithCollector):
//
//	col := ftb.NewCollector()
//	gt, err := an.Exhaustive(ftb.WithCollector(col), ftb.WithWorkers(8))
//	col.Snapshot().WriteJSON(os.Stdout)
//
// Analysis.With applies RunOptions persistently to a copy of the
// Analysis. RunOptions are the only way to configure a run: Options
// describes just the program's fault space (Bits, Width), and no other
// struct re-declares a RunOption's hook. Every campaign the call starts
// — classification, inference, cluster shards —
// receives the same resolved configuration.
//
// # Compositional section campaigns
//
// Kernels that declare compositional sections (contiguous partitions of
// the dynamic-instruction range, surfaced through Analysis.Sections)
// can run Exhaustive in composed mode: each experiment executes only to
// the end of its own section and the remaining outcome is predicted by
// chaining per-section error-transfer summaries, falling back to full
// execution when the evidence is inconclusive. Opt in with WithCompose;
// override the section layout with WithSections.
package ftb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"

	"ftb/internal/bits"
	"ftb/internal/boundary"
	"ftb/internal/campaign"
	"ftb/internal/kernels"
	"ftb/internal/metrics"
	"ftb/internal/outcome"
	"ftb/internal/proptrace"
	"ftb/internal/rng"
	"ftb/internal/sampling"
	"ftb/internal/sections"
	"ftb/internal/telemetry"
	"ftb/internal/trace"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public names.
type (
	// Program is an instrumented program: its Run method funnels every
	// tracked floating-point store through Ctx.Store.
	Program = trace.Program
	// Ctx is the per-run execution context handed to Program.Run.
	Ctx = trace.Ctx
	// GoldenRun is a fault-free execution: per-site values plus output.
	GoldenRun = trace.GoldenRun
	// Kernel is a built-in benchmark program with tolerance and phases.
	Kernel = kernels.Kernel
	// Phase labels a contiguous dynamic-instruction range of a kernel.
	Phase = kernels.Phase
	// Pair identifies one experiment: flip Bit at dynamic instruction Site.
	Pair = campaign.Pair
	// Record is a classified experiment result.
	Record = campaign.Record
	// GroundTruth holds an exhaustive campaign's outcome per (site, bit).
	GroundTruth = campaign.GroundTruth
	// MCEstimate is a Monte Carlo campaign's whole-program SDC-ratio
	// estimate with its 95% confidence interval.
	MCEstimate = campaign.MCEstimate
	// Outcome is an experiment outcome kind (Masked, SDC, Crash).
	Outcome = outcome.Kind
	// Boundary is a program's fault tolerance boundary.
	Boundary = boundary.Boundary
	// Known records sampled outcomes for the §4.4 shortcut and the
	// uncertainty metric.
	Known = boundary.Known
	// Predictor classifies arbitrary (site, bit) experiments from a
	// boundary.
	Predictor = boundary.Predictor
	// PR is the precision / recall / uncertainty evaluation triple.
	PR = metrics.PR
	// SiteSeries holds per-site true/predicted SDC and impact profiles.
	SiteSeries = metrics.SiteSeries
	// Grouped is a SiteSeries reduced over groups of consecutive sites.
	Grouped = metrics.Grouped
	// ProgressEvent is a progress snapshot emitted by a running campaign.
	ProgressEvent = campaign.Event
	// Observer receives ProgressEvents from running campaigns. Callbacks
	// are invoked synchronously from campaign workers and must be cheap
	// and non-blocking.
	Observer = campaign.Observer
	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = campaign.ObserverFunc
	// Collector is the lock-cheap campaign metrics collector: attach one
	// with WithCollector and the engine feeds it per-run latency, outcome
	// counters, queue wait, and per-worker experiment counts as the
	// campaign executes. Construct with NewCollector.
	Collector = telemetry.Collector
	// MetricsSnapshot is a point-in-time aggregate of a Collector,
	// exportable as JSON (WriteJSON) or Prometheus-style text exposition
	// (WritePrometheus).
	MetricsSnapshot = telemetry.Snapshot
	// Trajectory is one recorded error-propagation trajectory: the
	// per-site |golden − corrupted| deviations of a single injection,
	// downsampled under a bounded budget with its extrema and crossings
	// kept exact. Record them with WithPropTrace.
	Trajectory = proptrace.Trajectory
	// TrajectorySample is one retained (site, deviation) point of a
	// trajectory.
	TrajectorySample = proptrace.Sample
	// TrajectorySink consumes trajectories as campaign runs complete.
	// Implementations must be safe for concurrent use (one recorder per
	// campaign worker feeds the same sink); a Trajectory's Samples are
	// valid only during Consume — retaining sinks must copy them.
	TrajectorySink = proptrace.Sink
	// TrajectoryBuffer is an in-memory TrajectorySink that copies and
	// sorts trajectories; construct with NewTrajectoryBuffer.
	TrajectoryBuffer = proptrace.Buffer
	// TrajectoryOptions tunes trajectory recording (sample budget, blowup
	// threshold); the zero value uses the package defaults.
	TrajectoryOptions = proptrace.Options
	// DecayProfile is a (dynamic instruction × log-error) histogram folded
	// from many trajectories; build with AggregateTrajectories and render
	// with its Render method.
	DecayProfile = proptrace.DecayProfile
)

// NewTrajectoryBuffer builds an empty in-memory trajectory sink.
func NewTrajectoryBuffer() *TrajectoryBuffer { return proptrace.NewBuffer() }

// AggregateTrajectories folds trajectories into a per-dynamic-instruction
// error-decay profile over a cols × rows grid (0 for the defaults).
// sites is the program's dynamic-instruction count (0 to infer it from
// the trajectories).
func AggregateTrajectories(ts []Trajectory, sites, cols, rows int) *DecayProfile {
	return proptrace.Aggregate(ts, sites, cols, rows)
}

// WriteTrajectoriesJSONL writes trajectories as JSON Lines (one
// trajectory per line; non-finite floats encoded as "+Inf"/"-Inf"/"NaN"
// strings).
func WriteTrajectoriesJSONL(w io.Writer, ts []Trajectory) error {
	return proptrace.WriteJSONL(w, ts)
}

// ReadTrajectoriesJSONL reads trajectories written by
// WriteTrajectoriesJSONL (or streamed by a JSONL sink).
func ReadTrajectoriesJSONL(r io.Reader) ([]Trajectory, error) {
	return proptrace.ReadJSONL(r)
}

// WriteTrajectoriesChromeTrace writes trajectories in Chrome trace-event
// format, loadable in Perfetto or chrome://tracing: each trajectory is a
// named thread whose counter track plots log10 of the deviation per
// dynamic instruction (1µs of trace time = 1 dynamic instruction), with
// instant events marking the max deviation, first-zero, first-blowup,
// and crash sites.
func WriteTrajectoriesChromeTrace(w io.Writer, program string, ts []Trajectory) error {
	return proptrace.WriteChromeTrace(w, program, ts)
}

// NewCollector builds an empty campaign metrics collector. One collector
// may serve many campaigns — and many Analyses — concurrently; snapshot
// it at any time with its Snapshot method.
func NewCollector() *Collector { return telemetry.New() }

// Outcome kinds.
const (
	Masked = outcome.Masked
	SDC    = outcome.SDC
	Crash  = outcome.Crash
)

// Kernel size presets accepted by NewKernelAnalysis.
const (
	SizeTest  = kernels.SizeTest
	SizeSmall = kernels.SizeSmall
	SizePaper = kernels.SizePaper
	SizeLarge = kernels.SizeLarge
)

// KernelNames returns the registered built-in kernels.
func KernelNames() []string { return kernels.Names() }

// NewKernel builds a built-in kernel at a size preset. Use it to inspect
// kernel metadata (phases, tolerance) or to run one directly; for
// campaigns prefer NewKernelAnalysis.
func NewKernel(name, size string) (Kernel, error) { return kernels.New(name, size) }

// Low-level single-run primitives, re-exported for callers that drive
// individual injections (e.g. to visualize one error-propagation curve)
// rather than whole campaigns.
type (
	// DiffSink consumes per-site propagation errors during an
	// injection-with-diff run.
	DiffSink = trace.DiffSink
	// InjectResult is the raw result of one injection run.
	InjectResult = trace.InjectResult
)

// Golden executes p fault-free, recording its full dynamic-instruction
// trace and output.
func Golden(p Program) (*GoldenRun, error) { return trace.Golden(p) }

// CountSites returns p's dynamic-instruction count without recording.
func CountSites(p Program) int { return trace.CountSites(p) }

// RunInject executes p once with a single bit flip at (site, bit).
func RunInject(ctx *Ctx, p Program, site int, bit uint) InjectResult {
	res, _ := trace.Run(ctx, p, nil, trace.Plan{Site: site, Bit: bit})
	return res
}

// RunInjectDiff executes p once with a single bit flip at (site, bit),
// streaming every site's |golden − corrupted| deviation to sink in
// execution order.
func RunInjectDiff(ctx *Ctx, p Program, golden *GoldenRun, site int, bit uint, sink DiffSink) (InjectResult, error) {
	return trace.Run(ctx, p, golden, trace.Plan{Site: site, Bit: bit, Sink: sink})
}

// runConfig is the per-campaign execution plumbing a RunOption can
// adjust: everything that changes how a campaign runs without changing
// what it computes.
type runConfig struct {
	ctx        context.Context
	observer   Observer
	workers    int
	collector  *telemetry.Collector
	traceSink  proptrace.Sink
	traceOpts  proptrace.Options
	logger     *slog.Logger
	cluster    *ClusterOptions
	store      *Store          // nil = no durable ground-truth store
	replayOff  bool            // checkpointed replay is on unless opted out
	sections   []Section       // nil = the program's declared layout
	compose    *ComposeOptions // nil = full-suffix execution
	spans      *SpanRecorder   // nil = no span tracing
	spanParent uint64          // root campaign span ID, set per call
	spanSample int             // experiment sampling stride; 0 = default
	model      bits.FaultModel // zero value = single-bit flip
}

// RunOption adjusts the execution of the campaigns behind one call —
// cancellation, progress observation, parallelism, replay, and
// telemetry. Every campaign-running method (Exhaustive,
// ExhaustiveCheckpointed, InferBoundary, InferFromPairs, Progressive,
// RunPairs) accepts a trailing list of them; Analysis.With applies them
// persistently to a copy of the Analysis. Identical campaigns produce
// identical results under any combination of RunOptions — only
// wall-clock, observability, and cancellation behaviour differ.
type RunOption func(*runConfig)

// WithContext cancels the call's campaigns when ctx is cancelled: they
// return ctx's error promptly (within one in-flight experiment per
// worker) without leaking goroutines.
func WithContext(ctx context.Context) RunOption {
	return func(rc *runConfig) { rc.ctx = ctx }
}

// WithObserver streams progress events from the call's campaigns to obs.
// Callbacks must be cheap and non-blocking (they are invoked
// synchronously from campaign workers).
func WithObserver(obs Observer) RunOption {
	return func(rc *runConfig) { rc.observer = obs }
}

// WithWorkers caps campaign parallelism (default GOMAXPROCS, at most
// campaign.MaxWorkers).
func WithWorkers(n int) RunOption {
	return func(rc *runConfig) { rc.workers = n }
}

// WithCollector attaches a metrics collector: the engine feeds it
// per-run latency, outcome counts, batch queue wait, and per-worker
// experiment tallies as the call's campaigns execute. The hot path is
// atomics-only, so the overhead is a few clock reads per experiment.
func WithCollector(c *Collector) RunOption {
	return func(rc *runConfig) { rc.collector = c }
}

// WithPropTrace records one error-propagation trajectory per experiment
// of the call's classification campaigns into sink: campaigns switch to
// diff-mode execution, each worker gets a private recorder, and every
// completed run delivers a Trajectory tagged with its campaign run index
// and worker. sink must be safe for concurrent use (NewTrajectoryBuffer,
// or a streaming JSONL sink); classification results are unchanged.
// Recording is bounded — per-run sample budgets with stride-doubling
// downsampling — so long campaigns stay O(runs × budget), not O(runs ×
// sites).
func WithPropTrace(sink TrajectorySink) RunOption {
	return WithPropTraceOptions(sink, TrajectoryOptions{})
}

// WithPropTraceOptions is WithPropTrace with explicit recording options.
// Zero-valued fields default from the analysis (program name, expected
// site count) and the package defaults (sample budget, blowup
// threshold).
func WithPropTraceOptions(sink TrajectorySink, o TrajectoryOptions) RunOption {
	return func(rc *runConfig) {
		rc.traceSink = sink
		rc.traceOpts = o
	}
}

// WithoutReplay disables checkpointed prefix replay for the call's
// campaigns: every experiment re-executes its golden prefix from the
// program entry. Replay is on by default — a snapshot at every
// injection site, a pool of golden snapshots, and the reconvergence
// early exit, each where the program implements the matching trace
// interface. Results are identical to the replay path; use this to
// benchmark the speedup or to exclude the snapshot machinery when
// auditing a kernel's Snapshotter implementation. Cluster workers always
// replay, so WithoutReplay cannot be combined with WithCluster.
func WithoutReplay() RunOption {
	return func(rc *runConfig) { rc.replayOff = true }
}

// WithLogger attaches a structured event log to the call's campaigns:
// campaign start/stop, resumes, and trace-mismatch aborts are emitted
// as slog records (Debug for lifecycle, Warn for aborts). The engine
// never logs from the per-experiment hot path.
func WithLogger(l *slog.Logger) RunOption {
	return func(rc *runConfig) { rc.logger = l }
}

// Fault-model types, re-exported from the internal implementation.
type (
	// FaultModel describes how a campaign corrupts the value at an
	// injection site: the corruption kind (single/multi/burst bit flips,
	// stuck-at), the IEEE-754 region it targets, and the kind's arity.
	// The zero value is the paper's model — a single bit flip anywhere in
	// the word. Corruption is a pure function of (value, site,
	// coordinate), so results stay deterministic across workers, replay,
	// and cluster execution.
	FaultModel = bits.FaultModel
	// FaultKind is the corruption kind of a FaultModel.
	FaultKind = bits.FaultKind
	// FaultRegion restricts a FaultModel to an IEEE-754 region.
	FaultRegion = bits.Region
)

// FaultModel kinds and regions.
const (
	FaultBitFlip   = bits.FaultBitFlip
	FaultMultiFlip = bits.FaultMultiFlip
	FaultBurstFlip = bits.FaultBurstFlip
	FaultStuckAt0  = bits.FaultStuckAt0
	FaultStuckAt1  = bits.FaultStuckAt1

	RegionAll      = bits.RegionAll
	RegionExponent = bits.RegionExponent
	RegionMantissa = bits.RegionMantissa
	RegionSign     = bits.RegionSign
)

// ParseFaultModel parses a canonical fault-model string — the format
// FaultModel.String produces, e.g. "bitflip", "burst3", "exponent:stuck1"
// (empty = the default single-bit flip).
func ParseFaultModel(s string) (FaultModel, error) { return bits.ParseFaultModel(s) }

// WithFaultModel runs the call's campaigns under a generalized fault
// model instead of the default single-bit flip: multi-bit flips, burst
// flips, region-targeted injection (exponent / mantissa / sign), and
// stuck-at faults. The experiment space becomes sites × the model's
// population (FaultModel.BitsPerSite); a non-default model supersedes
// Options.Bits, which applies to the default model only. Campaigns under
// distinct fault models are stored and resumed under distinct
// identities. Only classification campaigns (Exhaustive,
// ExhaustiveCheckpointed, RunPairs) accept a non-default model;
// inference methods return an error, because the propagation thresholds
// they aggregate are defined over the single-bit-flip space.
func WithFaultModel(m FaultModel) RunOption {
	return func(rc *runConfig) { rc.model = m }
}

// Analysis binds a program to its golden run and fault model and exposes
// the paper's workflows: exhaustive campaigns, boundary inference with
// uniform sampling, and adaptive progressive sampling.
type Analysis struct {
	factory  func() trace.Program
	name     string // program name, used to label recorded trajectories
	golden   *trace.GoldenRun
	tol      float64
	bits     int
	width    int
	declared []Section // the program's declared section layout, if any
	run      runConfig
}

// Options describes the program's fault space. How campaigns run —
// workers, cancellation, observation — is set with RunOptions, per call
// or persistently through Analysis.With.
type Options struct {
	// Bits is the flips-per-site count (default Width). Values below the
	// width restrict the fault model to the low-order bits of the
	// IEEE-754 representation (e.g. 52 injects only mantissa faults),
	// which is useful for ablations; the paper's model is the full width.
	Bits int
	// Width is the IEEE-754 width of the program's data elements: 64 for
	// programs instrumented with Ctx.Store (the default), 32 for programs
	// instrumented with Ctx.Store32.
	Width int
}

// NewAnalysis builds an Analysis for a program. factory must return
// fresh, independent program instances (one is created per campaign
// worker); tol is the acceptable L∞ output deviation T.
func NewAnalysis(factory func() Program, tol float64, opts Options) (*Analysis, error) {
	if factory == nil {
		return nil, errors.New("ftb: factory is required")
	}
	if tol <= 0 {
		return nil, fmt.Errorf("ftb: tolerance %g must be positive", tol)
	}
	p := factory()
	g, err := trace.Golden(p)
	if err != nil {
		return nil, err
	}
	width := opts.Width
	if width == 0 {
		width = 64
	}
	if width != 32 && width != 64 {
		return nil, fmt.Errorf("ftb: width %d must be 32 or 64", width)
	}
	bits := opts.Bits
	if bits == 0 {
		bits = width
	}
	if bits < 1 || bits > width {
		return nil, fmt.Errorf("ftb: bits %d outside [1, %d]", bits, width)
	}
	var declared []Section
	if d, ok := p.(sections.Declarer); ok {
		declared = d.Sections()
	}
	return &Analysis{
		factory:  factory,
		name:     p.Name(),
		golden:   g,
		tol:      tol,
		bits:     bits,
		width:    width,
		declared: declared,
	}, nil
}

// With returns a copy of the Analysis with the RunOptions applied
// persistently: every campaign started through the copy inherits them
// (call-level RunOptions still override per call). The original Analysis
// is unchanged.
func (a *Analysis) With(opts ...RunOption) *Analysis {
	b := *a
	for _, o := range opts {
		o(&b.run)
	}
	return &b
}

// NewKernelAnalysis builds an Analysis for a built-in kernel at one of
// the size presets, using the kernel's default tolerance.
func NewKernelAnalysis(name, size string) (*Analysis, error) {
	k, err := kernels.New(name, size)
	if err != nil {
		return nil, err
	}
	return NewAnalysis(func() Program {
		kk, err := kernels.New(name, size)
		if err != nil {
			panic(err) // registry and size validated above
		}
		return kk
	}, k.Tolerance(), Options{Width: k.Width()})
}

// Golden returns the program's fault-free run.
func (a *Analysis) Golden() *GoldenRun { return a.golden }

// Sites returns the number of dynamic instructions (injection sites).
func (a *Analysis) Sites() int { return a.golden.Sites() }

// Bits returns the flips-per-site count of the fault model — the
// configured low-order restriction under the default single-bit flip, or
// the model population when a non-default fault model has been applied
// persistently with With(WithFaultModel(...)).
func (a *Analysis) Bits() int { return a.bitsFor(a.run) }

// Width returns the IEEE-754 width of the program's data elements.
func (a *Analysis) Width() int { return a.width }

// SampleSpace returns the total number of possible experiments
// (sites × bits).
func (a *Analysis) SampleSpace() int { return a.Sites() * a.Bits() }

// Tolerance returns the acceptable output deviation T.
func (a *Analysis) Tolerance() float64 { return a.tol }

// resolve materializes the call-level run plumbing: the analysis-level
// runConfig with the call's RunOptions applied on top.
func (a *Analysis) resolve(opts []RunOption) runConfig {
	rc := a.run
	for _, o := range opts {
		o(&rc)
	}
	return rc
}

// bitsFor returns the effective flips-per-site count of a resolved run:
// the analysis's configured bits under the default fault model, or the
// model's full population under a non-default one (a model defines its
// own coordinate space; Options.Bits applies to the default model only).
func (a *Analysis) bitsFor(rc runConfig) int {
	if rc.model.IsDefault() {
		return a.bits
	}
	return rc.model.BitsPerSite(a.width)
}

// campaignConfig materializes the engine configuration for one call:
// the analysis-level run plumbing with call-level RunOptions applied on
// top.
func (a *Analysis) campaignConfig(opts ...RunOption) campaign.Config {
	return a.configFrom(a.resolve(opts))
}

// configFrom builds the in-process engine configuration from resolved
// run plumbing.
func (a *Analysis) configFrom(rc runConfig) campaign.Config {
	cfg := campaign.Config{
		Factory:   a.factory,
		Golden:    a.golden,
		Tol:       a.tol,
		Bits:      a.bitsFor(rc),
		Width:     a.width,
		Model:     rc.model,
		Workers:   rc.workers,
		Context:   rc.ctx,
		Observer:  rc.observer,
		Collector: rc.collector,
		Logger:    rc.logger,
		// The facade enables checkpointed replay by default — it never
		// changes results, and kernels that cannot snapshot fall back to
		// vanilla execution on their own.
		Replay:     !rc.replayOff,
		Spans:      rc.spans,
		SpanParent: rc.spanParent,
		SpanSample: rc.spanSample,
	}
	if rc.traceSink != nil {
		sink, o := rc.traceSink, rc.traceOpts
		if o.Program == "" {
			o.Program = a.name
		}
		if o.ExpectedSites == 0 {
			o.ExpectedSites = a.golden.Sites()
		}
		cfg.Sink = func(int) campaign.RunSink { return proptrace.NewRecorder(sink, o) }
	}
	return cfg
}

// Exhaustive runs the full fault-injection campaign: every bit of every
// dynamic instruction. Cost: SampleSpace() program executions. With
// WithCluster, the campaign is sharded across worker processes instead
// of goroutines; the result is byte-identical either way. With
// WithStore, the campaign is durable and resumable: it runs only the
// experiments the store lacks and appends completed ones every 256
// sites (see ExhaustiveCheckpointed). With WithCompose, each experiment
// executes only within its own declared section and the rest of the
// outcome is predicted compositionally (see the package documentation);
// composed results are returned directly and never appended to an
// attached store.
func (a *Analysis) Exhaustive(opts ...RunOption) (*GroundTruth, error) {
	rc := a.resolve(opts)
	endSpan := a.startCampaignSpan(&rc)
	defer endSpan()
	switch {
	case rc.compose != nil:
		if !rc.model.IsDefault() {
			return nil, errFaultModelUnsupported("WithCompose")
		}
		return a.composedExhaustive(rc)
	case rc.store != nil:
		return a.storeExhaustive(rc, storeBatch)
	case rc.cluster != nil:
		return a.clusterExhaustive(rc, nil, nil, nil)
	}
	return campaign.Exhaustive(a.configFrom(rc))
}

// ExhaustiveCheckpointed is Exhaustive(WithStore) with a chosen append
// stride: completed outcomes are appended to the store attached with
// WithStore whenever batch sites' worth have accumulated (256 when
// batch < 1), and once more when the campaign stops, cancelled or not.
// Resume state is the set of experiment ranges the store holds, so a
// killed run loses at most the unappended stride. Under WithCluster
// every merged shard is appended as it lands instead. checkpointPath
// must be empty: progress persists only through WithStore.
func (a *Analysis) ExhaustiveCheckpointed(checkpointPath string, batch int, opts ...RunOption) (*GroundTruth, error) {
	rc := a.resolve(opts)
	if rc.compose != nil {
		return nil, errors.New("ftb: WithCompose applies to Exhaustive only; composed campaigns persist section summaries, not checkpoints")
	}
	if checkpointPath != "" || rc.store == nil {
		return nil, errors.New("ftb: ExhaustiveCheckpointed persists progress through WithStore only; pass an empty checkpointPath and a WithStore option")
	}
	endSpan := a.startCampaignSpan(&rc)
	defer endSpan()
	return a.storeExhaustive(rc, batch)
}

// ExhaustiveBoundary derives the exact fault tolerance boundary from an
// exhaustive campaign's ground truth (§4.1).
func (a *Analysis) ExhaustiveBoundary(gt *GroundTruth) (*Boundary, error) {
	return boundary.ExhaustiveSearch(gt, a.golden)
}

// NonMonotonicSites counts sites whose error response is non-monotonic in
// the ground truth (§4.1 / §5).
func (a *Analysis) NonMonotonicSites(gt *GroundTruth) (int, error) {
	return boundary.NonMonotonicSites(gt, a.golden)
}

// RunPairs classifies an explicit set of experiments.
func (a *Analysis) RunPairs(pairs []Pair, opts ...RunOption) ([]Record, error) {
	rc := a.resolve(opts)
	if rc.cluster != nil {
		return nil, errClusterUnsupported("RunPairs")
	}
	return campaign.RunPairs(a.configFrom(rc), pairs)
}

// MonteCarlo runs the traditional baseline campaign (§3.1): k
// experiments drawn by seed uniformly without replacement from the
// sample space, classified, and summarized as one overall SDC ratio with
// a 95% confidence interval.
func (a *Analysis) MonteCarlo(seed uint64, k int, opts ...RunOption) (*MCEstimate, error) {
	rc := a.resolve(opts)
	if rc.cluster != nil {
		return nil, errClusterUnsupported("MonteCarlo")
	}
	return campaign.MonteCarlo(a.configFrom(rc), rng.New(seed), k)
}

// NewPredictor builds a predictor for an arbitrary boundary (e.g. one
// obtained from ExhaustiveBoundary or loaded from disk) against this
// analysis's golden run and fault model. known may be nil.
func (a *Analysis) NewPredictor(b *Boundary, known *Known) (*Predictor, error) {
	pred, err := boundary.NewPredictor(b, a.golden, known)
	if err != nil {
		return nil, err
	}
	if err := pred.SetWidth(a.width); err != nil {
		return nil, err
	}
	return pred, nil
}

// InferOptions configures InferBoundary.
type InferOptions struct {
	// SampleFrac is the fraction of the sample space to inject
	// (e.g. 0.01 for the paper's 1%). Mutually exclusive with Samples.
	SampleFrac float64
	// Samples is an absolute sample budget (the §4.6 experiments use a
	// fixed 1000). Used when SampleFrac is zero.
	Samples int
	// Filter enables the §3.5 filter operation.
	Filter bool
	// Seed drives sample selection.
	Seed uint64
}

// Result is an inferred boundary plus everything needed to use and judge
// it.
type Result struct {
	analysis *Analysis
	builder  *boundary.Builder
	filter   bool // the fold boundary holds: with the §3.5 filter or not
	boundary *Boundary
	known    *Known
	pred     *Predictor
	samples  int
	records  []Record
}

// InferBoundary runs the paper's core method: uniformly sample the
// (site, bit) space, classify the samples, and aggregate the masked runs'
// propagation data into a fault tolerance boundary (Algorithm 1).
func (a *Analysis) InferBoundary(opts InferOptions, runOpts ...RunOption) (*Result, error) {
	k := opts.Samples
	if opts.SampleFrac > 0 {
		k = int(opts.SampleFrac * float64(a.SampleSpace()))
	}
	if k < 1 {
		return nil, fmt.Errorf("ftb: sample budget %d too small (space %d)", k, a.SampleSpace())
	}
	if k > a.SampleSpace() {
		return nil, fmt.Errorf("ftb: sample budget %d exceeds sample space %d", k, a.SampleSpace())
	}
	if rc := a.resolve(runOpts); rc.cluster != nil {
		return nil, errClusterUnsupported("InferBoundary")
	} else if !rc.model.IsDefault() {
		return nil, errFaultModelUnsupported("InferBoundary")
	}
	pairs := sampling.Uniform(rng.New(opts.Seed), a.Sites(), a.bits, k)
	known := boundary.NewKnown(a.Sites(), a.bits)
	bld, recs, err := boundary.Build(a.campaignConfig(runOpts...), pairs, boundary.BuildOptions{
		Filter: opts.Filter,
		Known:  known,
	})
	if err != nil {
		return nil, err
	}
	return a.newResult(bld, opts.Filter, known, len(recs), recs)
}

// InferFromPairs runs the inference pipeline over an explicit experiment
// selection (e.g. one produced by a Relyzer-style grouping heuristic)
// instead of a uniform draw.
func (a *Analysis) InferFromPairs(pairs []Pair, filter bool, opts ...RunOption) (*Result, error) {
	if len(pairs) == 0 {
		return nil, errors.New("ftb: InferFromPairs requires at least one pair")
	}
	if rc := a.resolve(opts); rc.cluster != nil {
		return nil, errClusterUnsupported("InferFromPairs")
	} else if !rc.model.IsDefault() {
		return nil, errFaultModelUnsupported("InferFromPairs")
	}
	known := boundary.NewKnown(a.Sites(), a.bits)
	bld, recs, err := boundary.Build(a.campaignConfig(opts...), pairs, boundary.BuildOptions{
		Filter: filter,
		Known:  known,
	})
	if err != nil {
		return nil, err
	}
	return a.newResult(bld, filter, known, len(recs), recs)
}

// GroupedPairs selects k experiments with the Relyzer-style grouping
// heuristic (§6): sites are grouped by (phase, golden-value binade) and
// the budget is spread round-robin across groups. phases may be nil, in
// which case the whole program is one phase.
func (a *Analysis) GroupedPairs(phases []Phase, k int, seed uint64) []Pair {
	starts := []int{0}
	for _, p := range phases {
		if p.Start != 0 {
			starts = append(starts, p.Start)
		}
	}
	groups := sampling.GroupSites(a.golden.Trace, sampling.PhaseIndexer(starts))
	return sampling.SpreadAcrossGroups(rng.New(seed), groups, a.bits, k)
}

// ProgressiveOptions configures the §3.4 adaptive progressive loop.
type ProgressiveOptions = sampling.ProgressiveOptions

// Progressive runs adaptive progressive sampling: rounds of biased
// samples, each round shrinking the remaining space with the growing
// boundary, until almost no new masked cases appear.
func (a *Analysis) Progressive(opts ProgressiveOptions, runOpts ...RunOption) (*Result, []sampling.RoundStat, error) {
	if opts.Bits == 0 {
		opts.Bits = a.bits
	}
	if opts.Width == 0 {
		opts.Width = a.width
	}
	if rc := a.resolve(runOpts); rc.cluster != nil {
		return nil, nil, errClusterUnsupported("Progressive")
	} else if !rc.model.IsDefault() {
		return nil, nil, errFaultModelUnsupported("Progressive")
	}
	pres, err := sampling.RunProgressive(a.campaignConfig(runOpts...), opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := a.newResult(pres.Builder, opts.Filter, pres.Known, pres.TotalSamples, nil)
	if err != nil {
		return nil, nil, err
	}
	return res, pres.Rounds, nil
}

func (a *Analysis) newResult(bld *boundary.Builder, filter bool, known *Known, samples int, recs []Record) (*Result, error) {
	b := bld.FinalizeFilter(filter)
	pred, err := boundary.NewPredictor(b, a.golden, known)
	if err != nil {
		return nil, err
	}
	if err := pred.SetWidth(a.width); err != nil {
		return nil, err
	}
	return &Result{
		analysis: a,
		builder:  bld,
		filter:   filter,
		boundary: b,
		known:    known,
		pred:     pred,
		samples:  samples,
		records:  recs,
	}, nil
}

// WithFilter returns the result with its boundary folded with the §3.5
// filter on or off: the same samples, known table and records, and a
// predictor over the other fold of the same masked propagation deltas.
// Both folds are kept by every inference, so no experiment runs. For
// InferBoundary and InferFromPairs this is exactly the result the other
// Filter setting would have produced. For a Progressive result, sample
// selection between rounds was still steered by the original setting,
// so it can differ from a Progressive run with the other setting.
func (r *Result) WithFilter(filter bool) (*Result, error) {
	if filter == r.filter {
		return r, nil
	}
	return r.analysis.newResult(r.builder, filter, r.known, r.samples, r.records)
}

// Boundary returns the inferred fault tolerance boundary.
func (r *Result) Boundary() *Boundary { return r.boundary }

// Predictor returns the boundary-backed outcome predictor.
func (r *Result) Predictor() *Predictor { return r.pred }

// Known returns the sampled-outcome table.
func (r *Result) Known() *Known { return r.known }

// Records returns the classified samples (nil for progressive runs, which
// stream their records into per-round statistics instead).
func (r *Result) Records() []Record { return r.records }

// Samples returns the number of injections spent.
func (r *Result) Samples() int { return r.samples }

// SampleFraction returns Samples as a fraction of the sample space.
func (r *Result) SampleFraction() float64 {
	return float64(r.samples) / float64(r.analysis.SampleSpace())
}

// Info returns per-site significant-error information counts (the
// Figure 4 "potential impact" series).
func (r *Result) Info() []int64 { return r.builder.Info() }

// MeanReach returns, per injection site, the mean number of dynamic
// instructions a masked injection at that site significantly perturbed —
// the propagation fan-out of each site.
func (r *Result) MeanReach() []float64 { return r.builder.MeanReach() }

// PredictedSDCRatio returns the boundary's whole-program SDC-ratio
// prediction (unknown cases assumed SDC).
func (r *Result) PredictedSDCRatio() float64 {
	return r.pred.OverallSDCRatio(r.analysis.bits)
}

// Uncertainty returns the self-verification metric (§3.6): the precision
// of masked predictions over the sampled experiments, computable without
// any ground truth.
func (r *Result) Uncertainty() float64 {
	return metrics.Uncertainty(r.pred, r.known)
}

// Evaluate scores the result against an exhaustive ground truth.
func (r *Result) Evaluate(gt *GroundTruth) PR {
	return metrics.Evaluate(r.pred, gt, r.known)
}

// Profile assembles the per-site true/predicted/impact series against a
// ground truth.
func (r *Result) Profile(gt *GroundTruth) SiteSeries {
	return metrics.Profile(r.pred, gt, r.builder.Info())
}

// DeltaSDC returns per-site golden − predicted SDC ratios against a
// ground truth.
func (r *Result) DeltaSDC(gt *GroundTruth) []float64 {
	return metrics.DeltaSDC(r.pred, gt)
}
