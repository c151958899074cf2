// Package proptrace records per-injection error trajectories: the
// paper's core object of study — how one injected error evolves through
// the dynamic instruction stream — captured as a bounded, exportable
// artifact instead of being folded away into aggregate counters.
//
// A Recorder rides the per-site |golden − corrupted| stream a diff-mode
// injection run emits (trace.Run with a Sink, and the engine's traced
// campaign runs) and condenses it into one Trajectory per injection:
// the injection coordinates, run/worker tags, outcome, a downsampled
// sequence of propagation-error samples, and the landmarks that matter
// for explaining the outcome — the largest deviation, the first site
// where the error fully masked (delta returned to zero), and the first
// site where it blew past the golden magnitude. Trajectories serialize
// as JSONL (jsonl.go) and as Chrome trace-event files loadable in
// Perfetto / chrome://tracing (chrome.go), and fold into a
// per-dynamic-instruction error-decay heatmap (decay.go).
//
// Downsampling is stride-doubling: samples are kept at a power-of-two
// site stride that doubles whenever the buffer would exceed MaxSamples.
// Unlike random reservoir sampling it is deterministic (the same run
// always yields the same trajectory), order-preserving, and keeps the
// retained sites evenly spaced — the natural x-axis for a decay plot.
// The landmark samples are tracked separately and exactly, so
// downsampling can never lose the extremum or the crossings.
package proptrace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"ftb/internal/outcome"
)

// Float is a float64 that survives JSON round-trips even when
// non-finite: ±Inf and NaN — legal and meaningful propagation values
// (a crash's output error is +Inf) — marshal as quoted strings, which
// encoding/json would otherwise reject outright.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"+Inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = Float(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("proptrace: bad float %s: %w", data, err)
	}
	*f = Float(v)
	return nil
}

// Sample is one retained propagation observation: the absolute
// |golden − corrupted| deviation at one dynamic instruction, with the
// golden value for relative-error scaling.
type Sample struct {
	Site   int   `json:"site"`
	Delta  Float `json:"delta"`
	Golden Float `json:"golden"`
}

// Trajectory is one injection's condensed error trajectory.
type Trajectory struct {
	// Program names the traced program (may be empty).
	Program string `json:"program,omitempty"`
	// Run is the experiment's index within its campaign (the engine's
	// item index); -1 for standalone single runs.
	Run int `json:"run"`
	// Worker is the engine worker that executed the run; -1 standalone.
	Worker int `json:"worker"`
	// Site and Bit are the injection coordinates.
	Site int   `json:"site"`
	Bit  uint8 `json:"bit"`
	// Outcome is the classified result ("masked", "sdc", "crash").
	Outcome string `json:"outcome"`
	// InjErr is |flipped − original| at the injection site.
	InjErr Float `json:"inj_err"`
	// OutErr is the L∞ output deviation (+Inf for crashes).
	OutErr Float `json:"out_err"`
	// CrashSite is the site of the unsafe store for crashes, else -1.
	CrashSite int `json:"crash_site"`
	// Sites is the number of dynamic instructions the run observed
	// diffs for (the trajectory's x-extent, not the sample count).
	Sites int `json:"sites"`
	// Stride is the final downsampling stride: retained samples sit
	// Stride dynamic instructions apart (1 = every post-injection site).
	Stride int `json:"stride"`
	// Samples is the downsampled trajectory, in execution order,
	// starting at the injection site.
	Samples []Sample `json:"samples"`
	// Max is the largest deviation observed anywhere in the run,
	// captured exactly regardless of downsampling.
	Max Sample `json:"max"`
	// FirstZero is the first site strictly after the injection where
	// the deviation returned to exactly zero (the error fully masked in
	// that value), or -1 if it never did.
	FirstZero int `json:"first_zero"`
	// FirstBlowup is the first site where the deviation exceeded the
	// recorder's blow-up threshold relative to the golden magnitude, or
	// -1 if it never did.
	FirstBlowup int `json:"first_blowup"`
}

// Sink consumes completed trajectories. Implementations must be safe
// for concurrent use: campaign workers deliver trajectories as their
// runs finish.
//
// t.Samples is a zero-copy view into the recorder's reusable buffer,
// valid only until Consume returns; a sink that retains the trajectory
// beyond the call must copy the slice (see Buffer). Streaming sinks
// (JSONLWriter) serialize in place and never pay the copy — which is
// what keeps recording overhead per run flat.
type Sink interface {
	Consume(t Trajectory)
}

// Options configures a Recorder.
type Options struct {
	// MaxSamples bounds the retained samples per trajectory (default
	// DefaultMaxSamples). The stride doubles whenever the buffer would
	// grow past it, so memory per trajectory is O(MaxSamples) no matter
	// how long the program runs.
	MaxSamples int
	// BlowupRel is the relative-error threshold of the first-blowup
	// landmark: the first site where delta > BlowupRel·|golden| (or
	// delta > BlowupRel where golden is subnormal-or-zero) is recorded.
	// Default DefaultBlowupRel — the deviation overtaking the value
	// itself.
	BlowupRel float64
	// Program tags every trajectory with a program name.
	Program string
	// ExpectedSites hints the per-run dynamic-instruction count
	// (campaigns pass the golden run's site count). When set, BeginRun
	// picks the smallest power-of-two stride whose retained samples fit
	// MaxSamples up front, so long runs never pay mid-run re-striding;
	// runs shorter than the hint just retain fewer samples. Zero means
	// start at stride 1 and double on demand.
	ExpectedSites int
}

// Recorder defaults. 128 retained samples over-resolve both renderers
// (the decay heatmap defaults to 96 columns and Perfetto counter tracks
// are legible well below that) while keeping the per-run buffer a small
// cache footprint next to a working kernel — the buffer's cache-line
// churn, not the landmark arithmetic, is what shows up as recording
// overhead on cache-tight kernels.
const (
	DefaultMaxSamples = 128
	DefaultBlowupRel  = 1.0
)

func (o Options) normalized() Options {
	if o.MaxSamples <= 0 {
		o.MaxSamples = DefaultMaxSamples
	}
	if o.BlowupRel <= 0 {
		o.BlowupRel = DefaultBlowupRel
	}
	return o
}

// Recorder condenses one run's diff stream at a time into a Trajectory
// and hands it to a Sink. It implements campaign.RunSink (and therefore
// trace.DiffSink); a Recorder serves one goroutine — campaigns build one
// per worker through campaign.Config.Sink.
type Recorder struct {
	// Hot-path state leads the struct so Observe's working set spans as
	// few cache lines as possible; EndRun folds it back into cur. The
	// fields mirror the trajectory's landmark state as plain scalars.
	// strideMask is stride−1 (the stride is always a power of two),
	// turning the on-stride test into a mask instead of a modulo.
	armed       bool
	injSite     int
	sites       int
	strideMask  int
	maxSite     int
	maxDelta    float64
	maxGolden   float64
	firstZero   int
	firstBlowup int
	blowupRel   float64
	maxSamples  int
	samples     []Sample

	opts Options
	sink Sink
	cur  Trajectory
}

// NewRecorder builds a recorder delivering trajectories to sink.
func NewRecorder(sink Sink, opts Options) *Recorder {
	o := opts.normalized()
	return &Recorder{
		opts:       o,
		sink:       sink,
		maxSamples: o.MaxSamples,
		samples:    make([]Sample, 0, o.MaxSamples),
	}
}

// BeginRun implements campaign.RunSink: arm the recorder for one
// injection run. Standalone callers may pass run = worker = -1.
func (r *Recorder) BeginRun(run, worker int, site int, bit uint8) {
	r.cur = Trajectory{
		Program:   r.opts.Program,
		Run:       run,
		Worker:    worker,
		Site:      site,
		Bit:       bit,
		CrashSite: -1,
	}
	r.samples = r.samples[:0]
	r.injSite = site
	r.sites = 0
	r.strideMask = 0
	if post := r.opts.ExpectedSites - site; post > r.maxSamples {
		stride := 1
		for (post+stride-1)/stride > r.maxSamples {
			stride <<= 1
		}
		r.strideMask = stride - 1
	}
	r.maxSite = -1
	r.maxDelta = -1
	r.maxGolden = 0
	r.firstZero = -1
	r.firstBlowup = -1
	r.blowupRel = r.opts.BlowupRel
	r.armed = true
}

// Observe implements trace.DiffSink. Sites arrive in execution order;
// sites before the injection carry structurally zero deltas and are
// counted but not sampled, so the whole sample budget covers the
// trajectory proper.
func (r *Recorder) Observe(site int, golden, delta float64) {
	if !r.armed {
		return
	}
	off := site - r.injSite
	if off < 0 {
		// Pre-injection sites carry structurally zero deltas: not
		// sampled, and not counted either — in any run that reaches its
		// injection the final (highest) site lands in the branch below,
		// so Sites still ends up correct.
		return
	}
	r.sites = site + 1 // sites arrive in execution order
	// Landmarks are tracked exactly, independent of downsampling.
	// maxDelta starts at −1 so the first delta (0 included) always wins
	// without a separate first-sample branch.
	if delta > r.maxDelta {
		r.maxSite = site
		r.maxDelta = delta
		r.maxGolden = golden
	}
	if delta == 0 {
		if r.firstZero < 0 && off > 0 {
			r.firstZero = site
		}
	} else if r.firstBlowup < 0 && blownUp(golden, delta, r.blowupRel) {
		r.firstBlowup = site
	}
	// Stride-doubling downsample: keep sites at (site − injection) ≡ 0
	// (mod stride); on overflow drop every other retained sample and
	// double the stride.
	if off&r.strideMask != 0 {
		return
	}
	if len(r.samples) == r.maxSamples {
		keep := r.samples[:0]
		for i := 0; i < len(r.samples); i += 2 {
			keep = append(keep, r.samples[i])
		}
		r.samples = keep
		r.strideMask = r.strideMask<<1 | 1
		if off&r.strideMask != 0 {
			return
		}
	}
	r.samples = append(r.samples, Sample{Site: site, Delta: Float(delta), Golden: Float(golden)})
}

// blownUp reports whether a non-zero delta exceeds rel·|golden|,
// falling back to the absolute delta when the golden value is (near)
// zero. Callers filter delta == 0 first.
func blownUp(golden, delta, rel float64) bool {
	ag := math.Abs(golden)
	if ag < math.SmallestNonzeroFloat64 {
		return delta > rel
	}
	return delta > rel*ag
}

// EndRun implements campaign.RunSink: close the armed run with its
// classified outcome and deliver the trajectory. crashSite is the
// faulting store for crashed runs, -1 otherwise.
func (r *Recorder) EndRun(kind outcome.Kind, injErr, outErr float64, crashSite int) {
	if !r.armed {
		return
	}
	r.armed = false
	t := r.cur
	t.Outcome = kind.String()
	t.InjErr = Float(injErr)
	t.OutErr = Float(outErr)
	t.CrashSite = crashSite
	t.Sites = r.sites
	t.Stride = r.strideMask + 1
	t.Max = Sample{Site: -1}
	if r.maxSite >= 0 {
		t.Max = Sample{Site: r.maxSite, Delta: Float(r.maxDelta), Golden: Float(r.maxGolden)}
	}
	t.FirstZero = r.firstZero
	t.FirstBlowup = r.firstBlowup
	t.Samples = r.samples // zero-copy view; see Sink contract
	r.sink.Consume(t)
}

// RecordsTrajectories implements campaign.TrajectoryRecorder: every
// run a Recorder sees becomes one delivered trajectory.
func (r *Recorder) RecordsTrajectories() bool { return true }

// Discard is a Sink that drops every trajectory. Useful as a recording
// baseline in benchmarks and as a placeholder sink.
type Discard struct{}

// Consume implements Sink.
func (Discard) Consume(Trajectory) {}

// Buffer is an in-memory Sink.
type Buffer struct {
	mu sync.Mutex
	ts []Trajectory
}

// NewBuffer returns an empty in-memory trajectory sink.
func NewBuffer() *Buffer { return &Buffer{} }

// Consume implements Sink. The retained trajectory owns a copy of the
// samples (the recorder reuses the slice it hands out).
func (b *Buffer) Consume(t Trajectory) {
	s := make([]Sample, len(t.Samples))
	copy(s, t.Samples)
	t.Samples = s
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ts = append(b.ts, t)
}

// Len returns the number of buffered trajectories.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ts)
}

// Trajectories returns the buffered trajectories sorted by campaign run
// index (then injection coordinates), so concurrent campaigns yield a
// deterministic order regardless of worker scheduling.
func (b *Buffer) Trajectories() []Trajectory {
	b.mu.Lock()
	out := make([]Trajectory, len(b.ts))
	copy(out, b.ts)
	b.mu.Unlock()
	sortTrajectories(out)
	return out
}

// sortTrajectories orders by (Run, Site, Bit). Campaigns append in
// worker-completion order, so the slice arrives nearly — but not quite —
// sorted; SortFunc handles the general case without the quadratic
// struct-copy blowup an insertion sort hits on large campaigns.
func sortTrajectories(ts []Trajectory) {
	slices.SortFunc(ts, func(a, b Trajectory) int {
		if c := cmp.Compare(a.Run, b.Run); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Site, b.Site); c != 0 {
			return c
		}
		return cmp.Compare(a.Bit, b.Bit)
	})
}

// label formats an injection coordinate pair compactly ("s100b40").
func label(site int, bit uint8) string {
	return "s" + strconv.Itoa(site) + "b" + strconv.Itoa(int(bit))
}
