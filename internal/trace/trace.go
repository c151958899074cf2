// Package trace implements the instrumented-execution substrate that stands
// in for the paper's LLVM-level load/store instrumentation.
//
// A benchmark kernel is a Program whose Run method funnels every tracked
// floating-point data-element write through Ctx.Store. Store assigns each
// write its dynamic-instruction index — the paper's "dynamic instruction
// [is] a single injection site where the result is corruptible" (§2.1) —
// and, depending on the context mode, counts it, records the golden value,
// injects a single bit flip, or streams the |golden − corrupted| difference
// to a sink (the error-propagation data that feeds Algorithm 1).
//
// Injection runs emulate a trap-on-NaN environment: the first tracked store
// of a NaN or ±Inf aborts the run, and the runner classifies it as a crash
// ("a variable value could be corrupted such that it causes a NaN
// exception", §2.1).
package trace

import (
	"errors"
	"fmt"
	"math"

	"ftb/internal/bits"
)

// Mode selects what a Ctx does on each Store. Run resolves a Plan to
// exactly one mode when it arms the context, so no Store case tests a
// behaviour its plan did not ask for.
type Mode uint8

const (
	// ModeCount only counts dynamic instructions.
	ModeCount Mode = iota
	// ModeRecord appends every stored value to the golden trace.
	ModeRecord
	// ModeInject flips one bit at one site and otherwise runs untouched
	// (also a tail run, which injects nothing).
	ModeInject
	// ModeInjectDiff injects like ModeInject, reports |golden − corrupted|
	// for every site to a DiffSink (every nonzero one to a SparseSink),
	// and pauses at a truncation boundary.
	ModeInjectDiff
	// modeAdvance re-executes the golden prefix up to a store boundary
	// and pauses there, so a Snapshotter can checkpoint (see Advance).
	modeAdvance
	// modeInjectConverge injects like ModeInject and additionally tracks
	// whether any store since the last probed boundary deviated from the
	// golden trace, pausing at quiet boundaries so Run can test for exact
	// state reconvergence (see Converge).
	modeInjectConverge
)

// DiffSink consumes per-site propagation errors during a diff run (a Plan
// with a Sink). Observe is called once per dynamic instruction, in
// execution order, with the golden value of the site and the absolute
// difference between golden and fault-injected runs at that site (see
// SparseSink for a sink that skips the zero differences).
type DiffSink interface {
	Observe(site int, golden, delta float64)
}

// SparseSink is optionally implemented by DiffSinks that need only the
// nonzero deltas. A diff run hands such a sink no zero delta at all:
// neither the golden prefix a resumed run skips nor a live store that
// matches its golden value. Observe then sees exactly the dense stream
// with its zero entries removed, in execution order. Run resolves the
// contract once per plan; a plain DiffSink keeps the dense stream.
type SparseSink interface {
	DiffSink
	// SparseDeltas is never called: implementing it opts the sink in.
	SparseDeltas()
}

// Program is an instrumented benchmark kernel. Run must perform the exact
// same sequence of Store calls on every invocation (fixed control flow
// with respect to the data), and return the program output that the
// outcome classifier compares against the golden output.
type Program interface {
	// Name identifies the kernel (e.g. "cg", "lu", "fft").
	Name() string
	// Run executes the kernel against ctx and returns its output.
	Run(ctx *Ctx) []float64
}

// crashSignal is the sentinel panic value used to abort a run when a
// tracked store produces NaN/±Inf. It never escapes this package.
type crashSignal struct{ site int }

// ErrGoldenUnsafe is returned by Golden when the fault-free execution
// itself stores NaN/±Inf, which indicates a broken kernel or input.
var ErrGoldenUnsafe = errors.New("trace: golden run stored a NaN/Inf value")

// ErrTraceMismatch is returned when an injected run performs a different
// number of tracked stores than the golden run. The kernels in this
// repository are data-oblivious, so this indicates a kernel bug.
var ErrTraceMismatch = errors.New("trace: dynamic instruction count differs from golden run")

// Ctx is a single-run execution context. A Ctx is not safe for concurrent
// use; campaigns give each worker its own. The zero value is a ModeCount
// context; Count, Record, Run and Advance (re)arm it for each run.
type Ctx struct {
	mode Mode
	n    int // next dynamic-instruction index

	// Record mode.
	golden []float64

	// Inject modes. model is sticky across re-arming (see SetFaultModel):
	// its zero value is the paper's single-bit flip, and bit is then the
	// region-relative fault coordinate of the armed experiment.
	model    bits.FaultModel
	site     int
	bit      uint
	injected bool
	injErr   float64 // |flipped − original| at the injection site

	// Diff and converge modes: the golden trace, and the diff sink.
	ref  []float64
	sink DiffSink

	// Checkpointed replay (see replay.go).
	resume  int // stores already committed before this run started
	pauseAt int // store index to pause at, pre-commit (0: never, in diff mode)

	// Inject-converge mode (see Converge). pauseAt doubles as the next
	// reconvergence-probe boundary: quiet windows pause there, dirty
	// windows slide it forward by convStep without pausing.
	convStep  int  // probe-boundary spacing while the window stays dirty
	convDirty bool // a store deviated from golden since the last boundary

	// Diff mode: drop zero deltas before they reach a SparseSink. (Kept
	// last, in convDirty's padding, so no other field moves.)
	sparse bool
}

// SetFaultModel installs the perturbation applied at injection sites. The
// model is sticky: it survives every subsequent re-arming of c (Count,
// Record, Run, ...) until overwritten. The zero model is the paper's
// single-bit flip.
func (c *Ctx) SetFaultModel(m bits.FaultModel) { c.model = m }

// FaultModel returns the installed fault model.
func (c *Ctx) FaultModel() bits.FaultModel { return c.model }

// Count arms c to count dynamic instructions.
func (c *Ctx) Count() {
	*c = Ctx{mode: ModeCount, model: c.model}
}

// Record arms c to record the golden trace into buf (reused if capacity
// allows).
func (c *Ctx) Record(buf []float64) {
	*c = Ctx{mode: ModeRecord, golden: buf[:0], model: c.model}
}

// Sites returns the number of Store calls observed so far.
func (c *Ctx) Sites() int { return c.n }

// GoldenTrace returns the recorded golden trace (ModeRecord only).
func (c *Ctx) GoldenTrace() []float64 { return c.golden }

// Store is the instrumentation point: every tracked floating-point
// data-element write in a kernel is written as v = ctx.Store(v). It
// assigns the next dynamic-instruction index and applies the mode
// behaviour, returning the (possibly corrupted) value the kernel must
// continue with.
func (c *Ctx) Store(v float64) float64 {
	i := c.n
	c.n = i + 1
	switch c.mode {
	case ModeCount:
		return v
	case ModeRecord:
		c.golden = append(c.golden, v)
		return v
	case ModeInject:
		if i == c.site {
			orig := v
			v = c.model.Apply64(v, i, c.bit)
			c.injected = true
			c.injErr = injectionError(orig, v)
		}
		if bits.IsUnsafe(v) {
			panic(crashSignal{site: i})
		}
		return v
	case ModeInjectDiff:
		// A truncation boundary (Plan.Until) pauses before this
		// store is processed: the run has then committed and observed
		// exactly the stores [resume, pauseAt), and store pauseAt —
		// including a crash it would have raised — belongs to the
		// downstream sections the caller is not executing.
		if i == c.pauseAt && c.pauseAt > 0 {
			panic(pauseSignal{})
		}
		if i == c.site {
			orig := v
			v = c.model.Apply64(v, i, c.bit)
			c.injected = true
			c.injErr = injectionError(orig, v)
		}
		if bits.IsUnsafe(v) {
			panic(crashSignal{site: i})
		}
		if i < len(c.ref) {
			g := c.ref[i]
			d := v - g
			if d < 0 {
				d = -d
			}
			if !c.sparse || d != 0 {
				c.sink.Observe(i, g, d)
			}
		}
		return v
	case modeAdvance:
		// The golden prefix is known safe: no flip, no crash trapping.
		// Pausing here — before Store returns — leaves exactly the
		// stores [0, pauseAt) committed by the kernel.
		if i == c.pauseAt {
			panic(pauseSignal{})
		}
		return v
	case modeInjectConverge:
		if i == c.pauseAt {
			if !c.convDirty {
				// Quiet window: pause pre-commit (state holds exactly
				// [0, i)) so the runner can compare against the pooled
				// golden boundary state.
				panic(pauseSignal{})
			}
			// Dirty window: slide the probe boundary forward without
			// pausing and start a fresh window.
			c.convDirty = false
			c.pauseAt = i + c.convStep
		}
		if i == c.site {
			orig := v
			v = c.model.Apply64(v, i, c.bit)
			c.injected = true
			c.injErr = injectionError(orig, v)
		}
		if bits.IsUnsafe(v) {
			panic(crashSignal{site: i})
		}
		if i < len(c.ref) && v != c.ref[i] {
			c.convDirty = true
		}
		return v
	default:
		panic(fmt.Sprintf("trace: invalid mode %d", c.mode))
	}
}

// Store32 is the instrumentation point for single-precision data
// elements: v = ctx.Store32(v). The site occupies one dynamic-instruction
// index like Store, but its fault population is the 32 bits of the IEEE-754
// single representation; campaigns over 32-bit programs must therefore be
// configured with 32 flips per site. Arming a bit ≥ 32 against a 32-bit
// site is a campaign-configuration bug and panics.
func (c *Ctx) Store32(v float32) float32 {
	i := c.n
	c.n = i + 1
	switch c.mode {
	case ModeCount:
		return v
	case ModeRecord:
		c.golden = append(c.golden, float64(v))
		return v
	case ModeInject, ModeInjectDiff:
		if i == c.pauseAt && c.pauseAt > 0 && c.mode == ModeInjectDiff {
			panic(pauseSignal{}) // truncation boundary, see Store
		}
		if i == c.site {
			if int(c.bit) >= c.model.BitsPerSite(bits.Width32) {
				panic(fmt.Sprintf("trace: coordinate %d armed against 32-bit site %d (population %d)", c.bit, i, c.model.BitsPerSite(bits.Width32)))
			}
			orig := v
			v = c.model.Apply32(v, i, c.bit)
			c.injected = true
			c.injErr = injectionError32(orig, v)
		}
		if bits.IsUnsafe32(v) {
			panic(crashSignal{site: i})
		}
		if c.mode == ModeInjectDiff && i < len(c.ref) {
			g := c.ref[i]
			d := float64(v) - g
			if d < 0 {
				d = -d
			}
			if !c.sparse || d != 0 {
				c.sink.Observe(i, g, d)
			}
		}
		return v
	case modeAdvance:
		if i == c.pauseAt {
			panic(pauseSignal{})
		}
		return v
	case modeInjectConverge:
		if i == c.pauseAt {
			if !c.convDirty {
				panic(pauseSignal{}) // quiet boundary, see Store
			}
			c.convDirty = false
			c.pauseAt = i + c.convStep
		}
		if i == c.site {
			if int(c.bit) >= c.model.BitsPerSite(bits.Width32) {
				panic(fmt.Sprintf("trace: coordinate %d armed against 32-bit site %d (population %d)", c.bit, i, c.model.BitsPerSite(bits.Width32)))
			}
			orig := v
			v = c.model.Apply32(v, i, c.bit)
			c.injected = true
			c.injErr = injectionError32(orig, v)
		}
		if bits.IsUnsafe32(v) {
			panic(crashSignal{site: i})
		}
		if i < len(c.ref) && float64(v) != c.ref[i] {
			c.convDirty = true
		}
		return v
	default:
		panic(fmt.Sprintf("trace: invalid mode %d", c.mode))
	}
}

func injectionError32(orig, flipped float32) float64 {
	if bits.IsUnsafe32(flipped) {
		return math.Inf(1)
	}
	d := float64(flipped) - float64(orig)
	if d < 0 {
		d = -d
	}
	return d
}

func injectionError(orig, flipped float64) float64 {
	if bits.IsUnsafe(flipped) {
		return math.Inf(1)
	}
	d := flipped - orig
	if d < 0 {
		d = -d
	}
	return d
}

// CountSites runs p in counting mode and returns its dynamic-instruction
// count (the size of the per-site sample space).
func CountSites(p Program) int {
	var c Ctx
	c.Count()
	p.Run(&c)
	return c.Sites()
}

// GoldenRun holds the fault-free execution of a program: the value of
// every dynamic instruction and the program output.
type GoldenRun struct {
	Trace  []float64 // golden value of each dynamic instruction
	Output []float64 // golden program output
}

// Sites returns the number of dynamic instructions.
func (g *GoldenRun) Sites() int { return len(g.Trace) }

// Golden executes p fault-free, recording the full golden trace and
// output. It fails if the fault-free run itself produces NaN/±Inf.
func Golden(p Program) (*GoldenRun, error) {
	var c Ctx
	c.Record(nil)
	out := p.Run(&c)
	g := &GoldenRun{Trace: c.GoldenTrace(), Output: out}
	for _, v := range g.Trace {
		if bits.IsUnsafe(v) {
			return nil, fmt.Errorf("%w (program %q)", ErrGoldenUnsafe, p.Name())
		}
	}
	for _, v := range g.Output {
		if bits.IsUnsafe(v) {
			return nil, fmt.Errorf("%w (program %q output)", ErrGoldenUnsafe, p.Name())
		}
	}
	return g, nil
}

// InjectResult is the outcome of a single fault-injection run.
type InjectResult struct {
	Output   []float64 // program output; nil if the run crashed or paused
	InjErr   float64   // |flipped − original| at the injection site
	Crashed  bool      // a tracked store produced NaN/±Inf
	CrashAt  int       // site of the unsafe store when Crashed
	Injected bool      // the run reached the target site
	// Paused reports that the run stopped at its plan's Until boundary.
	Paused bool
	// ConvergedAt is the probe boundary at which a Converge run proved
	// that its suffix replays the golden run (Output is then the golden
	// output), or 0 when the run executed to its end.
	ConvergedAt int
	// Probes counts the quiet-boundary pauses a Converge run paid.
	Probes int
}

// Plan describes one injection run for Run. Plan{Site, Bit} is the
// paper's primitive: a single fault at one dynamic instruction, run from
// the program entry to completion.
type Plan struct {
	// Site and Bit are the fault coordinate: the installed fault model
	// perturbs the value stored by dynamic instruction Site at coordinate
	// Bit. A negative Site arms no fault: the run is the tail of an
	// experiment that an Until run left paused at store Resume, finished
	// on the same instance with crash trapping armed.
	Site int
	Bit  uint
	// Resume is the number of stores already committed in the instance's
	// restored state: a golden-prefix checkpoint (see Snapshotter), or
	// the paused state a tail finishes. Site must not precede it.
	Resume int
	// Until, when positive, truncates a diff run at that store boundary:
	// the run commits and observes stores [Resume, Until) and pauses
	// inside the Store call for store Until, before that store — and any
	// crash it would raise — is processed. It must lie beyond Site; a
	// boundary at or past the end of the trace never pauses. Truncation
	// requires a Sink, so the plain inject path carries no pause check.
	Until int
	// Sink, when non-nil, receives |golden − corrupted| for every site
	// from 0 in execution order: a resumed run first replays the prefix
	// [0, Resume) as zero deltas. A SparseSink receives only the nonzero
	// deltas, so no prefix at all. On a crash the sink has observed every
	// site before the crashing store.
	Sink DiffSink
	// Converge, when its StateAt is set, arms the reconvergence early
	// exit. It excludes Sink and Until.
	Converge Converge
}

// Converge arms a run to prove, when it can, that its suffix replays the
// golden run exactly — cutting the experiment short with a byte-identical
// result.
//
// The run tracks whether any committed store deviated from the golden
// trace since the last probe boundary (boundaries start at First, which
// must lie beyond the injection site, and advance by Step). At a quiet
// boundary k the run pauses pre-commit — the live state then holds
// exactly the stores [0, k) — and Run compares it against StateAt(k),
// the golden state for prefix k, via StateComparer. Bit-identical state
// implies, by determinism of the kernel's fixed control flow, that the
// remaining stores and the output are byte-identical to the golden run:
// Run returns at once with the golden output and ConvergedAt = k. A
// failed comparison (a deviated slot that merely went quiet, or StateAt
// reporting no state for k) resumes the run from k with the probe
// spacing doubled, so quiet-but-diverged runs pay at most
// O(log(n/Step)) probe walks. The program must implement StateComparer.
type Converge struct {
	First, Step int
	StateAt     func(k int) (State, bool)
}

// arm resolves pl into a single Store mode and (re)arms c with it. The
// fault model is sticky across arming.
func (c *Ctx) arm(golden *GoldenRun, pl Plan) {
	conv := pl.Converge.StateAt != nil
	if pl.Site < 0 {
		if pl.Sink != nil || pl.Until > 0 || conv {
			panic("trace: a tail run (negative site) takes no sink, truncation or converge probe")
		}
		*c = Ctx{mode: ModeInject, site: -1, n: pl.Resume, resume: pl.Resume, model: c.model}
		return
	}
	if pl.Site < pl.Resume {
		panic(fmt.Sprintf("trace: injection site %d precedes resume offset %d", pl.Site, pl.Resume))
	}
	*c = Ctx{mode: ModeInject, site: pl.Site, bit: pl.Bit, n: pl.Resume, resume: pl.Resume, model: c.model}
	switch {
	case conv:
		cv := pl.Converge
		if pl.Sink != nil || pl.Until > 0 {
			panic("trace: a converge run takes no sink or truncation")
		}
		if cv.First <= pl.Site || cv.Step <= 0 {
			panic(fmt.Sprintf("trace: converge probe (first %d, step %d) does not cover injection site %d", cv.First, cv.Step, pl.Site))
		}
		c.mode, c.ref, c.pauseAt, c.convStep = modeInjectConverge, golden.Trace, cv.First, cv.Step
	case pl.Sink != nil:
		if pl.Until > 0 && pl.Until <= pl.Site {
			panic(fmt.Sprintf("trace: truncation boundary %d does not cover injection site %d", pl.Until, pl.Site))
		}
		_, sparse := pl.Sink.(SparseSink)
		c.mode, c.ref, c.sink, c.sparse, c.pauseAt = ModeInjectDiff, golden.Trace, pl.Sink, sparse, pl.Until
	case pl.Until > 0:
		panic("trace: truncation (Until) requires a Sink")
	}
}

// exec runs p on the armed context, turning the crash and pause signals
// into the result.
func (c *Ctx) exec(p Program) (res InjectResult, paused bool) {
	defer func() {
		res.InjErr = c.injErr
		res.Injected = c.injected
		if r := recover(); r != nil {
			switch s := r.(type) {
			case crashSignal:
				res.Crashed, res.CrashAt, res.Output = true, s.site, nil
			case pauseSignal:
				paused, res.Output = true, nil
			default:
				panic(r)
			}
		}
	}()
	res.Output = p.Run(c)
	return res, false
}

// Run executes p once under plan pl, using ctx (re-armed internally). It
// is the single injection runner: the plain, resumed, diff, truncated,
// converge and tail variants are all plans.
//
// golden is the program's fault-free run. It may be nil only for a plan
// without Sink or Converge, and then the trace-mismatch check is
// skipped. Otherwise a run that completes without crashing must execute
// exactly golden's number of stores, or Run returns ErrTraceMismatch (the
// factory built a different, or non-data-oblivious, program).
//
// The outcome — output, crash, injected error — of a resumed run is
// byte-identical to a from-scratch run at the same coordinate, and a
// truncated or crashed run is a byte-exact prefix of the full run. The
// returned output aliases kernel-owned memory only until the next run
// on the same Program instance; callers that keep it must copy.
func Run(ctx *Ctx, p Program, golden *GoldenRun, pl Plan) (InjectResult, error) {
	var cmp StateComparer
	if pl.Converge.StateAt != nil {
		var ok bool
		if cmp, ok = p.(StateComparer); !ok {
			panic(fmt.Sprintf("trace: program %q armed for converge without StateComparer", p.Name()))
		}
	}
	ctx.arm(golden, pl)
	if pl.Sink != nil && !ctx.sparse {
		for i := range min(pl.Resume, len(golden.Trace)) {
			pl.Sink.Observe(i, golden.Trace[i], 0)
		}
	}
	step, probes := pl.Converge.Step, 0
	for {
		res, paused := ctx.exec(p)
		res.Probes = probes
		switch {
		case !paused:
			if golden != nil && !res.Crashed && ctx.n != golden.Sites() {
				return res, fmt.Errorf("%w: got %d, golden %d (program %q)",
					ErrTraceMismatch, ctx.n, golden.Sites(), p.Name())
			}
			return res, nil
		case cmp == nil:
			res.Paused = true
			return res, nil
		}
		// A converge run paused pre-commit at a quiet probe boundary: the
		// live state holds exactly [0, pauseAt). (ctx.n is pauseAt+1 here —
		// the counter advances before the pause fires.)
		k := ctx.pauseAt
		probes++
		if st, ok := pl.Converge.StateAt(k); ok && cmp.StateEqual(st) {
			res.Output, res.ConvergedAt, res.Probes = golden.Output, k, probes
			return res, nil
		}
		step *= 2
		ctx.resumeConverge(k, step)
	}
}
