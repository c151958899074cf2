package campaign

import (
	"ftb/internal/trace"
)

// DefaultReplayPool is the size of the per-worker pool of golden
// boundary snapshots kept alongside the moving head snapshot. 64 entries of a paper-size kernel state are on the
// order of a megabyte per worker — small next to the golden-prefix
// re-execution the pool avoids.
const DefaultReplayPool = 64

// restoreTier classifies what a replayCache.prepare call did to position
// the worker's live state, for the restore-attribution telemetry
// ("where did the prefix come from"). Exactly one tier is charged per
// prepared experiment.
type restoreTier uint8

const (
	// tierNone: the experiment runs from the program entry (prefix
	// boundary 0); no snapshot is consulted and nothing is charged.
	tierNone restoreTier = iota
	// tierSite is a snapshot hit: the held snapshot sits exactly at the
	// injection site and was restored as-is, so the experiment
	// re-executes no prefix store at all.
	tierSite
	// tierPool: the head snapshot was unusable (typically a backward jump
	// under dynamic scheduling) and the rebuild was seeded from the
	// nearest pooled golden boundary snapshot at or below the target.
	tierPool
	// tierMiss: the rebuild ran the golden prefix forward — from the held
	// snapshot when it was behind the target, else from the program
	// entry — because neither the head nor the pool covered it.
	tierMiss
)

// prep is prepare's accounting: where the run resumes, which restore
// tier served it, and whether the head restore went through the
// kernel's dirty-interval delta path instead of a full state copy.
type prep struct {
	resume int
	tier   restoreTier
	delta  bool
}

// replayCache is one worker's checkpointed-replay state, two-tiered:
//
//   - The head snapshot moves with the campaign and sits at the
//     injection site itself, so the Bits experiments of one site all
//     restore with zero re-executed prefix stores.
//   - A bounded pool of golden boundary snapshots, precomputed on first
//     use by one golden pass, seeds rebuilds whose target is behind or
//     far ahead of the head (dynamic scheduling handing a worker an
//     earlier batch no longer re-runs the golden prefix from the entry)
//     and doubles as the comparison target for reconvergence probes.
//
// Kernels that only implement the single-buffer trace.Snapshotter keep
// the head (Snapshot invalidates prior States, so no pool); kernels
// implementing trace.MultiSnapshotter get both tiers, and reconvergence
// probes when they also implement trace.StateComparer. A kernel that
// additionally implements trace.DeltaSnapshotter restores the head by
// copying back only the store interval the previous run dirtied.
type replayCache struct {
	snap  trace.Snapshotter
	multi trace.MultiSnapshotter // nil: single-buffer kernel, head only
	delta trace.DeltaSnapshotter // nil: full-copy restores

	sites int // golden trace length (pool layout and converge probes)

	// Head snapshot: prefix length `cached` (-1 when empty) and its
	// state buffer. On the multi path the buffer is owned by the cache
	// (SnapshotInto) and survives pool operations.
	cached int
	state  trace.State

	// Dirty-interval tracking for delta restores: the union of store
	// intervals committed on the live state since it last matched the
	// head. prepare folds the previous run's extent in from the Ctx, so
	// the interval is maintained without help from callers — under the
	// invariant that every run between two prepare calls resumes at or
	// above the offset the first prepare returned (the engine and
	// compose paths all do; a fresh full run is resume 0, which prepare
	// itself returns).
	lastResume         int // resume offset handed out by the last prepare; -1 = unknown
	dirtyFrom, dirtyTo int

	// Pool of golden boundary snapshots at prefixes poolStep, 2·poolStep,
	// …, len(pool)·poolStep (all ≤ sites-1), built lazily by one golden
	// advance pass. poolCap is 0 (no pool) on single-buffer kernels.
	poolCap   int
	poolStep  int
	pool      []trace.State
	poolBuilt bool

	// Reconvergence early-exit policy (conv gates the whole mechanism;
	// the per-coordinate counters adaptively stop arming converge mode
	// for fault coordinates whose runs never reconverge, since an armed
	// run pays a golden-trace compare per store).
	conv      bool
	convFails [64]uint8
}

// convFailLimit and convReprobeEvery tune the adaptive converge policy:
// after convFailLimit consecutive non-exits a fault coordinate stops
// arming converge mode, except at every convReprobeEvery-th site, where
// every coordinate probes again (error behavior drifts along the trace —
// faults that matter early in an iteration often damp out late).
const (
	convFailLimit    = 2
	convReprobeEvery = 32
)

// newReplayCache builds a worker's cache for a golden trace of the given
// length. s must be the Factory instance this worker runs.
func newReplayCache(sites int, s trace.Snapshotter) *replayCache {
	rc := &replayCache{
		snap:       s,
		sites:      sites,
		cached:     -1,
		lastResume: -1,
	}
	if m, ok := s.(trace.MultiSnapshotter); ok {
		rc.multi = m
		rc.poolCap = DefaultReplayPool
		if d, ok := s.(trace.DeltaSnapshotter); ok {
			rc.delta = d
		}
		_, rc.conv = s.(trace.StateComparer)
	}
	return rc
}

// drop empties the head after a failed golden advance: both the prefix
// length and the state buffer are released, so a later prepare cannot
// restore from a snapshot whose build never completed.
func (rc *replayCache) drop() {
	rc.cached = -1
	rc.state = nil
	rc.lastResume = -1
	rc.dirtyFrom, rc.dirtyTo = 0, 0
}

// noteDirty folds one live-state store interval into the dirty span.
func (rc *replayCache) noteDirty(from, to int) {
	if to <= from {
		return
	}
	if rc.dirtyTo <= rc.dirtyFrom {
		rc.dirtyFrom, rc.dirtyTo = from, to
		return
	}
	if from < rc.dirtyFrom {
		rc.dirtyFrom = from
	}
	if to > rc.dirtyTo {
		rc.dirtyTo = to
	}
}

// restoreHead rewinds the live state to the head snapshot, through the
// kernel's delta path when it can prove the dirty interval covers every
// divergence. Reports whether the delta path served the restore.
func (rc *replayCache) restoreHead() bool {
	if rc.delta != nil && rc.dirtyTo > rc.dirtyFrom &&
		rc.delta.RestoreDelta(rc.state, rc.dirtyFrom, rc.dirtyTo) {
		rc.dirtyFrom, rc.dirtyTo = 0, 0
		return true
	}
	rc.snap.Restore(rc.state)
	rc.dirtyFrom, rc.dirtyTo = 0, 0
	return false
}

// buildPool runs one golden pass over the trace, snapshotting every
// poolStep-th prefix boundary into its own buffer. The spacing is the
// smallest that keeps the pool within poolCap entries. On return the live state holds the last pooled prefix; the
// caller's rebuild logic picks it (or a pooled ancestor) up from there.
func (rc *replayCache) buildPool(ctx *trace.Ctx) error {
	rc.poolBuilt = true
	if rc.multi == nil || rc.poolCap <= 0 || rc.sites <= 1 {
		return nil
	}
	step := (rc.sites - 2 + rc.poolCap) / rc.poolCap // ⌈(sites-1)/poolCap⌉
	n := (rc.sites - 1) / step
	if n == 0 {
		return nil
	}
	rc.poolStep = step
	rc.pool = make([]trace.State, n)
	prev := 0
	for i := 0; i < n; i++ {
		b := (i + 1) * step
		if err := trace.Advance(ctx, rc.snap, prev, b); err != nil {
			rc.pool, rc.poolStep = nil, 0
			return err
		}
		rc.pool[i] = rc.multi.SnapshotInto(nil)
		prev = b
	}
	return nil
}

// poolBase returns the deepest pooled prefix at or below target, with
// its pool index, or (0, -1) when the pool has nothing usable.
func (rc *replayCache) poolBase(target int) (int, int) {
	if rc.poolStep == 0 {
		return 0, -1
	}
	i := target / rc.poolStep
	if i > len(rc.pool) {
		i = len(rc.pool)
	}
	if i == 0 {
		return 0, -1
	}
	return i * rc.poolStep, i - 1
}

// poolStateAt returns the pooled golden state whose prefix length is
// exactly k, for reconvergence probes.
func (rc *replayCache) poolStateAt(k int) (trace.State, bool) {
	if rc.poolStep == 0 || k <= 0 || k%rc.poolStep != 0 {
		return nil, false
	}
	i := k/rc.poolStep - 1
	if i >= len(rc.pool) {
		return nil, false
	}
	return rc.pool[i], true
}

// convergeSchedule decides whether the next run at (site, bit) should be
// armed for reconvergence early-exit and returns the first probe
// boundary and spacing. It requires a built pool (the probes compare
// against pooled golden states) and a pooled boundary strictly after the
// injection site, and consults the adaptive per-coordinate policy.
func (rc *replayCache) convergeSchedule(site int, bit uint) (first, step int, ok bool) {
	if !rc.conv || rc.poolStep == 0 || len(rc.pool) == 0 {
		return 0, 0, false
	}
	if int(bit) < len(rc.convFails) && rc.convFails[bit] >= convFailLimit &&
		site%convReprobeEvery != 0 {
		return 0, 0, false
	}
	first = (site/rc.poolStep + 1) * rc.poolStep
	if first > len(rc.pool)*rc.poolStep {
		return 0, 0, false
	}
	return first, rc.poolStep, true
}

// convergeResult feeds one armed run's outcome back into the adaptive
// policy. Crashed runs are neutral evidence (they never got the chance
// to reconverge).
func (rc *replayCache) convergeResult(bit uint, res trace.InjectResult) {
	if int(bit) >= len(rc.convFails) {
		return
	}
	switch {
	case res.ConvergedAt > 0:
		rc.convFails[bit] = 0
	case res.Crashed:
	case rc.convFails[bit] < convFailLimit:
		rc.convFails[bit]++
	}
}

// prepare positions the worker's program to inject at site and returns
// the resume offset to pass as trace.Plan.Resume, plus the restore-tier
// accounting. On return the live state holds exactly the prefix
// [0, resume) — restored, delta-restored, or produced by running the
// golden prefix — so the caller can launch the injection run
// immediately. A zero site means the experiment runs from the program
// entry and no snapshot is consulted.
func (rc *replayCache) prepare(ctx *trace.Ctx, site int) (prep, error) {
	// Fold the previous run's store extent into the live-vs-head dirty
	// interval: a run armed at lastResume committed at most the stores
	// [lastResume, ctx.Sites()).
	if rc.cached >= 0 && rc.lastResume >= 0 {
		rc.noteDirty(rc.lastResume, ctx.Sites())
	}
	if !rc.poolBuilt {
		if err := rc.buildPool(ctx); err != nil {
			rc.drop()
			return prep{}, err
		}
	}
	if site == 0 {
		rc.lastResume = 0
		return prep{}, nil
	}
	if rc.cached == site {
		// Hit: the held snapshot is exactly this experiment's prefix.
		usedDelta := rc.restoreHead()
		rc.lastResume = site
		return prep{resume: site, tier: tierSite, delta: usedDelta}, nil
	}
	// Rebuild: seed from the deepest usable prefix at or below the
	// site — the held head when it is behind the site, a pooled golden
	// boundary when that gets closer (or when the site is behind the
	// head: dynamic scheduling handing this worker an earlier batch),
	// else the program entry.
	base := 0
	fromHead := rc.cached > 0 && rc.cached < site
	if fromHead {
		base = rc.cached
	}
	tier := tierMiss
	if pb, pi := rc.poolBase(site); pb > base {
		rc.snap.Restore(rc.pool[pi])
		base, fromHead = pb, false
		tier = tierPool
	} else if fromHead {
		rc.restoreHead()
	}
	if base < site {
		if err := trace.Advance(ctx, rc.snap, base, site); err != nil {
			rc.drop()
			return prep{}, err
		}
	}
	// The live state now holds exactly [0, site); the snapshot copy
	// doubles as the restore for the run that follows.
	if rc.multi != nil {
		rc.state = rc.multi.SnapshotInto(rc.state)
	} else {
		rc.state = rc.snap.Snapshot()
	}
	rc.cached = site
	rc.dirtyFrom, rc.dirtyTo = 0, 0
	rc.lastResume = site
	return prep{resume: site, tier: tier}, nil
}
