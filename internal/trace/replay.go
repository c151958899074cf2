// Checkpointed prefix replay: the injection run for site i is
// byte-identical to the golden run for every store before i, so a
// campaign that snapshots the kernel state at a site's prefix boundary
// can replay all bit flips for that site from the snapshot instead of
// re-executing the prefix. This file holds the substrate half of that
// optimization: the Snapshotter contract kernels opt into, the
// advance/pause mechanism that drives a kernel to an exact store
// boundary. Run resumes an injection from such a boundary (Plan.Resume).
package trace

import "fmt"

// State is an opaque kernel snapshot. Its concrete type is owned by the
// kernel that produced it; the campaign layer only shuttles it between
// Snapshot and Restore on the same Program instance.
//
// A kernel may (and the in-tree kernels do) back all its States with a
// single reusable buffer: calling Snapshot invalidates any State the
// same instance returned earlier. The replay cache holds at most one
// live State per Program instance, so this aliasing is safe.
type State any

// Snapshotter is implemented by programs that support checkpointed
// prefix replay. Snapshot captures every piece of state that Run
// mutates (arrays, scratch buffers, carried scalars) at a store
// boundary: after Advance(ctx, p, from, to) returns, exactly the
// tracked stores [0, to) have been committed, and Snapshot must capture
// enough to later Restore the instance to that point and resume with
// a Ctx armed at offset to.
//
// Programs that do not implement Snapshotter transparently fall back to
// full re-execution in the campaign layer.
type Snapshotter interface {
	Program
	// Snapshot captures the current run state. The returned State is
	// only valid until the next Snapshot call on the same instance.
	Snapshot() State
	// Restore rewinds the instance to a state previously captured by
	// Snapshot on the same instance.
	Restore(State)
}

// MultiSnapshotter is implemented by Snapshotter programs that support
// several live snapshots at once. SnapshotInto deep-copies the current
// run state into dst — reusing its storage when dst was produced by a
// previous SnapshotInto on the same instance, allocating a fresh buffer
// when dst is nil — and returns it. Unlike Snapshot, the returned State
// stays valid across later Snapshot/SnapshotInto calls, which is what
// lets the campaign layer keep a pool of boundary snapshots alongside
// the moving per-site snapshot.
type MultiSnapshotter interface {
	Snapshotter
	SnapshotInto(dst State) State
}

// StateComparer is implemented by Snapshotter programs that can compare
// their live run state against a snapshot. StateEqual must compare
// bit-patterns (math.Float64bits / Float32bits), not float equality:
// a −0.0/+0.0 disagreement must report unequal, so that callers using
// equality as a proof of identical continuation stay conservative.
type StateComparer interface {
	Program
	StateEqual(s State) bool
}

// DeltaSnapshotter is implemented by MultiSnapshotter programs that can
// restore a snapshot by copying back only the state a bounded run could
// have dirtied. RestoreDelta rewinds the instance to s, given that every
// live mutation since s last matched the live state came from tracked
// stores with dynamic indices in [from, to) (plus any unit-local
// intermediates those stores' statements stash). The kernel maps the
// index interval to the array regions those stores write — in-tree
// kernels are data-oblivious, so the mapping is a fixed function of the
// index — and copies only those regions plus all stashed scalars. It
// returns false when it cannot bound the dirty region for that interval,
// and the caller falls back to a full Restore.
type DeltaSnapshotter interface {
	MultiSnapshotter
	RestoreDelta(s State, from, to int) bool
}

// pauseSignal aborts an advance run once the target store boundary is
// reached. It never escapes this package.
type pauseSignal struct{}

// ResumePos returns the store offset the context was armed to resume
// from: the number of already-committed tracked stores a resumed Run
// must skip before its first Store call. Zero for a from-scratch run.
func (c *Ctx) ResumePos() int { return c.resume }

// resumeConverge re-arms c to continue a converge run that paused at
// store `from` but failed its state comparison: the instance still holds
// the corrupted mid-run state with `from` stores committed. The flip has
// already fired (the first probe boundary lies beyond the site), so no
// injection is armed, and the fired injection's record is carried over.
func (c *Ctx) resumeConverge(from, step int) {
	*c = Ctx{mode: modeInjectConverge, site: -1, ref: c.ref,
		n: from, resume: from, pauseAt: from + step, convStep: step,
		injected: c.injected, injErr: c.injErr, model: c.model}
}

// armAdvance arms c to run stores [from, to) and pause: the run skips
// the first `from` stores (already committed in the restored state),
// commits stores [from, to), and aborts inside the Store call for store
// `to` — before the kernel assigns its value anywhere.
func (c *Ctx) armAdvance(from, to int) {
	*c = Ctx{mode: modeAdvance, n: from, resume: from, pauseAt: to, model: c.model}
}

// Advance drives p from a state holding the first `from` stores to one
// holding exactly the first `to` stores, then pauses it. The golden
// prefix is known safe, so no crash trapping applies. A run that
// completes without reaching store `to` means the boundary lies past
// the end of the trace (a campaign or kernel bug) and is an error.
func Advance(ctx *Ctx, p Program, from, to int) error {
	if from < 0 || to < from {
		return fmt.Errorf("trace: invalid advance range [%d, %d)", from, to)
	}
	ctx.armAdvance(from, to)
	if _, paused := ctx.exec(p); !paused {
		return fmt.Errorf("trace: advance to store %d never paused (program %q ran %d stores)",
			to, p.Name(), ctx.Sites())
	}
	return nil
}
