package campaign

// Frontier tracks the contiguous-completion watermark of an in-order
// merge: completed index ranges arrive in any order (workers finish
// batches out of order, remote shards return out of order) and the
// frontier advances only when the prefix [0, frontier) is gap-free.
// Progress events report it. Resume does not use it: one slow range can
// hold it back while the rest of a campaign finishes, so resume keeps
// the completed ranges themselves (see ExhaustiveResume).
//
// The in-process engine and the cluster coordinator share this type so
// both execution paths have identical merge semantics. A Frontier is not
// safe for concurrent use; callers serialize access (the engine under its
// progress lock, the coordinator under its own).
type Frontier struct {
	frontier int
	pending  map[int]int // detached completed ranges [lo, hi)
}

// RangeDone records the completion of items [lo, hi) and advances the
// frontier when the range closes its gap. Overlapping or duplicate ranges
// are merge errors upstream; Frontier assumes each index completes
// exactly once.
func (f *Frontier) RangeDone(lo, hi int) {
	if lo != f.frontier {
		if f.pending == nil {
			f.pending = make(map[int]int)
		}
		f.pending[lo] = hi
		return
	}
	f.frontier = hi
	for {
		h, ok := f.pending[f.frontier]
		if !ok {
			return
		}
		delete(f.pending, f.frontier)
		f.frontier = h
	}
}

// Current returns the watermark: every item with index < Current() has
// completed.
func (f *Frontier) Current() int { return f.frontier }

// Pending returns the number of completed ranges detached from the
// frontier (waiting on an earlier gap).
func (f *Frontier) Pending() int { return len(f.pending) }
