// Package obs is the campaign span layer: a low-overhead hierarchical
// trace of where wall-clock goes while a campaign runs. Spans form a
// tree — campaign → phase → lease/batch → (sampled) experiment — with
// typed sub-spans for the costs the paper's throughput story turns on:
// checkpoint restore, replay tail, compose prediction and fallback,
// store appends, and queue wait.
//
// Recording is built for the engine's hot path. Spans land in
// worker-striped fixed-capacity rings claimed by a single atomic
// cursor bump; a full stripe drops (and counts) new spans instead of
// blocking. Experiment spans are sampled (one per SampleEvery per
// worker) so the unsampled path costs one counter increment and zero
// clock reads; batch and queue-wait spans chain their timestamps so a
// batch costs two clock reads total. Export (Cut) happens only after
// the campaign has quiesced.
//
// The same Span type crosses the cluster wire: workers record spans
// into a per-lease Recorder and return them in the lease response, and
// the coordinator grafts them under its own lease spans (Graft) so one
// timeline covers the whole fleet.
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Category types a span. The category carries the semantic meaning —
// Name is optional human labeling (phase names, lease IDs).
type Category uint8

const (
	// CatCampaign is the root: one span covering a whole facade-level
	// campaign including store finalization.
	CatCampaign Category = iota
	// CatPhase covers one engine phase ("exhaustive", "classify",
	// "compose-calibrate", ...). Parent: campaign (or a lease span once
	// grafted from a cluster worker).
	CatPhase
	// CatLease covers one coordinator lease round-trip: HTTP request,
	// worker execution, response decode. Parent: campaign.
	CatLease
	// CatWait is engine queue overhead: batch claim plus progress/
	// frontier merge. Wait and batch spans tile each worker's lifetime.
	CatWait
	// CatBatch covers one claimed batch of experiments. Parent: phase.
	CatBatch
	// CatExperiment covers one sampled experiment. Parent: batch.
	// Meta is the experiment index.
	CatExperiment
	// CatRestore is the checkpoint-restore prefix of a sampled
	// experiment served by a first-tier boundary snapshot hit (no longer
	// produced by the campaign cache) or, at resume site 0, the no-op
	// entry path. Meta is the resume site.
	CatRestore
	// CatRestoreSite is a second-tier restore: the held per-site
	// snapshot served the prefix. Meta is the resume site.
	CatRestoreSite
	// CatRestorePool is a snapshot rebuild seeded from a pooled golden
	// boundary snapshot (typically a backward batch jump under dynamic
	// scheduling). Meta is the resume site.
	CatRestorePool
	// CatRestoreBuild is a golden-prefix rebuild: the prefix was
	// re-executed forward from the held snapshot or the program entry.
	// Meta is the resume site.
	CatRestoreBuild
	// CatTail is a compose resume-from-boundary tail run.
	CatTail
	// CatPredict is a compose section-summary prediction.
	CatPredict
	// CatFallback is a compose full-execution fallback run.
	CatFallback
	// CatStoreAppend is a durable ground-truth store append
	// (checkpoint delta or cluster shard). Parent: campaign.
	CatStoreAppend
	// CatExecute never appears on recorded spans: Attribute synthesizes
	// it for the portion of batch time not explained by typed
	// sub-spans — the experiments' own execution.
	CatExecute

	numCategories
)

var catNames = [numCategories]string{
	"campaign", "phase", "lease", "queue_wait", "batch",
	"experiment", "restore", "restore_site", "restore_pool",
	"restore_build", "tail", "predict", "fallback",
	"store_append", "execute",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "unknown"
}

// ParseCategory maps a category name back to its value.
func ParseCategory(s string) (Category, bool) {
	for i, n := range catNames {
		if n == s {
			return Category(i), true
		}
	}
	return 0, false
}

// MarshalJSON encodes the category as its name so JSONL span files and
// wire payloads stay self-describing.
func (c Category) MarshalJSON() ([]byte, error) {
	return []byte(`"` + c.String() + `"`), nil
}

// UnmarshalJSON accepts a category name.
func (c *Category) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' {
		if v, ok := ParseCategory(string(b[1 : len(b)-1])); ok {
			*c = v
			return nil
		}
	}
	*c = numCategories // preserved as invalid; Graft and Attribute skip it
	return nil
}

// Span is one recorded interval. Start is absolute (Unix nanoseconds)
// so spans recorded by different processes on one machine stitch into
// a single timeline without clock translation.
type Span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Cat    Category `json:"cat"`
	Name   string   `json:"name,omitempty"`
	// Worker is the engine worker index, or -1 for control spans
	// (campaign, phase, lease, store append).
	Worker int `json:"worker"`
	// Shard is empty for locally-recorded spans and set to the worker
	// URL when a span is grafted from a cluster lease response.
	Shard string `json:"shard,omitempty"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
	// Meta is category-specific: experiment index, resume site, batch
	// size, experiment count.
	Meta int64 `json:"meta,omitempty"`
}

// End returns the span's end timestamp.
func (s Span) End() int64 { return s.Start + s.Dur }

const (
	// DefaultSampleEvery is the default experiment-span sampling rate:
	// one experiment span (with sub-spans) per this many experiments
	// per worker.
	DefaultSampleEvery = 64

	// sampledBudget caps the expected sampled-experiment count when the
	// rate is auto-resolved (EffectiveSample): each sample records a few
	// spans, so this keeps even paper-size campaigns within a default
	// Recorder's capacity with room for the batch/wait tiling.
	sampledBudget = 1 << 14

	numStripes        = 16
	defaultStripeCap  = 1 << 13
	defaultControlCap = 1 << 12
)

// EffectiveSample resolves the experiment sampling rate for a campaign
// of n experiments: an explicit rate wins; otherwise the default rate
// is raised just enough that the expected sample count stays within
// sampledBudget, so large campaigns don't overflow the span buffers at
// the default setting.
func EffectiveSample(n, sample int) int {
	if sample > 0 {
		return sample
	}
	rate := DefaultSampleEvery
	if n > rate*sampledBudget {
		rate = (n + sampledBudget - 1) / sampledBudget
	}
	return rate
}

// stripe is one fixed-capacity span buffer. pos is bumped atomically to
// claim a slot; each slot is written by exactly the claiming goroutine
// and read only after the campaign quiesces, so recording is race-free
// by construction. put reports whether a slot was claimed.
type stripe struct {
	pos atomic.Int64
	_   [56]byte // keep cursors on separate cache lines
	buf []Span
}

func (s *stripe) put(sp Span) bool {
	i := s.pos.Add(1) - 1
	if i >= int64(len(s.buf)) {
		return false
	}
	s.buf[i] = sp
	return true
}

func (s *stripe) cut() []Span {
	n := s.pos.Load()
	if n > int64(len(s.buf)) {
		n = int64(len(s.buf))
	}
	return s.buf[:n]
}

// Recorder collects spans for one process. Control spans (worker < 0)
// get their own stripe so phase and campaign records survive even when
// a span-heavy campaign fills the worker stripes.
type Recorder struct {
	ids     atomic.Uint64
	dropped atomic.Int64
	control stripe
	stripes [numStripes]stripe
}

// NewRecorder returns a Recorder with default capacity (~135k spans).
func NewRecorder() *Recorder {
	return NewRecorderSize(defaultStripeCap, defaultControlCap)
}

// NewRecorderSize returns a Recorder with explicit per-stripe and
// control-stripe capacities (mainly for tests exercising overflow).
func NewRecorderSize(stripeCap, controlCap int) *Recorder {
	r := &Recorder{}
	r.control.buf = make([]Span, controlCap)
	for i := range r.stripes {
		r.stripes[i].buf = make([]Span, stripeCap)
	}
	return r
}

func (r *Recorder) record(sp Span) {
	if sp.Worker < 0 {
		if !r.control.put(sp) {
			r.dropped.Add(1)
		}
		return
	}
	// A worker's home stripe keeps the hot path at one atomic bump; on
	// overflow the span spills to the other stripes before dropping, so
	// the whole capacity is usable even when one worker (or a skewed
	// few) records most of the spans.
	base := sp.Worker & (numStripes - 1)
	for off := 0; off < numStripes; off++ {
		if r.stripes[(base+off)&(numStripes-1)].put(sp) {
			return
		}
	}
	r.dropped.Add(1)
}

// Dropped reports how many spans were discarded because a stripe
// filled (or a grafted span carried an unknown category).
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Cut returns every recorded span ordered by start time. It must only
// be called after recording has quiesced (campaign returned, lease
// response built); it does not reset the recorder.
func (r *Recorder) Cut() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	out = append(out, r.control.cut()...)
	for i := range r.stripes {
		out = append(out, r.stripes[i].cut()...)
	}
	sortSpans(out)
	return out
}

// Start opens a control or structural span at the current time. The
// returned Handle's ID is allocated immediately, so child spans may
// reference (and even be recorded before) a still-open parent. Safe on
// a nil Recorder: the zero Handle's End is a no-op.
func (r *Recorder) Start(cat Category, name string, parent uint64, worker int) Handle {
	if r == nil {
		return Handle{}
	}
	return Handle{
		r: r, id: r.ids.Add(1), parent: parent,
		cat: cat, name: name, worker: worker,
		start: time.Now().UnixNano(),
	}
}

// Handle is an open span returned by Start.
type Handle struct {
	r      *Recorder
	id     uint64
	parent uint64
	cat    Category
	name   string
	worker int
	start  int64
}

// ID returns the span ID for parenting children (0 for the zero Handle).
func (h Handle) ID() uint64 { return h.id }

// End closes and records the span. Meta is category-specific.
func (h Handle) End(meta int64) {
	if h.r == nil {
		return
	}
	h.r.record(Span{
		ID: h.id, Parent: h.parent, Cat: h.cat, Name: h.name,
		Worker: h.worker, Start: h.start,
		Dur: time.Now().UnixNano() - h.start, Meta: meta,
	})
}

// Graft appends spans recorded by another process's Recorder (a cluster
// lease response): every span gets a fresh ID from this recorder,
// parents are remapped through the batch, roots re-parent under parent,
// and Shard is stamped on each span. Call only while holding whatever
// lock serializes merges (the coordinator grafts under co.mu).
func (r *Recorder) Graft(spans []Span, parent uint64, shard string) {
	if r == nil {
		return
	}
	ids := make(map[uint64]uint64, len(spans))
	for _, sp := range spans {
		ids[sp.ID] = r.ids.Add(1)
	}
	for _, sp := range spans {
		if sp.Cat >= numCategories {
			r.dropped.Add(1)
			continue
		}
		sp.ID = ids[sp.ID]
		if p, ok := ids[sp.Parent]; ok && sp.Parent != 0 {
			sp.Parent = p
		} else {
			sp.Parent = parent
		}
		sp.Shard = shard
		r.record(sp)
	}
}

// WorkerSpans is one engine worker's span state. It is single-
// goroutine by construction (the engine allocates one per worker) and
// nil-safe throughout, so worker code calls it unconditionally. Wait
// and batch spans chain timestamps — each span starts where the
// previous one ended — so together they tile the worker's lifetime,
// which is what lets attribution account for ~100% of wall-clock.
type WorkerSpans struct {
	rec        *Recorder
	worker     int
	phase      uint64 // parent for wait/batch spans
	sample     int
	clock      int64  // end of the last wait/batch span
	batch      uint64 // open batch span ID (0 = none)
	batchStart int64
	exp        uint64 // open sampled experiment span ID (0 = unsampled)
	expStart   int64
	count      int // experiments seen, drives sampling
}

// Worker returns span state for one engine worker under the given
// phase span. sample <= 0 selects DefaultSampleEvery. Returns nil (a
// valid no-op receiver) on a nil Recorder.
func (r *Recorder) Worker(phase uint64, worker, sample int) *WorkerSpans {
	if r == nil {
		return nil
	}
	if sample <= 0 {
		sample = DefaultSampleEvery
	}
	return &WorkerSpans{
		rec: r, worker: worker, phase: phase, sample: sample,
		clock: time.Now().UnixNano(),
	}
}

// StartBatch closes the pending queue-wait span (claim + previous
// merge) and opens a batch span.
func (ws *WorkerSpans) StartBatch() {
	if ws == nil {
		return
	}
	now := time.Now().UnixNano()
	ws.rec.record(Span{
		ID: ws.rec.ids.Add(1), Parent: ws.phase, Cat: CatWait,
		Worker: ws.worker, Start: ws.clock, Dur: now - ws.clock,
	})
	ws.batch = ws.rec.ids.Add(1)
	ws.batchStart = now
	ws.clock = now
}

// EndBatch closes the open batch span; Meta records the batch size.
// The progress merge that follows lands in the next wait span.
func (ws *WorkerSpans) EndBatch(lo, hi int) {
	if ws == nil || ws.batch == 0 {
		return
	}
	now := time.Now().UnixNano()
	ws.rec.record(Span{
		ID: ws.batch, Parent: ws.phase, Cat: CatBatch,
		Worker: ws.worker, Start: ws.batchStart, Dur: now - ws.batchStart,
		Meta: int64(hi - lo),
	})
	ws.batch = 0
	ws.clock = now
}

// Finish closes the trailing wait span when the worker exits. The
// engine defers it; an open batch (error/cancel exit) is closed first.
func (ws *WorkerSpans) Finish() {
	if ws == nil {
		return
	}
	if ws.batch != 0 {
		ws.EndBatch(0, 0)
	}
	now := time.Now().UnixNano()
	ws.rec.record(Span{
		ID: ws.rec.ids.Add(1), Parent: ws.phase, Cat: CatWait,
		Worker: ws.worker, Start: ws.clock, Dur: now - ws.clock,
	})
}

// BeginExperiment decides whether experiment i is sampled and, if so,
// opens its span. The unsampled path is one increment and one compare.
func (ws *WorkerSpans) BeginExperiment() {
	if ws == nil {
		return
	}
	ws.count++
	if (ws.count-1)%ws.sample != 0 {
		return
	}
	ws.exp = ws.rec.ids.Add(1)
	ws.expStart = time.Now().UnixNano()
}

// EndExperiment closes the sampled experiment span, if open. Meta is
// the experiment index.
func (ws *WorkerSpans) EndExperiment(i int) {
	if ws == nil || ws.exp == 0 {
		return
	}
	now := time.Now().UnixNano()
	ws.rec.record(Span{
		ID: ws.exp, Parent: ws.batch, Cat: CatExperiment,
		Worker: ws.worker, Start: ws.expStart, Dur: now - ws.expStart,
		Meta: int64(i),
	})
	ws.exp = 0
}

// SubClock returns a start timestamp for a typed sub-span if the
// current experiment is sampled, else 0 (no clock read). Pair with Sub.
func (ws *WorkerSpans) SubClock() int64 {
	if ws == nil || ws.exp == 0 {
		return 0
	}
	return time.Now().UnixNano()
}

// Sub records a typed sub-span of the current sampled experiment from a
// SubClock timestamp. A zero start (unsampled) is a no-op.
func (ws *WorkerSpans) Sub(cat Category, start, meta int64) {
	if start == 0 || ws == nil || ws.exp == 0 {
		return
	}
	ws.rec.record(Span{
		ID: ws.rec.ids.Add(1), Parent: ws.exp, Cat: cat,
		Worker: ws.worker, Start: start,
		Dur: time.Now().UnixNano() - start, Meta: meta,
	})
}

// sortSpans orders by start time, then ID for determinism.
func sortSpans(s []Span) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		return s[i].ID < s[j].ID
	})
}
