// Package telemetry is the campaign observability layer: a lock-cheap
// metrics collector the execution engine feeds directly. Where the
// Observer path (campaign.Event) streams coarse per-batch progress for
// live rendering, the Collector accumulates the accounting needed to
// answer "where does campaign time go, what is the outcome mix per
// phase, and how well are the workers utilized": per-run latency
// histograms, outcome counters (masked / SDC / crash / trace-mismatch),
// batch queue wait, per-worker experiment counts, and wall-clock per
// campaign. Everything aggregates into a Snapshot exportable as JSON or
// Prometheus-style text exposition (snapshot.go).
//
// The hot path — one Run call per fault-injection experiment — is five
// atomic adds striped by worker onto cacheline-padded shards (no locks,
// no allocation, no cachelines shared between workers), so a collector
// attached to a campaign costs tens of nanoseconds per program
// execution. Global totals are never maintained on the write path;
// snapshots sum the shards. The collector mutex guards only
// per-campaign and per-section bookkeeping, entered once per campaign,
// not per experiment.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftb/internal/outcome"
)

// maxWorkers bounds the per-worker counter table. It mirrors
// campaign.MaxWorkers (this package cannot import campaign — the
// dependency points the other way); workers at or beyond the bound fold
// into the last slot rather than being dropped.
const maxWorkers = 1024

// stripes is the sharding degree of the hot-path counters. Every
// per-experiment counter is split into stripes cacheline-padded shards
// indexed by worker, so concurrent workers increment disjoint cachelines
// instead of bouncing one shared line between cores — on sub-microsecond
// experiments, that bouncing (not the arithmetic) is the entire
// collector cost. Readers sum the shards. 16 covers typical worker
// counts; beyond 16 workers stripes are shared round-robin, which only
// reintroduces contention gradually.
const (
	stripes    = 16
	stripeMask = stripes - 1
)

// paddedCounter is an atomic counter alone on its cacheline.
type paddedCounter struct {
	v atomic.Int64
	_ [56]byte
}

// add increments the counter by n.
func (c *paddedCounter) add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *paddedCounter) Value() int64 { return c.v.Load() }

// stripedCounter is a monotonically increasing counter sharded across
// cachelines. Writers pick a stripe (worker index); Value sums.
type stripedCounter struct {
	shards [stripes]paddedCounter
}

// add increments the counter by n on the given stripe.
func (c *stripedCounter) add(stripe int, n int64) {
	c.shards[stripe&stripeMask].v.Add(n)
}

// Value returns the current total across stripes.
func (c *stripedCounter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. campaigns in flight).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets are the fixed histogram bounds (seconds) used for
// run latency and batch queue wait: exponential from 1µs to 10s, which
// spans everything from a crash that aborts at the faulting store to a
// paper-scale masked run. Fixed buckets keep Observe allocation-free and
// mergeable.
var DefaultLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Buckets are set at
// construction; an observation is a binary search plus three atomic adds
// on a per-stripe shard, safe for concurrent use and contention-free
// when callers supply distinct stripes (the engine passes its worker
// index). Readers merge the shards.
type Histogram struct {
	bounds []float64   // ascending upper bounds, in seconds
	shards []histShard // stripes shards
}

// histShard is one stripe of a histogram. The tail padding keeps
// adjacent shards' sum fields off a shared cacheline; each shard's
// counts are a separate allocation. There is no observation counter —
// the count is the sum of the buckets, computed at read time, which
// keeps the write path at two atomic adds.
type histShard struct {
	counts []atomic.Int64 // len(bounds)+1; the last is the overflow bucket
	sum    atomic.Int64   // total observed time, nanoseconds
	_      [96]byte
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (seconds). With no bounds it uses DefaultLatencyBuckets.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{
		bounds: bounds,
		shards: make([]histShard, stripes),
	}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Int64, len(bounds)+1)
	}
	return h
}

// observe records one duration on the given stripe.
func (h *Histogram) observe(stripe int, d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s) // first bound >= s
	sh := &h.shards[stripe&stripeMask]
	sh.counts[i].Add(1)
	sh.sum.Add(d.Nanoseconds())
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.observe(0, d) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.shards {
		for j := range h.shards[i].counts {
			total += h.shards[i].counts[j].Load()
		}
	}
	return total
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration {
	var total int64
	for i := range h.shards {
		total += h.shards[i].sum.Load()
	}
	return time.Duration(total)
}

// phaseStats aggregates one campaign phase ("exhaustive", "classify", or
// a phase a caller names): the outcome mix and cost of that stage of the
// pipeline.
// experiments and outcomes sit on the per-run hot path, so they stripe.
type phaseStats struct {
	campaigns   Counter
	experiments stripedCounter
	outcomes    [outcome.NumKinds]stripedCounter
	traced      stripedCounter
	mismatches  Counter
	wallNanos   Counter
	// Checkpointed-replay accounting (campaigns run with Replay enabled).
	// Every prepared experiment is charged to exactly one restore tier:
	// a second-tier per-site-snapshot hit, a rebuild seeded from a pooled
	// golden boundary snapshot, or a golden-prefix rebuild (miss).
	// snapTier1 (boundary-snapshot hits) has no producer since the
	// campaign cache always holds its head at the site; it stays so
	// absorbed snapshots and the metrics schema keep the bucket. deltaRestores counts head restores
	// served by the kernel's dirty-interval delta path; convergeExits
	// counts runs cut short by a proven reconvergence, with the suffix
	// stores they skipped in convergeStores. storesSkipped totals the
	// prefix stores replay avoided re-executing. All of these ride the
	// per-experiment hot path, so they stripe like the outcome counters.
	snapTier1      stripedCounter
	snapTier2      stripedCounter
	snapPool       stripedCounter
	snapMisses     stripedCounter
	storesSkipped  stripedCounter
	deltaRestores  stripedCounter
	convergeExits  stripedCounter
	convergeStores stripedCounter
}

// storeStats aggregates ground-truth-store activity (internal/store):
// how much a process appended, how much it read back, and what
// compaction reclaimed. Store operations are batch-granular — one append
// per checkpoint batch or shard lease, one scan per materialization —
// so plain atomic counters suffice; nothing here rides the
// per-experiment hot path.
type storeStats struct {
	appends           Counter
	recordsAppended   Counter
	lookups           Counter
	scans             Counter
	recordsRead       Counter
	compactions       Counter
	segmentsCompacted Counter
	bytesReclaimed    Counter
}

// sectionStats aggregates one named harness section (e.g. "table1"):
// wall-clock plus the campaign and experiment counts attributed to it.
type sectionStats struct {
	spans       Counter
	campaigns   Counter
	experiments Counter
	wallNanos   Counter
}

// Collector accumulates campaign metrics. The zero value is not usable;
// construct with New. A single Collector may serve many campaigns, from
// many goroutines, concurrently.
// Global experiment, outcome, and mismatch totals are not stored: the
// experiment total is the sum of the per-worker counters and the
// outcome/mismatch totals are the sums over phases, all computed at
// read time. Every counter the hot path touches is written exactly once
// per experiment.
type Collector struct {
	campaigns Counter
	wallNanos Counter // summed campaign wall-clock

	runLatency *Histogram
	queueWait  *Histogram

	perWorker [maxWorkers]paddedCounter

	activeCampaigns Gauge
	activeWorkers   Gauge

	store storeStats

	mu           sync.Mutex
	phases       map[string]*phaseStats
	sections     map[string]*sectionStats
	sectionOrder []string
}

// New builds an empty collector with the default latency buckets.
func New() *Collector {
	return &Collector{
		runLatency: NewHistogram(),
		queueWait:  NewHistogram(),
		phases:     make(map[string]*phaseStats),
		sections:   make(map[string]*sectionStats),
	}
}

// experimentsTotal sums the per-worker counters — the collector-wide
// experiment count. Every Run lands in exactly one per-worker slot.
func (c *Collector) experimentsTotal() int64 {
	var total int64
	for i := range c.perWorker {
		total += c.perWorker[i].Value()
	}
	return total
}

// phase returns (creating if needed) the named phase's aggregate.
func (c *Collector) phase(name string) *phaseStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph, ok := c.phases[name]
	if !ok {
		ph = &phaseStats{}
		c.phases[name] = ph
	}
	return ph
}

// StartCampaign opens a per-campaign recorder. The engine calls it once
// per campaign and feeds the recorder from its workers; End closes the
// campaign and charges its wall-clock.
func (c *Collector) StartCampaign(phase string, total, workers int) *CampaignRecorder {
	ph := c.phase(phase)
	c.campaigns.Inc()
	ph.campaigns.Inc()
	c.activeCampaigns.Add(1)
	return &CampaignRecorder{c: c, ph: ph, start: time.Now()}
}

// CampaignRecorder scopes one campaign's measurements to its phase. All
// methods are safe for concurrent use by the campaign's workers; only
// End must be called exactly once, after the workers have exited.
type CampaignRecorder struct {
	c     *Collector
	ph    *phaseStats
	start time.Time
	ended atomic.Bool
}

// WorkerStart marks one engine worker as running.
func (r *CampaignRecorder) WorkerStart() { r.c.activeWorkers.Add(1) }

// WorkerStop marks one engine worker as exited.
func (r *CampaignRecorder) WorkerStop() { r.c.activeWorkers.Add(-1) }

// Run records one completed experiment: its classified outcome, the
// worker that executed it, and its latency. This is the hot path —
// five atomic adds on worker-striped cachelines plus the histogram
// bucket search, nothing shared between concurrent workers.
func (r *CampaignRecorder) Run(worker int, kind outcome.Kind, d time.Duration) {
	c := r.c
	stripe := worker & stripeMask
	c.runLatency.observe(stripe, d)
	w := worker
	if w < 0 {
		w = 0
	} else if w >= maxWorkers {
		w = maxWorkers - 1
	}
	c.perWorker[w].add(1)
	r.ph.experiments.add(stripe, 1)
	if int(kind) < outcome.NumKinds {
		r.ph.outcomes[kind].add(stripe, 1)
	}
}

// Traced records that the given worker's last completed experiment also
// recorded a propagation trajectory (its run sink reports
// campaign.TrajectoryRecorder). Like Run, it is a single striped atomic
// add.
func (r *CampaignRecorder) Traced(worker int) {
	r.ph.traced.add(worker&stripeMask, 1)
}

// Wait records scheduling overhead — time the given worker spent
// claiming work off the batch queue or merging progress, rather than
// executing experiments. The engine reports it twice per batch (claim
// and merge).
func (r *CampaignRecorder) Wait(worker int, d time.Duration) {
	r.c.queueWait.observe(worker, d)
}

// Mismatch records a trace-mismatch abort (a factory that built a
// different, or non-data-oblivious, program).
func (r *CampaignRecorder) Mismatch() { r.ph.mismatches.Inc() }

// RestoreTier2 records that the given worker served an experiment's
// prefix from its held per-site snapshot (second-tier hit).
func (r *CampaignRecorder) RestoreTier2(worker int) {
	r.ph.snapTier2.add(worker&stripeMask, 1)
}

// RestorePool records that the given worker rebuilt its head snapshot
// seeded from a pooled golden boundary snapshot instead of re-running
// the golden prefix from the program entry.
func (r *CampaignRecorder) RestorePool(worker int) {
	r.ph.snapPool.add(worker&stripeMask, 1)
}

// RestoreMiss records that the given worker had to (re)build its kernel
// snapshot by running or extending the golden prefix before injecting.
func (r *CampaignRecorder) RestoreMiss(worker int) {
	r.ph.snapMisses.add(worker&stripeMask, 1)
}

// DeltaRestore records that a head-snapshot restore went through the
// kernel's dirty-interval delta path instead of a full state copy.
func (r *CampaignRecorder) DeltaRestore(worker int) {
	r.ph.deltaRestores.add(worker&stripeMask, 1)
}

// Converge records one run cut short by a proven reconvergence onto the
// golden trace, skipping the given number of suffix stores.
func (r *CampaignRecorder) Converge(worker int, skipped int64) {
	stripe := worker & stripeMask
	r.ph.convergeExits.add(stripe, 1)
	if skipped > 0 {
		r.ph.convergeStores.add(stripe, skipped)
	}
}

// StoresSkipped records how many prefix stores one experiment avoided
// re-executing by resuming from a snapshot instead of running from the
// program entry.
func (r *CampaignRecorder) StoresSkipped(worker int, n int64) {
	if n > 0 {
		r.ph.storesSkipped.add(worker&stripeMask, n)
	}
}

// End closes the campaign, charging its wall-clock to the collector and
// the phase. Extra calls are no-ops, so it is defer-safe.
func (r *CampaignRecorder) End() {
	if r.ended.Swap(true) {
		return
	}
	wall := time.Since(r.start).Nanoseconds()
	r.c.wallNanos.Add(wall)
	r.ph.wallNanos.Add(wall)
	r.c.activeCampaigns.Add(-1)
}

// StoreAppend records one durable outcome-batch append of the given
// record count into the ground-truth store.
func (c *Collector) StoreAppend(records int) {
	c.store.appends.Inc()
	c.store.recordsAppended.Add(int64(records))
}

// StoreLookup records one point lookup that read recordsRead records.
func (c *Collector) StoreLookup(recordsRead int64) {
	c.store.lookups.Inc()
	c.store.recordsRead.Add(recordsRead)
}

// StoreScan records one range scan (or materialization) that read
// recordsRead records.
func (c *Collector) StoreScan(recordsRead int64) {
	c.store.scans.Inc()
	c.store.recordsRead.Add(recordsRead)
}

// StoreCompaction records one compaction that folded segments live
// segments away and reclaimed bytesReclaimed bytes.
func (c *Collector) StoreCompaction(segments int, bytesReclaimed int64) {
	c.store.compactions.Inc()
	c.store.segmentsCompacted.Add(int64(segments))
	if bytesReclaimed > 0 {
		c.store.bytesReclaimed.Add(bytesReclaimed)
	}
}

// StartSection opens a named wall-clock span (e.g. one experiment table
// of the harness) and returns the function that closes it. Campaign and
// experiment counts recorded between the two calls are attributed to the
// section, so a snapshot can answer "where did the harness time go".
// Sections with the same name merge; nested or overlapping sections
// double-charge the shared work, so keep them disjoint.
func (c *Collector) StartSection(name string) func() {
	c.mu.Lock()
	sec, ok := c.sections[name]
	if !ok {
		sec = &sectionStats{}
		c.sections[name] = sec
		c.sectionOrder = append(c.sectionOrder, name)
	}
	c.mu.Unlock()
	start := time.Now()
	campaigns0 := c.campaigns.Value()
	experiments0 := c.experimentsTotal()
	var once sync.Once
	return func() {
		once.Do(func() {
			sec.spans.Inc()
			sec.campaigns.Add(c.campaigns.Value() - campaigns0)
			sec.experiments.Add(c.experimentsTotal() - experiments0)
			sec.wallNanos.Add(time.Since(start).Nanoseconds())
		})
	}
}
