package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ftb/internal/campaign"
	"ftb/internal/obs"
	"ftb/internal/outcome"
	"ftb/internal/telemetry"
)

// Coordinator tuning defaults. They favour small deployments (a handful
// of workers on one machine or one rack); all are overridable per
// campaign through Config.
const (
	// DefaultShardSize is the lease granularity in experiments: large
	// enough that a program execution dominates the HTTP+JSON round
	// trip, small enough that losing a worker forfeits little work and
	// durable merges (Config.OnShard) land steadily.
	DefaultShardSize = 2048
	// DefaultLeaseTimeout bounds one lease round trip. A worker that
	// cannot finish a shard inside it is treated as lost and the lease
	// is re-queued.
	DefaultLeaseTimeout = 2 * time.Minute
	// DefaultMaxWorkerFailures is the consecutive-failure budget after
	// which a worker is dropped from the pool.
	DefaultMaxWorkerFailures = 3
	// DefaultMaxLeaseAttempts is the total-attempt budget per shard
	// across all workers; exceeding it fails the campaign (the shard is
	// poisoning workers, not hitting transient noise).
	DefaultMaxLeaseAttempts = 8
	// DefaultBackoff is the initial retry backoff after a lease
	// failure; it doubles per consecutive failure up to
	// DefaultBackoffCap.
	DefaultBackoff    = 100 * time.Millisecond
	DefaultBackoffCap = 5 * time.Second
)

// Config describes a sharded exhaustive campaign.
type Config struct {
	// Campaign is the campaign's target and instrumentation, as the
	// in-process engine takes them. Golden is the coordinator's own
	// fault-free run, which every worker must fingerprint-match; Tol,
	// Bits, Width and Model ride in each lease request, so workers need
	// no per-campaign configuration. Context cancels the campaign
	// (promptly, within one in-flight lease per worker). Observer
	// receives coordinator-side progress events (phase "exhaustive"):
	// Done/Frontier count experiments, including the resumed ranges.
	// Collector absorbs each shard's telemetry snapshot as it arrives,
	// so live exports reflect the whole fleet mid-campaign. Spans records
	// one lease span per shard attempt, parented under SpanParent, and
	// grafts each completed lease's worker spans under its lease span;
	// SpanSample is forwarded to workers as their experiment sampling
	// stride. Logger receives lease lifecycle events (Debug) and
	// worker-loss / retry events (Warn). Factory, Workers, Batch, Sink
	// and Replay do not apply: workers run their own program instances
	// and always replay.
	Campaign campaign.Config
	// Workers is the pool of worker base URLs (e.g. "http://10.0.0.2:9001").
	// At least one is required.
	Workers []string
	// Program is the expected program name; non-empty values are
	// enforced against each worker's /v1/info.
	Program string
	// ShardSize is the lease granularity in experiments (default
	// DefaultShardSize).
	ShardSize int
	// LeaseTimeout bounds one lease round trip (default
	// DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// MaxWorkerFailures drops a worker after this many consecutive
	// failures (default DefaultMaxWorkerFailures).
	MaxWorkerFailures int
	// MaxLeaseAttempts fails the campaign when one shard has been
	// attempted this many times in total (default
	// DefaultMaxLeaseAttempts).
	MaxLeaseAttempts int
	// Backoff is the initial per-worker retry delay, doubling per
	// consecutive failure up to BackoffCap (defaults DefaultBackoff /
	// DefaultBackoffCap).
	Backoff    time.Duration
	BackoffCap time.Duration
	// Prior and Completed resume a campaign: Completed lists the
	// absolute experiment ranges whose outcomes in Prior are trusted —
	// shard leases a previous coordinator merged durably (e.g. into a
	// ground-truth store) before it was killed, anywhere in the
	// experiment space. Ranges must be sorted, non-overlapping, and
	// within [0, sites×bits) (see campaign.Resume); they are never
	// leased.
	Prior     *campaign.GroundTruth
	Completed []campaign.Range
	// OnShard, when non-nil, is invoked (serialized, under the merge
	// lock) with each completed lease's absolute experiment range and
	// classified outcomes. It is the durable-merge hook: appending every
	// shard to a store makes a killed coordinator resumable from exactly
	// the shards it had merged. An error aborts the campaign.
	OnShard func(lo, hi int, kinds []outcome.Kind) error
}

// Result is a completed (or interrupted) sharded campaign.
type Result struct {
	// GT is the merged ground truth. On error it is partial: only
	// experiments below Frontier are valid.
	GT *campaign.GroundTruth
	// Frontier is the absolute contiguous-completion watermark in
	// experiments (sites·bits completed = Frontier/Bits sites).
	Frontier int
	// Telemetry is the bucket-wise merge of every shard's snapshot,
	// workers namespaced per shard.
	Telemetry telemetry.Snapshot
	// Shards counts leases executed successfully this run (excluding
	// the resumed ranges); Retries counts failed lease attempts;
	// WorkersLost counts workers dropped from the pool.
	Shards      int
	Retries     int
	WorkersLost int
}

func (c *Config) normalized() (Config, error) {
	out := *c
	if len(out.Workers) == 0 {
		return out, errors.New("cluster: at least one worker URL is required")
	}
	target, err := out.Campaign.NormalizedTarget()
	if err != nil {
		return out, fmt.Errorf("cluster: %w", err)
	}
	out.Campaign = target
	if out.ShardSize <= 0 {
		out.ShardSize = DefaultShardSize
	}
	if out.LeaseTimeout <= 0 {
		out.LeaseTimeout = DefaultLeaseTimeout
	}
	if out.MaxWorkerFailures <= 0 {
		out.MaxWorkerFailures = DefaultMaxWorkerFailures
	}
	if out.MaxLeaseAttempts <= 0 {
		out.MaxLeaseAttempts = DefaultMaxLeaseAttempts
	}
	if out.Backoff <= 0 {
		out.Backoff = DefaultBackoff
	}
	if out.BackoffCap <= 0 {
		out.BackoffCap = DefaultBackoffCap
	}
	return out, nil
}

// lease is one shard of the experiment space, tracked through requeues.
type lease struct {
	lo, hi   int
	attempts int
}

// coordinator is the per-campaign state shared by the worker client
// goroutines.
type coordinator struct {
	cfg   Config
	gt    *campaign.GroundTruth
	total int // absolute experiment count (sites × bits)

	queue chan lease
	done  chan struct{}
	once  sync.Once // closes done

	mu        sync.Mutex
	frontier  campaign.Frontier
	doneCount int // experiments merged, resumed ranges included
	counts    outcome.Counts
	began     time.Time
	telemetry telemetry.Snapshot
	shards    int
	retries   int
	lost      int

	errOnce  sync.Once
	firstErr error
	cancel   context.CancelFunc
}

// fail records the campaign's first error and cancels the rest.
func (co *coordinator) fail(err error) {
	co.errOnce.Do(func() {
		co.firstErr = err
		co.cancel()
	})
}

// Exhaustive runs the complete campaign — every one of cfg.Campaign.Bits flips at
// every golden site — sharded across cfg.Workers. The merged ground
// truth is byte-identical to campaign.Exhaustive with the same fault
// model: scheduling, worker count, retries, and shard return order are
// all invisible in the result.
//
// On error the returned Result still carries the partial ground truth:
// the ranges OnShard reported are valid in it.
func Exhaustive(cfg Config) (*Result, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	sites := cfg.Campaign.Golden.Sites()
	total := sites * cfg.Campaign.Bits
	gt, gaps, err := campaign.Resume(cfg.Prior, cfg.Completed, sites, cfg.Campaign.Bits, cfg.Campaign.Width)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	ctx, cancel := context.WithCancel(cfg.Campaign.Context)
	defer cancel()
	co := &coordinator{
		cfg:    cfg,
		gt:     gt,
		total:  total,
		done:   make(chan struct{}),
		began:  time.Now(),
		cancel: cancel,
	}

	// Seed the merge state with the already-completed ranges: they count
	// as merged work, advance the frontier, and contribute their outcome
	// tallies, exactly as if their leases had just returned.
	for _, r := range cfg.Completed {
		co.doneCount += r.Hi - r.Lo
		co.frontier.RangeDone(r.Lo, r.Hi)
		for _, k := range gt.Kinds[r.Lo:r.Hi] {
			co.counts.Add(k)
		}
	}

	// Leases cover only the gaps between completed ranges. Capacity
	// covers every lease, so re-queueing can never block.
	var leases []lease
	for _, g := range gaps {
		for s := g.Lo; s < g.Hi; s += cfg.ShardSize {
			leases = append(leases, lease{lo: s, hi: min(s+cfg.ShardSize, g.Hi)})
		}
	}
	co.queue = make(chan lease, max(len(leases), 1))
	for _, l := range leases {
		co.queue <- l
	}
	if co.doneCount == total {
		co.once.Do(func() { close(co.done) })
	}

	cfg.Campaign.Logger.Debug("cluster campaign start",
		"workers", len(cfg.Workers), "experiments", total-co.doneCount, "shards", len(leases),
		"shard_size", cfg.ShardSize, "resumed_ranges", len(cfg.Completed),
		"lease_timeout", cfg.LeaseTimeout)

	// Validate every worker's identity up front: a mismatched worker is
	// a deployment error that would silently corrupt the merged oracle,
	// so it fails the campaign rather than being quietly skipped.
	wantCRC := GoldenCRC(cfg.Campaign.Golden)
	clients := make([]*workerClient, len(cfg.Workers))
	for i, url := range cfg.Workers {
		wc := newWorkerClient(url, cfg)
		if err := wc.checkInfo(ctx, wantCRC, sites); err != nil {
			return nil, err
		}
		clients[i] = wc
	}

	var wg sync.WaitGroup
	for _, wc := range clients {
		wg.Add(1)
		go func(wc *workerClient) {
			defer wg.Done()
			co.runWorker(ctx, wc, wantCRC)
		}(wc)
	}
	wg.Wait()

	res := &Result{
		GT:          gt,
		Frontier:    co.frontier.Current(),
		Telemetry:   co.telemetry,
		Shards:      co.shards,
		Retries:     co.retries,
		WorkersLost: co.lost,
	}
	err = co.firstErr
	if err == nil {
		err = cfg.Campaign.Context.Err()
	}
	if err == nil && co.doneCount < total {
		err = fmt.Errorf("cluster: all workers lost with %d/%d experiments incomplete (frontier %d)",
			total-co.doneCount, total, res.Frontier)
	}
	cfg.Campaign.Logger.Debug("cluster campaign stop",
		"frontier", res.Frontier, "experiments", total, "shards", co.shards,
		"retries", co.retries, "workers_lost", co.lost,
		"elapsed", time.Since(co.began), "err", err)
	if err != nil {
		return res, err
	}
	if err := gt.Validate(cfg.Campaign.Golden); err != nil {
		return res, fmt.Errorf("cluster: merged ground truth failed validation: %w", err)
	}
	return res, nil
}

// runWorker is one worker's lease loop: claim a shard, execute it
// remotely, merge the result; on failure re-queue the shard, back off
// exponentially, and drop the worker after MaxWorkerFailures consecutive
// failures.
func (co *coordinator) runWorker(ctx context.Context, wc *workerClient, wantCRC uint32) {
	cfg := co.cfg
	failures := 0
	seq := 0
	for {
		var l lease
		select {
		case <-ctx.Done():
			return
		case <-co.done:
			return
		case l = <-co.queue:
		}
		l.attempts++
		seq++
		leaseID := fmt.Sprintf("%s#%d", wc.url, seq)
		sampleEvery := 0
		if cfg.Campaign.Spans != nil {
			sampleEvery = cfg.Campaign.SpanSample
			if sampleEvery <= 0 {
				sampleEvery = obs.DefaultSampleEvery
			}
		}
		// The lease span covers the attempt's full round trip including
		// the merge; failed attempts are recorded too (meta 0), so retry
		// cost shows up in the timeline instead of vanishing.
		ls := cfg.Campaign.Spans.Start(obs.CatLease, leaseID, cfg.Campaign.SpanParent, -1)
		fault := ""
		if !cfg.Campaign.Model.IsDefault() {
			fault = cfg.Campaign.Model.String()
		}
		resp, err := wc.run(ctx, runRequest{
			Lease:      leaseID,
			Lo:         l.lo,
			Hi:         l.hi,
			Bits:       cfg.Campaign.Bits,
			Width:      cfg.Campaign.Width,
			Tol:        cfg.Campaign.Tol,
			GoldenCRC:  wantCRC,
			Fault:      fault,
			SpanSample: sampleEvery,
		})
		if err == nil {
			err = co.validateResponse(l, resp)
		}
		if err != nil {
			ls.End(0)
			if ctx.Err() != nil {
				// Cancellation, not worker failure: put the lease back
				// for a future resume and stop quietly.
				co.requeue(l)
				return
			}
			failures++
			co.mu.Lock()
			co.retries++
			co.mu.Unlock()
			cfg.Campaign.Logger.Warn("lease failed",
				"worker", wc.url, "lo", l.lo, "hi", l.hi,
				"attempt", l.attempts, "consecutive_failures", failures, "err", err)
			if l.attempts >= cfg.MaxLeaseAttempts {
				co.fail(fmt.Errorf("cluster: shard [%d, %d) failed %d attempts (last worker %s): %w",
					l.lo, l.hi, l.attempts, wc.url, err))
				return
			}
			co.requeue(l)
			if failures >= cfg.MaxWorkerFailures {
				co.mu.Lock()
				co.lost++
				co.mu.Unlock()
				cfg.Campaign.Logger.Warn("worker lost", "worker", wc.url, "consecutive_failures", failures)
				return
			}
			if !sleepCtx(ctx, backoffDelay(cfg.Backoff, cfg.BackoffCap, failures)) {
				return
			}
			continue
		}
		failures = 0
		err = co.merge(l, resp, wc.url, ls.ID())
		ls.End(int64(l.hi - l.lo))
		if err != nil {
			co.fail(err)
			return
		}
	}
}

// requeue returns a lease to the queue (never blocks: capacity covers
// every lease).
func (co *coordinator) requeue(l lease) { co.queue <- l }

// backoffDelay is the exponential retry delay after the k-th consecutive
// failure (k ≥ 1).
func backoffDelay(base, cap time.Duration, k int) time.Duration {
	d := base
	for i := 1; i < k; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	return min(d, cap)
}

// sleepCtx sleeps for d, returning false if ctx was cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// validateResponse applies the strict shard checks the merge depends on.
func (co *coordinator) validateResponse(l lease, resp *runResponse) error {
	if resp.Lo != l.lo || resp.Hi != l.hi {
		return fmt.Errorf("response range [%d, %d) does not echo lease [%d, %d)", resp.Lo, resp.Hi, l.lo, l.hi)
	}
	if len(resp.Kinds) != l.hi-l.lo {
		return fmt.Errorf("response carries %d kinds for lease of %d", len(resp.Kinds), l.hi-l.lo)
	}
	for i, k := range resp.Kinds {
		if int(k) >= outcome.NumKinds {
			return fmt.Errorf("response kind %d at experiment %d is invalid", k, l.lo+i)
		}
	}
	return nil
}

// merge folds one completed shard into the ground truth, the frontier,
// the observer stream, and the merged telemetry. Serialized under mu, so
// observer callbacks and the shard hook see monotonic state exactly like
// the in-process engine's.
func (co *coordinator) merge(l lease, resp *runResponse, workerURL string, leaseSpan uint64) error {
	var c outcome.Counts
	for i, k := range resp.Kinds {
		kind := outcome.Kind(k)
		co.gt.Kinds[l.lo+i] = kind
		c.Add(kind)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.shards++
	if co.cfg.Campaign.Spans != nil && len(resp.Spans) > 0 {
		// Stitch the shard's worker-local spans into the campaign
		// timeline: fresh IDs (worker processes allocate independently),
		// roots re-parented under this lease's span, shard stamped with
		// the worker URL.
		co.cfg.Campaign.Spans.Graft(resp.Spans, leaseSpan, workerURL)
	}
	co.doneCount += l.hi - l.lo
	co.counts.Merge(c)
	co.frontier.RangeDone(l.lo, l.hi)
	if co.doneCount == co.total {
		co.once.Do(func() { close(co.done) })
	}
	if resp.Telemetry != nil {
		if err := co.telemetry.Merge(*resp.Telemetry, workerURL); err != nil {
			co.cfg.Campaign.Logger.Warn("merge shard telemetry", "worker", workerURL, "err", err)
		} else if co.cfg.Campaign.Collector != nil {
			if err := co.cfg.Campaign.Collector.Absorb(*resp.Telemetry); err != nil {
				co.cfg.Campaign.Logger.Warn("absorb shard telemetry", "worker", workerURL, "err", err)
			}
		}
	}
	var hookErr error
	if co.cfg.OnShard != nil {
		hookErr = co.cfg.OnShard(l.lo, l.hi, co.gt.Kinds[l.lo:l.hi])
	}
	if co.cfg.Campaign.Observer != nil {
		e := campaign.Event{
			Phase:    "exhaustive",
			Done:     co.doneCount,
			Total:    co.total,
			Frontier: co.frontier.Current(),
			Counts:   co.counts,
			Elapsed:  time.Since(co.began),
		}
		if secs := e.Elapsed.Seconds(); secs > 0 {
			e.PerSec = float64(co.doneCount) / secs
		}
		co.cfg.Campaign.Observer.OnProgress(e)
	}
	return hookErr
}

// workerClient is the coordinator's HTTP client for one worker.
type workerClient struct {
	url    string
	cfg    Config
	client *http.Client
}

func newWorkerClient(url string, cfg Config) *workerClient {
	// No client-level timeout: each request carries its own lease
	// deadline, and info checks use a short one.
	return &workerClient{url: url, cfg: cfg, client: &http.Client{}}
}

// checkInfo fetches and validates the worker's identity, with a couple
// of quick retries to ride out a worker that is still binding.
func (wc *workerClient) checkInfo(ctx context.Context, wantCRC uint32, sites int) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, 500*time.Millisecond) {
			return ctx.Err()
		}
		info, err := wc.fetchInfo(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		if wc.cfg.Program != "" && info.Program != wc.cfg.Program {
			return fmt.Errorf("cluster: worker %s serves program %q, campaign runs %q", wc.url, info.Program, wc.cfg.Program)
		}
		if info.Sites != sites {
			return fmt.Errorf("cluster: worker %s has %d sites, campaign %d", wc.url, info.Sites, sites)
		}
		if info.Width != wc.cfg.Campaign.Width {
			return fmt.Errorf("cluster: worker %s has width %d, campaign %d", wc.url, info.Width, wc.cfg.Campaign.Width)
		}
		if info.GoldenCRC != wantCRC {
			return fmt.Errorf("cluster: worker %s golden fingerprint %#x does not match campaign %#x", wc.url, info.GoldenCRC, wantCRC)
		}
		return nil
	}
	return fmt.Errorf("cluster: worker %s unreachable: %w", wc.url, lastErr)
}

func (wc *workerClient) fetchInfo(ctx context.Context) (*Info, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wc.url+pathInfo, nil)
	if err != nil {
		return nil, err
	}
	resp, err := wc.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("info: status %s", resp.Status)
	}
	var info Info
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info); err != nil {
		return nil, fmt.Errorf("info: decode: %w", err)
	}
	return &info, nil
}

// run executes one lease with its per-lease timeout.
func (wc *workerClient) run(ctx context.Context, rr runRequest) (*runResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, wc.cfg.LeaseTimeout)
	defer cancel()
	body, err := json.Marshal(rr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wc.url+pathRun, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := wc.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er)
		if er.Error != "" {
			return nil, fmt.Errorf("run: status %s: %s", resp.Status, er.Error)
		}
		return nil, fmt.Errorf("run: status %s", resp.Status)
	}
	var rres runResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRunResponseBytes)).Decode(&rres); err != nil {
		return nil, fmt.Errorf("run: decode: %w", err)
	}
	return &rres, nil
}

// drainClose drains and closes a response body so the HTTP client can
// reuse the connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}
