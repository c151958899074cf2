package campaign

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"ftb/internal/obs"
	"ftb/internal/outcome"
	"ftb/internal/telemetry"
	"ftb/internal/trace"
)

// Event is a progress snapshot of a running campaign. Events are emitted
// after every completed batch, sequentially (never two at once), with
// monotonically non-decreasing Done and Frontier.
type Event struct {
	// Phase names the campaign stage emitting the event: "classify"
	// (RunPairs, which boundary inference runs once per round),
	// "exhaustive", or the phase a caller of RunPairsInPhase names.
	Phase string
	// Done counts completed experiments; Total is the campaign size.
	Done, Total int
	// Frontier is the contiguous-completion watermark: every experiment
	// with index < Frontier has finished. Done can exceed Frontier when
	// later batches complete out of order.
	Frontier int
	// Counts tallies the outcomes classified so far.
	Counts outcome.Counts
	// Elapsed is the wall-clock time since the campaign started.
	Elapsed time.Duration
	// PerSec is the observed throughput in experiments per second.
	PerSec float64
}

// Observer receives progress events from a running campaign. Callbacks
// are invoked synchronously from worker goroutines while an internal lock
// is held, so they must be cheap and non-blocking: record the event and
// return. Rendering or I/O should be throttled or deferred by the
// observer itself.
type Observer interface {
	OnProgress(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnProgress implements Observer.
func (f ObserverFunc) OnProgress(e Event) { f(e) }

// progress is the engine's shared accounting: completion counts, the
// contiguous frontier, outcome tallies, and observer/range-hook
// notification. All mutation happens under mu, which also serializes
// observer callbacks and range hooks.
type progress struct {
	mu       sync.Mutex
	phase    string
	total    int
	done     int
	frontier Frontier
	counts   outcome.Counts
	start    time.Time
	observer Observer
	onRange  func(lo, hi int) error
}

// rangeDone records the completion of items [lo, hi), advances the
// frontier when possible, fires the range hook, and emits a progress
// event. A hook error aborts the campaign.
func (p *progress) rangeDone(lo, hi int, c outcome.Counts) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done += hi - lo
	p.counts.Merge(c)
	p.frontier.RangeDone(lo, hi)
	var hookErr error
	if p.onRange != nil {
		hookErr = p.onRange(lo, hi)
	}
	if p.observer != nil {
		e := Event{
			Phase:    p.phase,
			Done:     p.done,
			Total:    p.total,
			Frontier: p.frontier.Current(),
			Counts:   p.counts,
			Elapsed:  time.Since(p.start),
		}
		if secs := e.Elapsed.Seconds(); secs > 0 {
			e.PerSec = float64(p.done) / secs
		}
		p.observer.OnProgress(e)
	}
	return hookErr
}

// runEngine executes n independent experiments on cfg.Workers goroutines
// and blocks until every started worker has exited (it never leaks
// goroutines, cancelled or not).
//
// setup is called once per started worker to build its private state
// (program instance, trace context, sinks); it receives the campaign's
// telemetry recorder (nil without a collector) so worker state that
// feeds the hot-path counters — e.g. the replay cache's snapshot
// hit/miss accounting — can hold it directly. item executes experiment i
// against that state and returns the outcome kind for progress
// accounting. Results must be written by index into caller-owned storage,
// which keeps campaign output in input order — and therefore byte-
// identical — regardless of worker count or batch size.
//
// onRange (optional) is called, serialized, after every completed batch
// [lo, hi), in completion order; an error from it, like an error from
// item, cancels the remaining work and is returned as the campaign's
// first error. Cancellation of cfg.Context stops workers within one item
// and returns the context's error, unless every item had already
// completed. Every batch reported to onRange is complete, even on error.
func runEngine[S any](cfg Config, phase string, n int,
	setup func(worker int, rec *telemetry.CampaignRecorder, sp *obs.WorkerSpans) S,
	item func(s S, i int) (outcome.Kind, error),
	onRange func(lo, hi int) error,
) error {
	if n == 0 {
		return cfg.Context.Err()
	}
	batch := cfg.Batch
	nBatches := (n + batch - 1) / batch
	workers := cfg.Workers
	if workers > nBatches {
		workers = nBatches
	}

	ctx, cancel := context.WithCancel(cfg.Context)
	defer cancel()

	// The event log is lifecycle-only: one record when the campaign
	// starts and one when it stops, never from the per-experiment hot
	// path. Entry points normalize Logger, but runEngine tolerates a nil
	// one so the zero Config stays usable in tests.
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	// A traced campaign streams every run's deltas to run sinks.
	logger.Debug("campaign start",
		"phase", phase, "experiments", n, "workers", workers,
		"batch", batch, "traced", cfg.Sink != nil)

	// The telemetry recorder rides alongside the Observer path: the
	// Observer streams coarse per-batch progress events, the recorder
	// accumulates per-run latency, outcome, queue-wait, and per-worker
	// counters. rec == nil (no collector) keeps the hot path free of
	// clock reads.
	var rec *telemetry.CampaignRecorder
	if cfg.Collector != nil {
		rec = cfg.Collector.StartCampaign(phase, n, workers)
		defer rec.End()
	}

	// The span layer mirrors the collector's discipline: nothing on the
	// unsampled hot path, chained timestamps elsewhere. The phase span is
	// opened before the pool spawns so worker spans can parent to it, and
	// closed after every worker has exited (span export requires
	// quiescence anyway).
	phaseSpan := cfg.Spans.Start(obs.CatPhase, phase, cfg.SpanParent, -1)
	defer phaseSpan.End(int64(n))

	prog := &progress{
		phase:    phase,
		total:    n,
		start:    time.Now(),
		observer: cfg.Observer,
		onRange:  onRange,
	}

	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// next is the shared queue head, in batches.
	var next atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if rec != nil {
				rec.WorkerStart()
				defer rec.WorkerStop()
			}
			// ws chains queue-wait and batch spans so they tile this
			// worker's lifetime; Finish closes the trailing wait (and an
			// open batch on a cancelled exit). Nil without Config.Spans.
			ws := cfg.Spans.Worker(phaseSpan.ID(), w, obs.EffectiveSample(n, cfg.SpanSample))
			defer ws.Finish()
			s := setup(w, rec, ws)
			// Workers claim batches off the shared queue head: injected
			// runs vary wildly in cost (a crash aborts at the faulting
			// store), so claims keep every worker busy until the queue
			// drains. The batch size bounds cancellation latency and
			// progress granularity.
			claim := func() (lo, hi int, ok bool) {
				b := int(next.Add(1)) - 1
				if b >= nBatches {
					return 0, 0, false
				}
				lo = b * batch
				return lo, min(lo+batch, n), true
			}
			// clock chains the instrumentation timestamps: each
			// measured interval ends where the next begins, so a batch
			// costs one time.Now() per experiment plus one per
			// claim/merge — half the clock reads of separate
			// start/stop pairs, which matters when an experiment runs
			// in well under a microsecond.
			var clock time.Time
			if rec != nil {
				clock = time.Now()
			}
			for {
				if ctx.Err() != nil {
					return
				}
				lo, hi, ok := claim()
				if rec != nil {
					// Charge the claim (queue-head contention) now;
					// the progress merge below joins the same batch's
					// wait once it has happened.
					now := time.Now()
					rec.Wait(w, now.Sub(clock))
					clock = now
				}
				if !ok {
					return
				}
				ws.StartBatch()
				var c outcome.Counts
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					ws.BeginExperiment()
					k, err := item(s, i)
					ws.EndExperiment(i)
					if err != nil {
						if errors.Is(err, trace.ErrTraceMismatch) {
							if rec != nil {
								rec.Mismatch()
							}
							logger.Warn("trace mismatch",
								"phase", phase, "experiment", i, "worker", w, "err", err)
						}
						fail(err)
						return
					}
					if rec != nil {
						now := time.Now()
						rec.Run(w, k, now.Sub(clock))
						clock = now
					}
					c.Add(k)
				}
				// Close the batch before the progress merge: merge time is
				// queue overhead and belongs to the next wait span, matching
				// the collector's Wait attribution.
				ws.EndBatch(lo, hi)
				err := prog.rangeDone(lo, hi, c)
				if rec != nil {
					now := time.Now()
					rec.Wait(w, now.Sub(clock))
					clock = now
				}
				if err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Every worker has exited, so prog needs no lock from here on.
	err := firstErr
	if err == nil && prog.done < n {
		// A cancellation that lands after the last item completed (an
		// Observer cancelling on the final event) discards nothing.
		err = cfg.Context.Err()
	}
	logger.Debug("campaign stop",
		"phase", phase, "experiments", n, "done", prog.done,
		"elapsed", time.Since(prog.start), "err", err)
	return err
}
