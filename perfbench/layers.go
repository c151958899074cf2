package main

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"strconv"
	"time"

	"ftb"
)

// spanTotals sums the span attribution of a repetition's calls, one
// fresh recorder per call.
type spanTotals struct {
	restoreNS, tailNS, executeNS, storeAppendNS int64
	dropped                                     int64
}

func (s *spanTotals) add(a ftb.SpanAttribution, dropped int64) {
	for _, ph := range a.Phases {
		for _, c := range ph.Categories {
			switch c.Cat.String() {
			case "restore", "restore_site", "restore_pool", "restore_build":
				s.restoreNS += c.NS
			case "tail":
				s.tailNS += c.NS
			case "execute":
				s.executeNS += c.NS
			}
		}
	}
	s.storeAppendNS += a.StoreAppendNS
	s.dropped += dropped
}

// layerNames returns every per-layer metric a traced repetition emits,
// whichever workload it runs: a layer a workload does not reach reads 0.
func layerNames(sz sizing) []string {
	var names []string
	for _, x := range pipeline {
		names = append(names, "experiments."+x.name+"_s", "experiments."+x.name+"_runs")
	}
	for _, k := range sz.infer {
		names = append(names, "ftb.infer_s."+k.label)
	}
	for _, k := range sz.gt {
		names = append(names, "ftb.exhaustive_s."+k.label)
	}
	for _, ph := range phases {
		names = append(names, "campaign."+ph+"_s", "campaign."+ph+"_runs", "replay."+ph+".hit_ratio")
	}
	names = append(names,
		"campaign.campaigns", "campaign.run_p50_us", "campaign.run_p99_us",
		"campaign.queue_wait_s", "campaign.busy_frac", "campaign.execute_s", "campaign.tail_s",
		"replay.tier2_hits", "replay.pool_hits", "replay.prefix_misses", "replay.delta_restores",
		"replay.converge_exits", "replay.stores_skipped", "replay.stores_converge_skipped",
		"replay.restore_s",
		"boundary.fold_s", "boundary.masked_folded",
		"store.append_s", "store.records_appended", "store.appends", "store_mb",
		"obs.spans_dropped",
	)
	for _, k := range sz.inject {
		names = append(names, "trace.inject_us."+k.label, "trace.inject_diff_us."+k.label)
	}
	return names
}

var phases = []string{"exhaustive", "classify", "propagate"}

// finishLayers completes a traced repetition's per-layer figures from
// the collector and the span totals, then times single injection runs
// outside the timed window. It does nothing for an untraced repetition.
func (e *runEnv) finishLayers() error {
	if !e.traced {
		return nil
	}
	s := e.col.Snapshot()
	for _, name := range phases {
		ph := s.Phases[name]
		e.layers["campaign."+name+"_s"] = ph.WallSeconds
		e.layers["campaign."+name+"_runs"] = float64(ph.Experiments)
		r := ph.Replay
		if all := r.Tier1Hits + r.Tier2Hits + r.PoolHits + r.PrefixMisses; all > 0 {
			e.layers["replay."+name+".hit_ratio"] = float64(r.Tier1Hits+r.Tier2Hits+r.PoolHits) / float64(all)
		}
	}
	e.layers["campaign.campaigns"] = float64(s.Campaigns)
	var lat []bucket
	for _, b := range s.RunLatency.Buckets {
		le, err := strconv.ParseFloat(b.LE, 64) // "+Inf" parses as +Inf
		if err != nil {
			return fmt.Errorf("run latency bucket %q: %w", b.LE, err)
		}
		lat = append(lat, bucket{le, b.Count})
	}
	e.layers["campaign.run_p50_us"] = quantileBoundUS(lat, 0.50)
	e.layers["campaign.run_p99_us"] = quantileBoundUS(lat, 0.99)
	e.layers["campaign.queue_wait_s"] = s.QueueWait.SumSeconds
	if e.wall > 0 {
		e.layers["campaign.busy_frac"] = s.RunLatency.SumSeconds / (workers * e.wall.Seconds())
	}
	e.layers["campaign.execute_s"] = nsToS(e.spans.executeNS)
	e.layers["campaign.tail_s"] = nsToS(e.spans.tailNS)
	e.layers["replay.restore_s"] = nsToS(e.spans.restoreNS)
	e.layers["replay.tier2_hits"] = float64(s.Replay.Tier2Hits)
	e.layers["replay.pool_hits"] = float64(s.Replay.PoolHits)
	e.layers["replay.prefix_misses"] = float64(s.Replay.PrefixMisses)
	e.layers["replay.delta_restores"] = float64(s.Replay.DeltaRestores)
	e.layers["replay.converge_exits"] = float64(s.Replay.ConvergeExits)
	e.layers["replay.stores_skipped"] = float64(s.Replay.StoresSkipped)
	e.layers["replay.stores_converge_skipped"] = float64(s.Replay.StoresConvergeSkipped)
	e.layers["boundary.masked_folded"] = float64(s.Phases["classify"].Outcomes.Masked)
	e.layers["store.append_s"] = nsToS(e.spans.storeAppendNS)
	e.layers["store.records_appended"] = float64(s.Store.RecordsAppended)
	e.layers["store.appends"] = float64(s.Store.Appends)
	e.layers["obs.spans_dropped"] = float64(e.spans.dropped)
	if err := e.injectTimings(); err != nil {
		return err
	}
	for _, name := range layerNames(e.sizes) {
		if _, ok := e.layers[name]; !ok {
			e.layers[name] = 0
		}
	}
	return nil
}

// nopSink discards the propagation deltas of a diff run.
type nopSink struct{}

func (nopSink) Observe(int, float64, float64) {}

// injectTimings records the mean wall time of one injection run from
// the program entry, plain and in diff mode, per kernel over a seeded
// sample of pairs: the trace layer's per-run primitives alone.
func (e *runEnv) injectTimings() error {
	for _, k := range e.sizes.inject {
		an, err := e.analysis(k)
		if err != nil {
			return err
		}
		prog, err := ftb.NewKernel(k.name, k.size)
		if err != nil {
			return err
		}
		pairs := e.pairs("inject."+k.label, an)
		var ctx ftb.Ctx
		var plain, diff time.Duration
		for _, p := range pairs {
			t := time.Now()
			ftb.RunInject(&ctx, prog, p.Site, uint(p.Bit))
			plain += time.Since(t)
			t = time.Now()
			if _, err := ftb.RunInjectDiff(&ctx, prog, an.Golden(), p.Site, uint(p.Bit), nopSink{}); err != nil {
				return fmt.Errorf("%s: diff run: %w", k.label, err)
			}
			diff += time.Since(t)
		}
		e.layers["trace.inject_us."+k.label] = plain.Seconds() * 1e6 / float64(len(pairs))
		e.layers["trace.inject_diff_us."+k.label] = diff.Seconds() * 1e6 / float64(len(pairs))
	}
	return nil
}

// bucket is one cumulative run-latency histogram bucket.
type bucket struct {
	le    float64 // upper bound, seconds
	count int64   // observations at or below le
}

// quantileBoundUS is the upper bound, in microseconds, of the histogram
// bucket holding quantile q: a bucket bound, not an interpolated value.
// The overflow bucket's bound is +Inf, which JSON cannot carry, so a
// quantile there reads as the largest finite bound.
func quantileBoundUS(buckets []bucket, q float64) float64 {
	if len(buckets) == 0 || buckets[len(buckets)-1].count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(buckets[len(buckets)-1].count)))
	last := 0.0
	for _, b := range buckets {
		if !math.IsInf(b.le, 1) {
			last = b.le
		}
		if b.count >= target {
			break
		}
	}
	return last * 1e6
}

func nsToS(ns int64) float64 { return float64(ns) / 1e9 }

// dirMB is the on-disk size of a directory tree in MiB.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / (1 << 20), err
}
