package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ftb/internal/outcome"
)

// Snapshot is a point-in-time copy of a Collector's aggregates, shaped
// for export: json.Marshal-able directly (WriteJSON) and renderable as
// Prometheus-style text exposition (WritePrometheus). Snapshots are
// plain data — taking one does not pause or reset the collector.
//
// A snapshot taken while campaigns are running is per-metric consistent
// (every number is a real counter reading) but not cross-metric atomic:
// e.g. Experiments may be one ahead of the outcome total. Snapshot after
// the campaign entry point returns for exact accounting.
type Snapshot struct {
	Campaigns   int64 `json:"campaigns"`
	Experiments int64 `json:"experiments"`
	// Trajectories counts experiments that also recorded a propagation
	// trajectory: runs a trajectory recorder saw, not runs that only fed
	// boundary inference's threshold fold.
	Trajectories int64                    `json:"trajectories"`
	Outcomes     OutcomeCounts            `json:"outcomes"`
	Replay       ReplayCounts             `json:"replay"`
	Store        StoreCounts              `json:"store"`
	WallSeconds  float64                  `json:"wall_seconds"`
	RunLatency   HistogramSnapshot        `json:"run_latency"`
	QueueWait    HistogramSnapshot        `json:"queue_wait"`
	Workers      []WorkerSnapshot         `json:"workers"`
	Gauges       map[string]int64         `json:"gauges"`
	Phases       map[string]PhaseSnapshot `json:"phases"`
	Sections     []SectionSnapshot        `json:"sections,omitempty"`
}

// ReplayCounts is the checkpointed-replay accounting of campaigns run
// with Replay enabled. Every prepared experiment lands in exactly one of
// the four restore-attribution buckets: a first-tier boundary-snapshot
// hit (no longer produced, so Tier1Hits reads 0), a second-tier
// per-site-snapshot hit, a rebuild seeded from the pooled golden
// boundary snapshots, or a golden-prefix rebuild (miss).
// SnapshotHits and SnapshotMisses keep the coarse split (hits =
// tier 1 + tier 2, misses = pool + prefix misses). DeltaRestores counts
// head restores served by the kernel's dirty-interval delta path;
// ConvergeExits counts runs cut short by a proven reconvergence onto
// the golden trace, with the suffix stores they skipped in
// StoresConvergeSkipped. All zero for campaigns run without replay.
type ReplayCounts struct {
	SnapshotHits          int64 `json:"snapshot_hits"`
	SnapshotMisses        int64 `json:"snapshot_misses"`
	Tier1Hits             int64 `json:"tier1_hits"`
	Tier2Hits             int64 `json:"tier2_hits"`
	PoolHits              int64 `json:"pool_hits"`
	PrefixMisses          int64 `json:"prefix_misses"`
	DeltaRestores         int64 `json:"delta_restores"`
	ConvergeExits         int64 `json:"converge_exits"`
	StoresSkipped         int64 `json:"stores_skipped"`
	StoresConvergeSkipped int64 `json:"stores_converge_skipped"`
}

// StoreCounts is the ground-truth-store accounting (internal/store):
// durable batch appends and the records they carried, point lookups and
// range scans with the records they read, and what compaction folded
// away. All zero for processes that never touch a store.
type StoreCounts struct {
	Appends           int64 `json:"appends"`
	RecordsAppended   int64 `json:"records_appended"`
	Lookups           int64 `json:"lookups"`
	Scans             int64 `json:"scans"`
	RecordsRead       int64 `json:"records_read"`
	Compactions       int64 `json:"compactions"`
	SegmentsCompacted int64 `json:"segments_compacted"`
	BytesReclaimed    int64 `json:"bytes_reclaimed"`
}

// OutcomeCounts is the classified-outcome tally, plus trace-mismatch
// aborts (which are campaign failures, not a fourth classification).
type OutcomeCounts struct {
	Masked   int64 `json:"masked"`
	SDC      int64 `json:"sdc"`
	Crash    int64 `json:"crash"`
	Mismatch int64 `json:"mismatch"`
}

// HistogramSnapshot is a cumulative-bucket histogram copy. Buckets carry
// Prometheus "le" semantics: Count is the number of observations at or
// below LE, and the final bucket ("+Inf") equals the total Count.
type HistogramSnapshot struct {
	Count      int64            `json:"count"`
	SumSeconds float64          `json:"sum_seconds"`
	Buckets    []BucketSnapshot `json:"buckets"`
}

// BucketSnapshot is one cumulative histogram bucket. LE is the decimal
// upper bound, "+Inf" for the overflow bucket (a string so the snapshot
// stays representable in JSON).
type BucketSnapshot struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// WorkerSnapshot is one engine worker's experiment count. Workers that
// executed nothing are omitted. Shard is empty for a locally collected
// snapshot; merged cluster snapshots namespace each remote worker with
// its shard label (see Snapshot.Merge), so worker 0 of shard "w1" and
// worker 0 of shard "w2" stay distinct rows.
type WorkerSnapshot struct {
	Worker      int    `json:"worker"`
	Shard       string `json:"shard,omitempty"`
	Experiments int64  `json:"experiments"`
}

// PhaseSnapshot is one campaign phase's aggregate.
type PhaseSnapshot struct {
	Campaigns    int64         `json:"campaigns"`
	Experiments  int64         `json:"experiments"`
	Trajectories int64         `json:"trajectories"`
	Outcomes     OutcomeCounts `json:"outcomes"`
	Replay       ReplayCounts  `json:"replay"`
	WallSeconds  float64       `json:"wall_seconds"`
}

// SectionSnapshot is one named harness span, in first-opened order.
type SectionSnapshot struct {
	Name        string  `json:"name"`
	Spans       int64   `json:"spans"`
	Campaigns   int64   `json:"campaigns"`
	Experiments int64   `json:"experiments"`
	WallSeconds float64 `json:"wall_seconds"`
}

func nanosToSeconds(n int64) float64 { return float64(n) / 1e9 }

// add folds another ReplayCounts into r (snapshot aggregation, cluster
// merges).
func (r *ReplayCounts) add(o ReplayCounts) {
	r.SnapshotHits += o.SnapshotHits
	r.SnapshotMisses += o.SnapshotMisses
	r.Tier1Hits += o.Tier1Hits
	r.Tier2Hits += o.Tier2Hits
	r.PoolHits += o.PoolHits
	r.PrefixMisses += o.PrefixMisses
	r.DeltaRestores += o.DeltaRestores
	r.ConvergeExits += o.ConvergeExits
	r.StoresSkipped += o.StoresSkipped
	r.StoresConvergeSkipped += o.StoresConvergeSkipped
}

// replayCounts assembles a phase's replay accounting; the coarse
// hit/miss split is derived from the restore-attribution buckets.
func replayCounts(ph *phaseStats) ReplayCounts {
	rc := ReplayCounts{
		Tier1Hits:             ph.snapTier1.Value(),
		Tier2Hits:             ph.snapTier2.Value(),
		PoolHits:              ph.snapPool.Value(),
		PrefixMisses:          ph.snapMisses.Value(),
		DeltaRestores:         ph.deltaRestores.Value(),
		ConvergeExits:         ph.convergeExits.Value(),
		StoresSkipped:         ph.storesSkipped.Value(),
		StoresConvergeSkipped: ph.convergeStores.Value(),
	}
	rc.SnapshotHits = rc.Tier1Hits + rc.Tier2Hits
	rc.SnapshotMisses = rc.PoolHits + rc.PrefixMisses
	return rc
}

func outcomeCounts(o *[outcome.NumKinds]stripedCounter, mismatches int64) OutcomeCounts {
	return OutcomeCounts{
		Masked:   o[outcome.Masked].Value(),
		SDC:      o[outcome.SDC].Value(),
		Crash:    o[outcome.Crash].Value(),
		Mismatch: mismatches,
	}
}

// snapshot merges a histogram's stripes into cumulative-bucket form.
func (h *Histogram) snapshot() HistogramSnapshot {
	nb := len(h.bounds) + 1
	s := HistogramSnapshot{
		Count:      h.Count(),
		SumSeconds: nanosToSeconds(h.Sum().Nanoseconds()),
		Buckets:    make([]BucketSnapshot, 0, nb),
	}
	var cum int64
	for i := 0; i < nb; i++ {
		for sh := range h.shards {
			cum += h.shards[sh].counts[i].Load()
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		s.Buckets = append(s.Buckets, BucketSnapshot{LE: le, Count: cum})
	}
	return s
}

// Snapshot copies the collector's current aggregates. The global
// experiment count sums the per-worker counters and the global outcome
// mix sums the phases — the hot path maintains only the sharded forms.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Campaigns:   c.campaigns.Value(),
		Experiments: c.experimentsTotal(),
		WallSeconds: nanosToSeconds(c.wallNanos.Value()),
		RunLatency:  c.runLatency.snapshot(),
		QueueWait:   c.queueWait.snapshot(),
		Store: StoreCounts{
			Appends:           c.store.appends.Value(),
			RecordsAppended:   c.store.recordsAppended.Value(),
			Lookups:           c.store.lookups.Value(),
			Scans:             c.store.scans.Value(),
			RecordsRead:       c.store.recordsRead.Value(),
			Compactions:       c.store.compactions.Value(),
			SegmentsCompacted: c.store.segmentsCompacted.Value(),
			BytesReclaimed:    c.store.bytesReclaimed.Value(),
		},
		Gauges: map[string]int64{
			"active_campaigns": c.activeCampaigns.Value(),
			"active_workers":   c.activeWorkers.Value(),
		},
		Phases: make(map[string]PhaseSnapshot),
	}
	for w := range c.perWorker {
		if n := c.perWorker[w].Value(); n > 0 {
			s.Workers = append(s.Workers, WorkerSnapshot{Worker: w, Experiments: n})
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, ph := range c.phases {
		pc := outcomeCounts(&ph.outcomes, ph.mismatches.Value())
		s.Outcomes.Masked += pc.Masked
		s.Outcomes.SDC += pc.SDC
		s.Outcomes.Crash += pc.Crash
		s.Outcomes.Mismatch += pc.Mismatch
		ps := PhaseSnapshot{
			Campaigns:    ph.campaigns.Value(),
			Experiments:  ph.experiments.Value(),
			Trajectories: ph.traced.Value(),
			Outcomes:     pc,
			Replay:       replayCounts(ph),
			WallSeconds:  nanosToSeconds(ph.wallNanos.Value()),
		}
		s.Trajectories += ps.Trajectories
		s.Replay.add(ps.Replay)
		s.Phases[name] = ps
	}
	for _, name := range c.sectionOrder {
		sec := c.sections[name]
		s.Sections = append(s.Sections, SectionSnapshot{
			Name:        name,
			Spans:       sec.spans.Value(),
			Campaigns:   sec.campaigns.Value(),
			Experiments: sec.experiments.Value(),
			WallSeconds: nanosToSeconds(sec.wallNanos.Value()),
		})
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// promFloat renders a float the way Prometheus exposition expects.
func promFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// writeHistogramProm writes one histogram family in exposition format.
func writeHistogramProm(w io.Writer, name, help string, h HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	for _, b := range h.Buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, b.LE, b.Count); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promFloat(h.SumSeconds), name, h.Count)
	return err
}

// WritePrometheus writes the snapshot as Prometheus-style text
// exposition (one scrape body), suitable for a node_exporter textfile or
// a pull endpoint. Series are emitted in a fixed order so the output is
// diffable.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	counter := func(name, help string, v int64) error {
		_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
		return err
	}
	if err := counter("ftb_campaigns_total", "Fault-injection campaigns executed.", s.Campaigns); err != nil {
		return err
	}
	if err := counter("ftb_experiments_total", "Fault-injection experiments executed.", s.Experiments); err != nil {
		return err
	}
	if err := counter("ftb_trajectories_total", "Propagation trajectories recorded by traced experiments.", s.Trajectories); err != nil {
		return err
	}
	if _, err := fmt.Fprint(w, "# HELP ftb_outcomes_total Experiment outcomes by classification.\n# TYPE ftb_outcomes_total counter\n"); err != nil {
		return err
	}
	for _, kv := range []struct {
		label string
		v     int64
	}{
		{"masked", s.Outcomes.Masked},
		{"sdc", s.Outcomes.SDC},
		{"crash", s.Outcomes.Crash},
		{"mismatch", s.Outcomes.Mismatch},
	} {
		if _, err := fmt.Fprintf(w, "ftb_outcomes_total{outcome=%q} %d\n", kv.label, kv.v); err != nil {
			return err
		}
	}
	if err := counter("ftb_replay_snapshot_hits_total", "Experiments whose prefix was served from a cached kernel snapshot.", s.Replay.SnapshotHits); err != nil {
		return err
	}
	if err := counter("ftb_replay_snapshot_misses_total", "Experiments that had to build or extend a kernel snapshot.", s.Replay.SnapshotMisses); err != nil {
		return err
	}
	if err := counter("ftb_replay_stores_skipped_total", "Prefix stores replay avoided re-executing.", s.Replay.StoresSkipped); err != nil {
		return err
	}
	if _, err := fmt.Fprint(w, "# HELP ftb_replay_restores_total Prepared experiments by restore tier.\n# TYPE ftb_replay_restores_total counter\n"); err != nil {
		return err
	}
	for _, kv := range []struct {
		label string
		v     int64
	}{
		{"tier1", s.Replay.Tier1Hits},
		{"tier2", s.Replay.Tier2Hits},
		{"pool", s.Replay.PoolHits},
		{"miss", s.Replay.PrefixMisses},
	} {
		if _, err := fmt.Fprintf(w, "ftb_replay_restores_total{tier=%q} %d\n", kv.label, kv.v); err != nil {
			return err
		}
	}
	if err := counter("ftb_replay_delta_restores_total", "Head-snapshot restores served by the dirty-interval delta path.", s.Replay.DeltaRestores); err != nil {
		return err
	}
	if err := counter("ftb_replay_converge_exits_total", "Runs cut short by a proven reconvergence onto the golden trace.", s.Replay.ConvergeExits); err != nil {
		return err
	}
	if err := counter("ftb_replay_converge_stores_skipped_total", "Suffix stores skipped by reconvergence early-exits.", s.Replay.StoresConvergeSkipped); err != nil {
		return err
	}
	if err := counter("ftb_store_appends_total", "Durable outcome-batch appends into the ground-truth store.", s.Store.Appends); err != nil {
		return err
	}
	if err := counter("ftb_store_records_appended_total", "Outcome records appended into the ground-truth store.", s.Store.RecordsAppended); err != nil {
		return err
	}
	if err := counter("ftb_store_lookups_total", "Point lookups answered by the ground-truth store.", s.Store.Lookups); err != nil {
		return err
	}
	if err := counter("ftb_store_scans_total", "Range scans and materializations answered by the ground-truth store.", s.Store.Scans); err != nil {
		return err
	}
	if err := counter("ftb_store_records_read_total", "Records read by store lookups and scans.", s.Store.RecordsRead); err != nil {
		return err
	}
	if err := counter("ftb_store_compactions_total", "Ground-truth store compactions.", s.Store.Compactions); err != nil {
		return err
	}
	if err := counter("ftb_store_segments_compacted_total", "Segments folded away by store compactions.", s.Store.SegmentsCompacted); err != nil {
		return err
	}
	if err := counter("ftb_store_bytes_reclaimed_total", "Bytes reclaimed by store compactions.", s.Store.BytesReclaimed); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# HELP ftb_campaign_wall_seconds_total Summed campaign wall-clock time.\n# TYPE ftb_campaign_wall_seconds_total counter\nftb_campaign_wall_seconds_total %s\n", promFloat(s.WallSeconds)); err != nil {
		return err
	}
	if err := writeHistogramProm(w, "ftb_run_latency_seconds", "Per-experiment execution latency.", s.RunLatency); err != nil {
		return err
	}
	if err := writeHistogramProm(w, "ftb_queue_wait_seconds", "Per-batch scheduling overhead (claim + progress merge).", s.QueueWait); err != nil {
		return err
	}
	if _, err := fmt.Fprint(w, "# HELP ftb_worker_experiments_total Experiments executed per engine worker.\n# TYPE ftb_worker_experiments_total counter\n"); err != nil {
		return err
	}
	for _, ws := range s.Workers {
		var err error
		if ws.Shard != "" {
			_, err = fmt.Fprintf(w, "ftb_worker_experiments_total{shard=%q,worker=\"%d\"} %d\n", ws.Shard, ws.Worker, ws.Experiments)
		} else {
			_, err = fmt.Fprintf(w, "ftb_worker_experiments_total{worker=\"%d\"} %d\n", ws.Worker, ws.Experiments)
		}
		if err != nil {
			return err
		}
	}
	phases := make([]string, 0, len(s.Phases))
	for name := range s.Phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	if _, err := fmt.Fprint(w, "# HELP ftb_phase_experiments_total Experiments executed per campaign phase.\n# TYPE ftb_phase_experiments_total counter\n"); err != nil {
		return err
	}
	for _, name := range phases {
		if _, err := fmt.Fprintf(w, "ftb_phase_experiments_total{phase=%q} %d\n", name, s.Phases[name].Experiments); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(w, "# HELP ftb_phase_wall_seconds_total Campaign wall-clock per phase.\n# TYPE ftb_phase_wall_seconds_total counter\n"); err != nil {
		return err
	}
	for _, name := range phases {
		if _, err := fmt.Fprintf(w, "ftb_phase_wall_seconds_total{phase=%q} %s\n", name, promFloat(s.Phases[name].WallSeconds)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(w, "# HELP ftb_section_wall_seconds_total Harness wall-clock per named section.\n# TYPE ftb_section_wall_seconds_total counter\n"); err != nil {
		return err
	}
	for _, sec := range s.Sections {
		if _, err := fmt.Fprintf(w, "ftb_section_wall_seconds_total{section=%q} %s\n", sec.Name, promFloat(sec.WallSeconds)); err != nil {
			return err
		}
	}
	gauges := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gauges = append(gauges, name)
	}
	sort.Strings(gauges)
	for _, name := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP ftb_%s Current %s.\n# TYPE ftb_%s gauge\nftb_%s %d\n",
			name, name, name, name, s.Gauges[name]); err != nil {
			return err
		}
	}
	return nil
}
