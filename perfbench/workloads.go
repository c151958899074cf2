package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"time"

	"ftb"
	"ftb/internal/experiments"
)

// kernelCfg is one kernel at one size preset. label names it in metric
// names and references; it stays fixed across scales so a test-scale
// run emits the same metric names as a full one.
type kernelCfg struct{ label, name, size string }

// sizing fixes every input size of the three workloads at one scale.
type sizing struct {
	pipeline string      // paper-small's experiments.Scale.Size
	infer    []kernelCfg // infer-paper's InferBoundary kernels
	gt       []kernelCfg // groundtruth-paper's exhaustive campaigns
	inject   []kernelCfg // kernels of the traced per-run timings
}

const (
	scaleFull = "full"
	scaleTest = "test"
)

// scales holds the full benchmark sizing and the test sizing of the
// smoke tests, which keeps every label and shrinks every kernel.
//
// A full repetition takes 2 to 18 s on the 2-core reference box, where
// identical repetitions differ by up to ±10%, so a run needs several of
// them for a steady median. That is why infer-paper leaves out gmres at
// paper size (9 s of its 11 s) and groundtruth-paper sweeps fft at small
// size rather than paper size (12 s of its 14 s); both keep the
// mechanisms they exist to measure.
var scales = map[string]sizing{
	scaleFull: {
		pipeline: ftb.SizeSmall,
		infer: []kernelCfg{
			{"cg", "cg", ftb.SizePaper}, {"lu", "lu", ftb.SizePaper}, {"fft", "fft", ftb.SizePaper},
		},
		gt: []kernelCfg{
			{"fft-small", "fft", ftb.SizeSmall},
			{"stencil-paper", "stencil", ftb.SizePaper},
			{"cg-small", "cg", ftb.SizeSmall},
		},
		inject: []kernelCfg{
			{"cg-paper", "cg", ftb.SizePaper}, {"lu-paper", "lu", ftb.SizePaper},
			{"fft-paper", "fft", ftb.SizePaper}, {"gmres-paper", "gmres", ftb.SizePaper},
			{"stencil-paper", "stencil", ftb.SizePaper}, {"cg-small", "cg", ftb.SizeSmall},
		},
	},
}

func init() {
	full := scales[scaleFull]
	test := sizing{pipeline: ftb.SizeTest}
	shrink := func(ks []kernelCfg) []kernelCfg {
		out := make([]kernelCfg, len(ks))
		for i, k := range ks {
			out[i] = kernelCfg{k.label, k.name, ftb.SizeTest}
		}
		return out
	}
	test.infer, test.gt, test.inject = shrink(full.infer), shrink(full.gt), shrink(full.inject)
	scales[scaleTest] = test
}

// workloads maps each workload name to its repetition.
var workloads = map[string]func(*runEnv) error{
	"paper-small":       paperSmall,
	"infer-paper":       inferPaper,
	"groundtruth-paper": groundTruthPaper,
}

const (
	// spotPairs is the number of (site, bit) pairs per operation that
	// are re-run from the program entry on the plain reference executor.
	spotPairs = 24
	// checkpointBatch is the store-append stride of groundtruth-paper,
	// as `ftbcli exhaustive -store` uses it.
	checkpointBatch = 256
	// inferFrac is the paper's sample budget: 1% of the sample space.
	inferFrac = 0.01
)

// runEnv is one repetition: its inputs, its operation tally, and, when
// traced, the collector and per-layer figures.
type runEnv struct {
	name    string
	seed    uint64
	scale   string
	sizes   sizing
	traced  bool
	scratch string
	refs    references
	digests map[string]string // non-nil in record mode
	// setupOnly stops the repetition where its timed window would open.
	setupOnly bool

	start     time.Time // process start
	firstCall time.Time
	setup     time.Duration // process start to first timed call
	wall      time.Duration // first timed call to last verified result

	attempted int
	failures  []string

	col      *ftb.Collector
	spans    spanTotals
	layers   map[string]float64
	analyses map[kernelCfg]*ftb.Analysis
}

// begin ends set-up and opens the timed window. It reports false when
// the repetition measures set-up only, and the workload stops there.
func (e *runEnv) begin() bool {
	e.firstCall = time.Now()
	e.setup = e.firstCall.Sub(e.start)
	return !e.setupOnly
}

// end closes the timed window.
func (e *runEnv) end() { e.wall = time.Since(e.firstCall) }

// op tallies one operation: a table, an inference or a campaign.
func (e *runEnv) op(name string, err error) {
	e.attempted++
	if err != nil {
		e.failures = append(e.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// rand returns a generator for one purpose, derived from the workload
// seed alone.
func (e *runEnv) rand(purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(e.seed, h.Sum64()))
}

// analysis builds (once per process) the analysis of a kernel: the
// golden run the campaigns and checks share.
func (e *runEnv) analysis(k kernelCfg) (*ftb.Analysis, error) {
	if an, ok := e.analyses[k]; ok {
		return an, nil
	}
	an, err := ftb.NewKernelAnalysis(k.name, k.size)
	if err != nil {
		return nil, err
	}
	if e.analyses == nil {
		e.analyses = make(map[kernelCfg]*ftb.Analysis)
	}
	e.analyses[k] = an
	return an, nil
}

func (e *runEnv) analysesOf(ks []kernelCfg) ([]*ftb.Analysis, error) {
	out := make([]*ftb.Analysis, len(ks))
	for i, k := range ks {
		an, err := e.analysis(k)
		if err != nil {
			return nil, err
		}
		out[i] = an
	}
	return out, nil
}

// call runs one timed call into ftb with the workload's RunOptions.
// Traced, it attaches the collector and a fresh span recorder, and
// records the call's wall time under metric and its engine runs under
// runsMetric (when not empty).
func (e *runEnv) call(metric, runsMetric string, fn func(opts []ftb.RunOption) error) error {
	opts := []ftb.RunOption{ftb.WithWorkers(workers)}
	if !e.traced {
		return fn(opts)
	}
	rec := ftb.NewSpanRecorder()
	opts = append(opts, ftb.WithCollector(e.col), ftb.WithSpans(ftb.SpanOptions{Recorder: rec}))
	before := e.col.Snapshot().Experiments
	t := time.Now()
	err := fn(opts)
	e.layers[metric] = time.Since(t).Seconds()
	if runsMetric != "" {
		e.layers[runsMetric] = float64(e.col.Snapshot().Experiments - before)
	}
	e.spans.add(ftb.AttributeSpans(rec.Cut()), rec.Dropped())
	return err
}

// pipeline lists the paper's experiments in `ftbcli exp all` order.
var pipeline = []struct {
	name string
	run  func(experiments.Scale) (interface{ Render() string }, error)
}{
	{"table1", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Table1(s) }},
	{"figure3", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Figure3(s) }},
	{"figure4", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Figure4(s) }},
	{"table2", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Table2(s) }},
	{"figure5", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Figure5(s) }},
	{"table3", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Table3(s) }},
	{"table4", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Table4(s) }},
	{"monotonic", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Monotonicity(s) }},
	{"baseline", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Baseline(s) }},
	{"ablation", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Ablation(s) }},
	{"sensitivity", func(s experiments.Scale) (interface{ Render() string }, error) { return experiments.Sensitivity(s) }},
}

// paperSmall regenerates every table and figure, as `ftbcli exp all
// -size small -trials 1` does, and checks each rendering.
func paperSmall(e *runEnv) error {
	var spot []kernelCfg
	for _, name := range experiments.Benchmarks {
		spot = append(spot, kernelCfg{name, name, e.sizes.pipeline})
	}
	spotAn, err := e.analysesOf(spot)
	if err != nil {
		return err
	}
	if !e.begin() {
		return nil
	}
	for _, x := range pipeline {
		var rendered string
		err := e.call("experiments."+x.name+"_s", "experiments."+x.name+"_runs", func(opts []ftb.RunOption) error {
			res, err := x.run(experiments.Scale{
				Size: e.sizes.pipeline, Trials: 1, Seed: e.seed,
				RunOptions: opts, Collector: e.col,
			})
			if err == nil {
				rendered = res.Render()
			}
			return err
		})
		if err == nil {
			err = e.checkDigest(x.name, digestString(rendered))
		}
		e.op(x.name, err)
	}
	e.end()
	// The pipeline's own ground truth stays inside the experiments
	// package, so the spot-check runs the same replayed engine on seeded
	// pairs of the same kernels and compares it with the plain executor.
	for i, an := range spotAn {
		pairs := e.pairs("spot."+spot[i].label, an)
		recs, err := an.RunPairs(pairs, ftb.WithWorkers(workers))
		if err == nil {
			err = spotCheckRecords(an, spot[i], recs)
		}
		e.op("spotcheck."+spot[i].label, err)
	}
	if e.traced {
		if n := e.col.Snapshot().Phases["exhaustive"].Experiments; n == 0 {
			e.op("guard", errors.New("no exhaustive runs: ground truth came from a warm cache"))
		}
	}
	return e.finishLayers()
}

// inferPaper runs the paper's method as a user does: one
// InferBoundary at 1% per kernel, with no exhaustive campaign.
func inferPaper(e *runEnv) error {
	ans, err := e.analysesOf(e.sizes.infer)
	if err != nil {
		return err
	}
	r := e.rand("infer")
	seeds := make([]uint64, len(ans))
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	if !e.begin() {
		return nil
	}
	results := make([]*ftb.Result, len(ans))
	errs := make([]error, len(ans))
	for i, an := range ans {
		k := e.sizes.infer[i]
		errs[i] = e.call("ftb.infer_s."+k.label, "", func(opts []ftb.RunOption) error {
			res, err := an.InferBoundary(ftb.InferOptions{SampleFrac: inferFrac, Seed: seeds[i]}, opts...)
			results[i] = res
			return err
		})
		if errs[i] == nil {
			errs[i] = e.checkDigest(k.label, thresholdsDigest(results[i].Boundary()))
		}
	}
	e.end()
	for i, an := range ans {
		k := e.sizes.infer[i]
		if errs[i] == nil {
			errs[i] = spotCheckRecords(an, k, e.sampleRecords("spot."+k.label, results[i].Records()))
		}
		e.op(k.label, errs[i])
	}
	if e.traced {
		var inferS float64
		for _, k := range e.sizes.infer {
			inferS += e.layers["ftb.infer_s."+k.label]
		}
		ph := e.col.Snapshot().Phases
		e.layers["boundary.fold_s"] = inferS - ph["classify"].WallSeconds - ph["propagate"].WallSeconds
	}
	return e.finishLayers()
}

// groundTruthPaper produces durable ground truth, as `ftbcli exhaustive
// -store` does: a checkpointed exhaustive campaign per kernel, appended
// to a store in a directory no earlier repetition has used.
func groundTruthPaper(e *runEnv) error {
	ans, err := e.analysesOf(e.sizes.gt)
	if err != nil {
		return err
	}
	dir, err := freshDir(e.scratch)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := ftb.OpenStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	if e.traced {
		st.SetCollector(e.col)
	}
	if !e.begin() {
		return nil
	}
	gts := make([]*ftb.GroundTruth, len(ans))
	errs := make([]error, len(ans))
	for i, an := range ans {
		k := e.sizes.gt[i]
		errs[i] = e.call("ftb.exhaustive_s."+k.label, "", func(opts []ftb.RunOption) error {
			gt, err := an.ExhaustiveCheckpointed("", checkpointBatch, append(opts, ftb.WithStore(st))...)
			gts[i] = gt
			return err
		})
		if errs[i] == nil {
			errs[i] = gts[i].Validate(an.Golden())
		}
		if errs[i] == nil {
			errs[i] = e.checkDigest(k.label, groundTruthDigest(gts[i]))
		}
	}
	e.end()
	want := 0
	for i, an := range ans {
		k := e.sizes.gt[i]
		want += an.SampleSpace()
		if errs[i] == nil {
			errs[i] = spotCheckGroundTruth(an, k, gts[i], e.pairs("spot."+k.label, an))
		}
		e.op(k.label, errs[i])
	}
	if e.traced {
		if n := e.col.Snapshot().Phases["exhaustive"].Experiments; n != int64(want) {
			e.op("guard", fmt.Errorf("%d exhaustive runs, want sites×bits = %d: the store was not fresh", n, want))
		}
		mb, err := dirMB(dir)
		if err != nil {
			return err
		}
		e.layers["store_mb"] = mb
	}
	return e.finishLayers()
}

// freshDir creates an empty store directory under parent (the system
// temporary directory when parent is empty). A resumed store would
// cost zero engine runs, so an existing non-empty directory is refused.
func freshDir(parent string) (string, error) {
	if parent == "" {
		return os.MkdirTemp("", "ftbbench-store-")
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		return "", err
	}
	if len(ents) != 0 {
		return "", fmt.Errorf("store directory %s is not empty", parent)
	}
	return parent, nil
}
