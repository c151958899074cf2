// Command ftbcli drives fault-tolerance-boundary analyses from the
// terminal: golden-run inspection, exhaustive and sampled campaigns,
// progressive sampling, and the paper's full experiment suite
// (Tables 1–4, Figures 3–5, and the §5 monotonicity ablation).
//
// Usage:
//
//	ftbcli kernels
//	ftbcli golden      -kernel cg  -size small
//	ftbcli exhaustive  -kernel lu  -size small
//	ftbcli infer       -kernel fft -size small -frac 0.01 -filter
//	ftbcli progressive -kernel cg  -size small -adaptive
//	ftbcli propagate   -kernel cg  -size small -site 100 -bit 40
//	ftbcli trace       -kernel cg  -size small -sites 100,200 -bits 40,62
//	ftbcli report      -kernel lu  -size small -o report.md
//	ftbcli exp         table1|figure3|figure4|table2|figure5|table3|table4|
//	                   monotonic|baseline|ablation|sensitivity|all
//	                   [-size paper] [-trials 10] [-seed 1]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"ftb"
	"ftb/internal/experiments"
	"ftb/internal/kernels"
	"ftb/internal/persist"
	"ftb/internal/report"
	"ftb/internal/stats"
	"ftb/internal/textplot"
	"ftb/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C cancels running campaigns instead of killing the process:
	// workers drain within one batch, partial results (e.g. exhaustive
	// -store appends) are flushed, and the command reports what was kept. A
	// second Ctrl-C kills the process the usual way (stop restores the
	// default handler).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "kernels":
		err = cmdKernels()
	case "golden":
		err = cmdGolden(os.Args[2:])
	case "exhaustive":
		err = cmdExhaustive(ctx, os.Args[2:])
	case "worker":
		err = cmdWorker(ctx, os.Args[2:])
	case "infer":
		err = cmdInfer(ctx, os.Args[2:])
	case "progressive":
		err = cmdProgressive(ctx, os.Args[2:])
	case "exp":
		err = cmdExp(ctx, os.Args[2:])
	case "query":
		err = cmdQuery(ctx, os.Args[2:])
	case "profile":
		err = cmdProfile(ctx, os.Args[2:])
	case "sections":
		err = cmdSections(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "propagate":
		err = cmdPropagate(os.Args[2:])
	case "trace":
		err = cmdTrace(ctx, os.Args[2:])
	case "report":
		err = cmdReport(ctx, os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "scenario":
		err = cmdScenario(ctx, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ftbcli: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "ftbcli: interrupted: %v\n", err)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "ftbcli: %v\n", err)
		os.Exit(1)
	}
}

// progressPrinter renders campaign progress as a single live line on
// stderr. Observer callbacks arrive synchronously from campaign workers,
// so rendering is throttled; the final event of each phase always prints.
type progressPrinter struct {
	mu      sync.Mutex
	last    time.Time
	lastLen int
	dirty   bool
	eta     map[string]*rateWindow
}

// OnProgress implements ftb.Observer.
func (p *progressPrinter) OnProgress(e ftb.ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	// Feed the windowed rate estimator even on throttled events, so the
	// ETA reflects the full sample stream, not the 10 Hz render rate.
	if p.eta == nil {
		p.eta = make(map[string]*rateWindow)
	}
	wnd := p.eta[e.Phase]
	if wnd == nil {
		wnd = &rateWindow{}
		p.eta[e.Phase] = wnd
	}
	wnd.observe(now, e.Done)
	if e.Done != e.Total && now.Sub(p.last) < 100*time.Millisecond {
		return
	}
	p.last = now
	line := fmt.Sprintf("%s %d/%d (%.1f%%)  %.0f/s  masked %d  sdc %d  crash %d",
		e.Phase, e.Done, e.Total, 100*float64(e.Done)/float64(e.Total), e.PerSec,
		e.Counts[ftb.Masked], e.Counts[ftb.SDC], e.Counts[ftb.Crash])
	if sec, ok := wnd.eta(e.Total); ok && e.Done != e.Total {
		line += fmt.Sprintf("  eta %v", (time.Duration(sec * float64(time.Second))).Round(time.Second))
	}
	pad := p.lastLen - len(line)
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(os.Stderr, "\r%s%s", line, strings.Repeat(" ", pad))
	p.lastLen = len(line)
	p.dirty = true
}

// Finish terminates the live line so subsequent output starts clean.
func (p *progressPrinter) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dirty {
		fmt.Fprintln(os.Stderr)
		p.dirty = false
	}
}

// execFlags bundles the execution plumbing shared by every
// campaign-running subcommand: the live progress line, the worker cap,
// campaign metrics export, and pprof profiles.
type execFlags struct {
	progress      *bool
	workers       *int
	metrics       *string
	metricsFormat *string
	cpuProfile    *string
	memProfile    *string
	verbose       *bool
	serve         *string
	noReplay      *bool
	spans         *bool
	spansOut      *string
	spanSample    *int

	pp      *progressPrinter
	col     *ftb.Collector
	cpuFile *os.File
	logger  *slog.Logger
	srv     *obsServer
	store   *ftb.Store        // set before begin when the command opened one
	rec     *ftb.SpanRecorder // non-nil when span tracing is requested
	program string            // names the Chrome trace process (set by the command)
}

// newExecFlags registers the shared execution flags on fs.
func newExecFlags(fs *flag.FlagSet) *execFlags {
	return &execFlags{
		progress:      fs.Bool("progress", false, "render a live progress line on stderr"),
		workers:       fs.Int("workers", 0, "cap campaign parallelism (default GOMAXPROCS)"),
		metrics:       fs.String("metrics", "", `write a campaign metrics snapshot to this file ("-" for stdout)`),
		metricsFormat: fs.String("metrics-format", "json", "metrics snapshot format: json or prom"),
		cpuProfile:    fs.String("cpuprofile", "", "write a pprof CPU profile of the command to this file"),
		memProfile:    fs.String("memprofile", "", "write a pprof heap profile at command end to this file"),
		verbose:       verboseFlag(fs),
		serve:         serveFlag(fs),
		noReplay:      fs.Bool("noreplay", false, "disable checkpointed prefix replay (full re-execution per experiment)"),
		spans:         fs.Bool("spans", false, "record a span timeline of the campaign and print the wall-clock attribution table after the run"),
		spansOut:      fs.String("spans-out", "", "write the recorded span timeline to this file (.json = Chrome trace-event for Perfetto, otherwise JSONL); implies span recording"),
		spanSample:    fs.Int("span-sample", 0, "record one experiment span (with typed sub-spans) per this many experiments per worker (default 64, auto-raised on very large campaigns; 1 = every experiment)"),
	}
}

// begin validates the flags, sets up the event log, starts the
// observability server and the CPU profile. Pair a successful begin
// with `defer e.end()`.
func (e *execFlags) begin(ctx context.Context) error {
	if *e.metricsFormat != "json" && *e.metricsFormat != "prom" {
		return fmt.Errorf("unknown -metrics-format %q (want json or prom)", *e.metricsFormat)
	}
	e.logger = setupLogger(*e.verbose)
	if *e.progress {
		e.pp = &progressPrinter{}
	}
	if *e.metrics != "" || *e.serve != "" {
		e.col = ftb.NewCollector()
	}
	if *e.spans || *e.spansOut != "" {
		e.rec = ftb.NewSpanRecorder()
	}
	if *e.serve != "" {
		srv, err := startServer(ctx, *e.serve, e.col, e.store)
		if err != nil {
			return err
		}
		e.srv = srv
		fmt.Fprintf(os.Stderr, "ftbcli: serving observability endpoints on http://%s (/metrics /progress /debug/pprof", srv.addr())
		if e.store != nil {
			fmt.Fprint(os.Stderr, " /v1/query /v1/campaigns")
		}
		fmt.Fprintln(os.Stderr, ")")
	}
	if *e.cpuProfile != "" {
		f, err := os.Create(*e.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		e.cpuFile = f
	}
	return nil
}

// observer returns the combined progress observer (the live line, the
// /progress endpoint, both, or nil).
func (e *execFlags) observer() ftb.Observer {
	var obs multiObserver
	if e.pp != nil {
		obs = append(obs, e.pp)
	}
	if e.srv != nil {
		obs = append(obs, e.srv)
	}
	switch len(obs) {
	case 0:
		return nil
	case 1:
		return obs[0]
	}
	return obs
}

// options returns the RunOptions implementing the requested plumbing.
func (e *execFlags) options(ctx context.Context) []ftb.RunOption {
	opts := []ftb.RunOption{ftb.WithContext(ctx), ftb.WithLogger(e.logger)}
	if o := e.observer(); o != nil {
		opts = append(opts, ftb.WithObserver(o))
	}
	if *e.workers > 0 {
		opts = append(opts, ftb.WithWorkers(*e.workers))
	}
	if e.col != nil {
		opts = append(opts, ftb.WithCollector(e.col))
	}
	if *e.noReplay {
		opts = append(opts, ftb.WithoutReplay())
	}
	if e.rec != nil {
		opts = append(opts, ftb.WithSpans(ftb.SpanOptions{Recorder: e.rec, ExperimentSample: *e.spanSample}))
	}
	return opts
}

// apply attaches the plumbing to an analysis.
func (e *execFlags) apply(ctx context.Context, an *ftb.Analysis) *ftb.Analysis {
	return an.With(e.options(ctx)...)
}

// finish terminates the live progress line (idempotent, safe to defer
// and also call before printing results).
func (e *execFlags) finish() {
	if e.pp != nil {
		e.pp.Finish()
	}
}

// end stops the CPU profile and shuts the observability server down
// (bounded: Shutdown waits at most 3 seconds for in-flight scrapes).
func (e *execFlags) end() {
	if e.cpuFile != nil {
		pprof.StopCPUProfile()
		e.cpuFile.Close()
		e.cpuFile = nil
	}
	if e.srv != nil {
		e.srv.shutdown()
	}
}

// flush writes the post-run artifacts — the span timeline and its
// attribution table, the metrics snapshot, and the heap profile. Call
// once after the command's normal output.
func (e *execFlags) flush() error {
	if e.rec != nil {
		spans := e.rec.Cut()
		if d := e.rec.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "ftbcli: span buffer overflowed; %d spans dropped (raise -span-sample)\n", d)
		}
		if *e.spansOut != "" {
			program := e.program
			if program == "" {
				program = "ftb"
			}
			if err := writeSpansFile(*e.spansOut, program, spans); err != nil {
				return err
			}
			fmt.Printf("wrote %d spans to %s\n", len(spans), *e.spansOut)
		}
		if *e.spans {
			renderAttribution(os.Stdout, ftb.AttributeSpans(spans))
		}
	}
	if *e.metrics != "" {
		snap := e.col.Snapshot()
		write := func(w io.Writer) error {
			if *e.metricsFormat == "prom" {
				return snap.WritePrometheus(w)
			}
			return snap.WriteJSON(w)
		}
		if *e.metrics == "-" {
			if err := write(os.Stdout); err != nil {
				return err
			}
		} else {
			f, err := os.Create(*e.metrics)
			if err != nil {
				return err
			}
			if err := write(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote metrics to %s\n", *e.metrics)
		}
	}
	if *e.memProfile != "" {
		f, err := os.Create(*e.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, `ftbcli — fault tolerance boundary analysis

commands:
  kernels                          list built-in kernels and size presets
  golden      -kernel K -size S    inspect a kernel's golden run and phases
  exhaustive  -kernel K -size S    run the exhaustive campaign (ground truth)
  worker      -kernel K -size S    serve fault-injection leases for one kernel
              [-addr A] [-procs N] over HTTP (the worker half of a sharded
              [-serve A] [-v]      campaign); prints "ftb-worker-listening
                                   <addr>" on stdout once serving
  infer       -kernel K -size S    infer the boundary from a uniform sample
              [-frac F | -samples N] [-filter] [-seed X]
  progressive -kernel K -size S    adaptive progressive sampling
              [-round F] [-stop F] [-adaptive] [-filter] [-seed X]
  exp         E                    reproduce a paper experiment; E is one of
                                   table1 figure3 figure4 table2 figure5
                                   table3 table4 monotonic baseline
                                   ablation sensitivity all
              [-size S] [-trials N] [-seed X]
  query       -store DIR           answer point/range/summary queries from a
              [-campaign REF]      ground-truth store with zero engine runs;
              [-site N [-bit B]]   REF is a campaign directory name or unique
              [-sites LO:HI]       program name (optional when the store holds
              [-json]              one campaign); no facet lists campaigns /
              [-serve ADDR]        summarizes the campaign; -serve exposes
              [-diff A B]          /v1/query and /v1/campaigns over HTTP;
                                   -diff compares two campaigns per (site,bit)
                                   and reports outcome mismatches with counts
  profile     -kernel K -size S    run the exhaustive campaign with span
              [-spans FILE]        tracing and print the wall-clock attribution
              [-spans-out FILE]    table (execute / restore / tail / predict /
              [-span-sample N]     queue wait, per phase); -spans FILE instead
              [-workers N] [-json] attributes a previously recorded JSONL span
                                   file with zero engine runs
  sections    -kernel K -size S    list a kernel's declared compositional
              [-store DIR] [-json] sections (name, site range, identity hash);
                                   -store shows the persisted summary state
  show        FILE                 summarize a saved artifact (.ftb file)
  propagate   -kernel K -size S    chart one injection's error propagation
              [-site N] [-bit B]   (the paper's Figure 2)
  trace       -kernel K -size S    record full propagation trajectories for
              [-sites A,B] [-bits X,Y]  chosen injections; prints a per-run
              [-jsonl FILE]        summary and the error-decay heatmap, and
              [-chrome FILE]       exports JSONL / Chrome trace-event files
              [-max-samples N]     (open the latter in Perfetto)
              [-cols C] [-rows R]
  report      -kernel K -size S    write a markdown resiliency report
              [-frac F] [-evaluate] [-o FILE]
  compare     FILE1 FILE2          compare two saved boundaries
  scenario    validate PATHS...    parse and validate declarative fault
                                   scenarios (files, dirs, or dir/... trees)
  scenario    list PATHS... [-json] table the scenarios a suite contains
  scenario    run PATHS...         execute scenarios and evaluate their
              [-store DIR]         outcome gates; -store appends exhaustive
              [-selfhost N]        scenarios durably (killed runs resume),
              [-workers N] [-json] -selfhost shards them across forked
              [-progress] [-v]     worker processes

persistence:
  exhaustive  -save FILE           save the ground truth for later analysis
  exhaustive  -store DIR           append outcomes durably to a ground-truth
              [-batch N]           store as the campaign runs, every N sites
                                   (default 256; -batch requires -store); a
                                   killed run (in-process or cluster
                                   coordinator) resumes from the store, running
                                   only what it lacks, and results stay
                                   queryable with "ftbcli query"
  infer       -save FILE           save the inferred boundary

compositional execution (exhaustive, sectioned kernels):
  -compose                         run each experiment only within its own
                                   declared section and predict the rest from
                                   per-section error-transfer summaries;
                                   falls back to full execution when the
                                   evidence is inconclusive (results byte-
                                   identical up to the predictor's verdicts)
  -calibration F                   full-run calibration sample fraction
                                   (default 0.02)
  -compose-seed X                  calibration sampling seed
  -safety F  -min-samples N        predictor conservatism knobs (default 32, 3)
  -validate                        check every composed result against the
                                   store's exhaustive ground truth (requires
                                   -store with a complete campaign)
  with -store, section summaries persist beside the campaign log and are
  reused on the next composed run as long as each section's identity hash
  still matches; only changed sections re-calibrate

cluster execution (exhaustive):
  -cluster URL1,URL2               shard the campaign across running "ftbcli
                                   worker" processes; each worker must serve
                                   the same kernel and size (identity is
                                   fingerprint-checked before any lease)
  -selfhost N                      fork N local worker processes and shard
                                   across them; combine with -cluster to mix
  -shard N                         lease granularity in experiments (default
                                   2048); smaller shards persist and
                                   rebalance finer, larger ones amortize the
                                   HTTP round trip
  a killed worker costs only its in-flight shard (the lease is re-queued);
  with -store, every merged shard is appended, so a killed coordinator resumes
  without re-running completed shards; the merged ground truth is
  byte-identical to a single-process run

execution (exhaustive/infer/progressive/report/exp/trace):
  -progress                        render a live campaign progress line on
                                   stderr (phase, done/total, rate, outcomes)
  -workers N                       cap campaign parallelism (default GOMAXPROCS)
  -noreplay                        disable checkpointed prefix replay: every
                                   experiment re-executes its prefix (same
                                   results; rejected with -cluster/-selfhost,
                                   whose workers always replay)
  -metrics FILE                    write a campaign metrics snapshot ("-" for
                                   stdout): outcome counters, latency and
                                   queue-wait histograms, per-worker tallies
  -metrics-format json|prom        snapshot format (default json; prom is
                                   Prometheus text exposition)
  -cpuprofile FILE                 write a pprof CPU profile of the command
  -memprofile FILE                 write a pprof heap profile at command end
  -serve ADDR                      serve live observability endpoints while the
                                   command runs: /metrics (Prometheus, with the
                                   ftb_build_info gauge), /progress (JSON
                                   frontier with per-phase ETA), /debug/pprof,
                                   and /v1/fleet (live per-worker telemetry
                                   during -cluster/-selfhost campaigns); shuts
                                   down cleanly (3s bound) on Ctrl-C
  -spans                           record a hierarchical span timeline
                                   (campaign/phase/batch/sampled experiments
                                   with restore, tail, predict sub-spans) and
                                   print the wall-clock attribution table
                                   (ftbcli profile renders the same table)
  -spans-out FILE                  write the span timeline: .json is a Chrome
                                   trace-event file (open in Perfetto), any
                                   other name is JSONL for profile -spans
  -span-sample N                   record one experiment span per N per worker
                                   (default 64; 1 = every experiment)
  -v                               log campaign lifecycle events (start, stop,
                                   resumes, trace mismatches) on stderr;
                                   FTB_LOG=debug|info|warn|error sets the
                                   level without the flag
  Ctrl-C                           cancels the running campaign promptly; the
                                   command exits 130 with partial results kept
                                   (exhaustive -store appends what finished,
                                   so rerunning resumes)
`)
}

func kernelFlags(fs *flag.FlagSet) (kernel, size *string) {
	kernel = fs.String("kernel", "cg", "kernel name ("+strings.Join(kernels.Names(), ", ")+")")
	size = fs.String("size", ftb.SizeSmall, "size preset (test, small, paper, large)")
	return kernel, size
}

func cmdKernels() error {
	fmt.Println("kernels:", strings.Join(kernels.Names(), ", "))
	fmt.Println("sizes:  ", strings.Join([]string{ftb.SizeTest, ftb.SizeSmall, ftb.SizePaper, ftb.SizeLarge}, ", "))
	for _, name := range kernels.Names() {
		k, err := kernels.New(name, ftb.SizeSmall)
		if err != nil {
			return err
		}
		fmt.Printf("  %-8s small: %7d sites, tolerance %g\n", name, trace.CountSites(k), k.Tolerance())
	}
	return nil
}

func cmdGolden(args []string) error {
	fs := flag.NewFlagSet("golden", flag.ExitOnError)
	kernel, size := kernelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := kernels.New(*kernel, *size)
	if err != nil {
		return err
	}
	g, err := trace.Golden(k)
	if err != nil {
		return err
	}
	fmt.Printf("kernel %s (%s): %d dynamic instructions, %d-value output, tolerance %g\n",
		*kernel, *size, g.Sites(), len(g.Output), k.Tolerance())
	fmt.Println("phases:")
	for _, p := range k.Phases() {
		fmt.Printf("  %-14s [%7d, %7d)  %7d sites\n", p.Name, p.Start, p.End, p.End-p.Start)
	}
	return nil
}

func cmdExhaustive(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("exhaustive", flag.ExitOnError)
	kernel, size := kernelFlags(fs)
	save := fs.String("save", "", "write the ground truth to this file")
	storeDir := storeDirFlag(fs, "ground-truth store directory: outcomes are appended durably as the campaign runs, a prior partial campaign resumes from the store, and results stay queryable with ftbcli query")
	batch := fs.Int("batch", 256, "sites per -store append (requires -store)")
	clusterURLs := fs.String("cluster", "", "shard the campaign across these comma-separated worker URLs (see the worker command)")
	selfhost := fs.Int("selfhost", 0, "shard the campaign across this many locally forked worker processes")
	shard := fs.Int("shard", 0, "cluster lease granularity in experiments (default 2048)")
	comp := newComposeFlags(fs)
	exec := newExecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	batchSet := false
	fs.Visit(func(f *flag.Flag) { batchSet = batchSet || f.Name == "batch" })
	if batchSet && (*storeDir == "" || comp.enabled()) {
		return errors.New("exhaustive: -batch sets the -store append stride; it requires -store and has no effect with -compose (composed campaigns append no outcomes)")
	}
	an, err := ftb.NewKernelAnalysis(*kernel, *size)
	if err != nil {
		return err
	}
	exec.program = *kernel
	var runOpts []ftb.RunOption
	if *storeDir != "" {
		st, err := ftb.OpenStore(*storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		exec.store = st
		runOpts = append(runOpts, ftb.WithStore(st))
	}
	if err := exec.begin(ctx); err != nil {
		return err
	}
	defer exec.end()
	if exec.store != nil && exec.col != nil {
		exec.store.SetCollector(exec.col)
	}
	if exec.srv != nil {
		id := an.StoreIdentity()
		exec.srv.setBuildInfo(map[string]string{
			"program":    id.Program,
			"golden_crc": fmt.Sprintf("%08x", id.GoldenCRC),
		})
	}
	an = exec.apply(ctx, an)
	defer exec.finish()
	if *clusterURLs != "" || *selfhost > 0 {
		co := ftb.ClusterOptions{
			SelfHost:  *selfhost,
			ShardSize: *shard,
			SpawnLog:  os.Stderr,
		}
		if exec.srv != nil {
			// The coordinator hands the final worker pool to the -serve
			// server, lighting up its /v1/fleet aggregation mid-campaign.
			co.OnWorkers = exec.srv.setFleet
		}
		if *clusterURLs != "" {
			for _, u := range strings.Split(*clusterURLs, ",") {
				if u = strings.TrimSpace(u); u != "" {
					co.Workers = append(co.Workers, u)
				}
			}
		}
		if *selfhost > 0 {
			// Self-hosted workers re-exec this binary's worker subcommand
			// for the same kernel on ephemeral ports.
			exe, err := os.Executable()
			if err != nil {
				return fmt.Errorf("-selfhost: %w", err)
			}
			co.SelfHostCommand = []string{exe, "worker", "-kernel", *kernel, "-size", *size, "-addr", "127.0.0.1:0"}
			if *exec.workers > 0 {
				co.SelfHostCommand = append(co.SelfHostCommand, "-procs", fmt.Sprint(*exec.workers))
			}
			if *exec.verbose {
				co.SelfHostCommand = append(co.SelfHostCommand, "-v")
			}
		}
		runOpts = append(runOpts, ftb.WithCluster(co))
		fmt.Fprintf(os.Stderr, "ftbcli: sharding across %d remote + %d self-hosted workers\n", len(co.Workers), co.SelfHost)
	}
	var rep ftb.ComposeReport
	if comp.enabled() {
		runOpts = append(runOpts, comp.option(&rep))
		if o := comp.sectionsOption(an); o != nil {
			runOpts = append(runOpts, o)
		}
	}
	start := time.Now()
	var gt *ftb.GroundTruth
	if *storeDir != "" && !comp.enabled() {
		gt, err = an.ExhaustiveCheckpointed("", *batch, runOpts...)
	} else {
		// Composed campaigns consult the store for summary reuse and
		// validation but never append outcomes to it.
		gt, err = an.Exhaustive(runOpts...)
	}
	if err != nil {
		return err
	}
	exec.finish()
	elapsed := time.Since(start)
	overall := gt.Overall()
	fmt.Printf("exhaustive campaign: %d experiments in %v\n", overall.Total(), elapsed.Round(time.Millisecond))
	fmt.Printf("  masked %.2f%%  sdc %.2f%%  crash %.2f%%\n",
		100*overall.MaskedRatio(), 100*overall.SDCRatio(), 100*overall.CrashRatio())
	if comp.enabled() {
		printComposeReport(&rep, *comp.validate)
	}
	nm, err := an.NonMonotonicSites(gt)
	if err != nil {
		return err
	}
	fmt.Printf("  non-monotonic sites: %d / %d (%.2f%%)\n", nm, an.Sites(), 100*float64(nm)/float64(an.Sites()))
	if *save != "" {
		if err := persist.SaveFile(*save, gt, persist.SaveGroundTruth); err != nil {
			return err
		}
		fmt.Printf("  saved ground truth to %s\n", *save)
	}
	return exec.flush()
}

func cmdInfer(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	kernel, size := kernelFlags(fs)
	frac := fs.Float64("frac", 0.01, "sample fraction of the (site × bit) space")
	samples := fs.Int("samples", 0, "absolute sample budget (overrides -frac when > 0)")
	filter := fs.Bool("filter", false, "enable the §3.5 filter operation")
	seed := fs.Uint64("seed", 1, "sampling seed")
	evaluate := fs.Bool("evaluate", false, "also run the exhaustive campaign and score the boundary")
	save := fs.String("save", "", "write the inferred boundary to this file")
	exec := newExecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	an, err := ftb.NewKernelAnalysis(*kernel, *size)
	if err != nil {
		return err
	}
	exec.program = *kernel
	if err := exec.begin(ctx); err != nil {
		return err
	}
	defer exec.end()
	an = exec.apply(ctx, an)
	defer exec.finish()
	opts := ftb.InferOptions{SampleFrac: *frac, Filter: *filter, Seed: *seed}
	if *samples > 0 {
		opts.SampleFrac, opts.Samples = 0, *samples
	}
	start := time.Now()
	res, err := an.InferBoundary(opts)
	if err != nil {
		return err
	}
	exec.finish()
	fmt.Printf("inferred boundary from %d samples (%.3f%% of %d) in %v\n",
		res.Samples(), 100*res.SampleFraction(), an.SampleSpace(),
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("  predicted SDC ratio: %.2f%%\n", 100*res.PredictedSDCRatio())
	fmt.Printf("  self-verified uncertainty: %.2f%%\n", 100*res.Uncertainty())
	if *save != "" {
		if err := persist.SaveFile(*save, res.Boundary(), persist.SaveBoundary); err != nil {
			return err
		}
		fmt.Printf("  saved boundary to %s\n", *save)
	}
	if *evaluate {
		gt, err := an.Exhaustive()
		if err != nil {
			return err
		}
		pr := res.Evaluate(gt)
		overall := gt.Overall()
		fmt.Printf("  against ground truth: precision %.2f%%  recall %.2f%%  golden SDC %.2f%%\n",
			100*pr.Precision, 100*pr.Recall, 100*overall.SDCRatio())
	}
	return exec.flush()
}

// cmdShow loads a saved artifact and prints a type-appropriate summary.
func cmdShow(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("show requires exactly one file argument")
	}
	path := args[0]
	if gt, err := persist.LoadFile(path, persist.LoadGroundTruth); err == nil {
		overall := gt.Overall()
		fmt.Printf("%s: ground truth, %d sites x %d bits\n", path, gt.SitesN, gt.BitsN)
		fmt.Printf("  masked %.2f%%  sdc %.2f%%  crash %.2f%%  (%d experiments)\n",
			100*overall.MaskedRatio(), 100*overall.SDCRatio(), 100*overall.CrashRatio(), overall.Total())
		return nil
	}
	if b, err := persist.LoadFile(path, persist.LoadBoundary); err == nil {
		fmt.Printf("%s: fault tolerance boundary, %d sites\n", path, b.Sites())
		zero, inf := 0, 0
		var finite []float64
		for _, th := range b.Thresholds {
			switch {
			case th == 0:
				zero++
			case math.IsInf(th, 1):
				inf++
			default:
				finite = append(finite, th)
			}
		}
		fmt.Printf("  zero thresholds: %d  infinite: %d  finite: %d\n", zero, inf, len(finite))
		if len(finite) > 0 {
			fmt.Printf("  finite threshold quantiles: p10 %.3g  p50 %.3g  p90 %.3g\n",
				stats.Quantile(finite, 0.1), stats.Quantile(finite, 0.5), stats.Quantile(finite, 0.9))
		}
		return nil
	}
	if g, err := persist.LoadFile(path, persist.LoadGolden); err == nil {
		fmt.Printf("%s: golden run, %d sites, %d output values\n", path, g.Sites(), len(g.Output))
		return nil
	}
	if k, err := persist.LoadFile(path, persist.LoadKnown); err == nil {
		fmt.Printf("%s: sampled-outcome table, %d sites x %d bits, %d known\n",
			path, k.Sites(), k.BitsN(), k.Total())
		return nil
	}
	return fmt.Errorf("show: %s is not a recognizable ftb artifact", path)
}

// deltaSink collects one run's per-site deviations.
type deltaSink struct {
	deltas []float64
}

func (s *deltaSink) Observe(site int, golden, delta float64) {
	s.deltas = append(s.deltas, delta)
}

// cmdPropagate renders the paper's Figure 2 for one chosen injection: the
// per-instruction deviation of the corrupted run from the golden run.
func cmdPropagate(args []string) error {
	fs := flag.NewFlagSet("propagate", flag.ExitOnError)
	kernel, size := kernelFlags(fs)
	site := fs.Int("site", -1, "injection site (default: one quarter into the run)")
	bit := fs.Uint("bit", 40, "bit position to flip")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := kernels.New(*kernel, *size)
	if err != nil {
		return err
	}
	g, err := trace.Golden(k)
	if err != nil {
		return err
	}
	if *site < 0 {
		*site = g.Sites() / 4
	}
	if *site >= g.Sites() {
		return fmt.Errorf("site %d outside [0, %d)", *site, g.Sites())
	}
	if int(*bit) >= k.Width() {
		return fmt.Errorf("bit %d outside the kernel's %d-bit fault population", *bit, k.Width())
	}
	sink := &deltaSink{}
	var ctx trace.Ctx
	res, err := trace.Run(&ctx, k, g, trace.Plan{Site: *site, Bit: *bit, Sink: sink})
	if err != nil {
		return err
	}
	if res.Crashed {
		fmt.Printf("injection (site %d, bit %d) crashed at site %d after injecting error %.3g\n",
			*site, *bit, res.CrashAt, res.InjErr)
	}
	outErr := 0.0
	if !res.Crashed {
		for i := range res.Output {
			d := math.Abs(res.Output[i] - g.Output[i])
			if d > outErr {
				outErr = d
			}
		}
	}
	// Log-scale the deltas for the chart; zero deltas chart as the floor.
	logs := make([]float64, len(sink.deltas))
	const floor = -340
	for i, d := range sink.deltas {
		if d > 0 {
			logs[i] = math.Log10(d)
		} else {
			logs[i] = floor
		}
	}
	// Clamp the floor to just below the smallest nonzero value for a
	// readable y-range.
	minLog := 0.0
	for _, l := range logs {
		if l != floor && l < minLog {
			minLog = l
		}
	}
	for i, l := range logs {
		if l == floor {
			logs[i] = minLog - 2
		}
	}
	fmt.Print(textplot.Chart(
		fmt.Sprintf("log10 |Δ| per dynamic instruction — %s, inject site %d bit %d (injErr %.3g, outErr %.3g)",
			*kernel, *site, *bit, res.InjErr, outErr),
		96, 16,
		textplot.Series{Name: "log10 delta", Marker: '*', Ys: logs},
	))
	kind := "masked"
	switch {
	case res.Crashed:
		kind = "crash"
	case outErr > k.Tolerance():
		kind = "sdc"
	}
	fmt.Printf("outcome: %s (tolerance %g)\n", kind, k.Tolerance())
	return nil
}

// cmdCompare contrasts two saved boundaries: threshold agreement and the
// sites where they disagree most. Useful for checking seed stability or
// the effect of a bigger budget on the same program.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare requires exactly two boundary files")
	}
	a, err := persist.LoadFile(args[0], persist.LoadBoundary)
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	b, err := persist.LoadFile(args[1], persist.LoadBoundary)
	if err != nil {
		return fmt.Errorf("%s: %w", args[1], err)
	}
	if a.Sites() != b.Sites() {
		return fmt.Errorf("boundaries cover different programs: %d vs %d sites", a.Sites(), b.Sites())
	}
	equal, aWider, bWider := 0, 0, 0
	type diff struct {
		site     int
		ta, tb   float64
		logRatio float64
	}
	var top []diff
	for i := range a.Thresholds {
		ta, tb := a.Thresholds[i], b.Thresholds[i]
		switch {
		case ta == tb:
			equal++
		case ta > tb:
			aWider++
		default:
			bWider++
		}
		if ta > 0 && tb > 0 && ta != tb {
			lr := math.Abs(math.Log10(ta / tb))
			top = append(top, diff{site: i, ta: ta, tb: tb, logRatio: lr})
		}
	}
	fmt.Printf("boundaries over %d sites\n", a.Sites())
	fmt.Printf("  identical thresholds: %d (%.1f%%)\n", equal, 100*float64(equal)/float64(a.Sites()))
	fmt.Printf("  %s wider: %d   %s wider: %d\n", args[0], aWider, args[1], bWider)
	if len(top) > 0 {
		for i := 0; i < len(top); i++ {
			for j := i + 1; j < len(top); j++ {
				if top[j].logRatio > top[i].logRatio {
					top[i], top[j] = top[j], top[i]
				}
			}
			if i == 4 {
				break
			}
		}
		fmt.Println("  largest disagreements (orders of magnitude):")
		for i := 0; i < 5 && i < len(top); i++ {
			d := top[i]
			fmt.Printf("    site %6d: %.3g vs %.3g (%.1f dex)\n", d.site, d.ta, d.tb, d.logRatio)
		}
	}
	return nil
}

// cmdReport infers a boundary and writes the markdown resiliency report.
func cmdReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	kernel, size := kernelFlags(fs)
	frac := fs.Float64("frac", 0.01, "sample fraction for the inference")
	filter := fs.Bool("filter", true, "enable the §3.5 filter operation")
	seed := fs.Uint64("seed", 1, "sampling seed")
	evaluate := fs.Bool("evaluate", false, "run the exhaustive campaign and include the evaluation section")
	out := fs.String("o", "", "output file (default stdout)")
	topN := fs.Int("top", 10, "number of most-vulnerable sites to list")
	exec := newExecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := kernels.New(*kernel, *size)
	if err != nil {
		return err
	}
	an, err := ftb.NewKernelAnalysis(*kernel, *size)
	if err != nil {
		return err
	}
	if err := exec.begin(ctx); err != nil {
		return err
	}
	defer exec.end()
	an = exec.apply(ctx, an)
	defer exec.finish()
	res, err := an.InferBoundary(ftb.InferOptions{SampleFrac: *frac, Filter: *filter, Seed: *seed})
	if err != nil {
		return err
	}
	var gt *ftb.GroundTruth
	if *evaluate {
		if gt, err = an.Exhaustive(); err != nil {
			return err
		}
	}
	exec.finish()
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := report.Markdown(w, an, k, res, gt, report.Config{TopN: *topN}); err != nil {
		return err
	}
	if *out != "" {
		fmt.Printf("wrote report to %s\n", *out)
	}
	return exec.flush()
}

func cmdProgressive(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("progressive", flag.ExitOnError)
	kernel, size := kernelFlags(fs)
	round := fs.Float64("round", 0.001, "per-round sample fraction")
	stop := fs.Float64("stop", 0.95, "stop when this fraction of a round is non-masked")
	adaptive := fs.Bool("adaptive", true, "bias sampling toward low-information sites")
	filter := fs.Bool("filter", false, "enable the §3.5 filter operation")
	seed := fs.Uint64("seed", 1, "sampling seed")
	evaluate := fs.Bool("evaluate", false, "also run the exhaustive campaign and score the boundary")
	exec := newExecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	an, err := ftb.NewKernelAnalysis(*kernel, *size)
	if err != nil {
		return err
	}
	exec.program = *kernel
	if err := exec.begin(ctx); err != nil {
		return err
	}
	defer exec.end()
	an = exec.apply(ctx, an)
	defer exec.finish()
	start := time.Now()
	res, rounds, err := an.Progressive(ftb.ProgressiveOptions{
		RoundFrac:         *round,
		StopNonMaskedFrac: *stop,
		Adaptive:          *adaptive,
		Filter:            *filter,
		Seed:              *seed,
	})
	if err != nil {
		return err
	}
	exec.finish()
	fmt.Printf("progressive sampling: %d rounds, %d samples (%.3f%%) in %v\n",
		len(rounds), res.Samples(), 100*res.SampleFraction(),
		time.Since(start).Round(time.Millisecond))
	for i, r := range rounds {
		fmt.Printf("  round %2d: space %7d  samples %5d  %v\n", i, r.Candidates, r.Samples, r.Counts)
	}
	fmt.Printf("  predicted SDC ratio: %.2f%%\n", 100*res.PredictedSDCRatio())
	fmt.Printf("  self-verified uncertainty: %.2f%%\n", 100*res.Uncertainty())
	if *evaluate {
		gt, err := an.Exhaustive()
		if err != nil {
			return err
		}
		pr := res.Evaluate(gt)
		overall := gt.Overall()
		fmt.Printf("  against ground truth: precision %.2f%%  recall %.2f%%  golden SDC %.2f%%\n",
			100*pr.Precision, 100*pr.Recall, 100*overall.SDCRatio())
	}
	return exec.flush()
}

func cmdExp(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("exp requires an experiment name")
	}
	which := args[0]
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	size := fs.String("size", ftb.SizePaper, "kernel size preset")
	trials := fs.Int("trials", 10, "randomized trials per measurement")
	seed := fs.Uint64("seed", 1, "base seed")
	exec := newExecFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := exec.begin(ctx); err != nil {
		return err
	}
	defer exec.end()
	// The campaigns take every exec flag through RunOptions; Collector
	// also opens the per-table telemetry sections.
	scale := experiments.Scale{Size: *size, Trials: *trials, Seed: *seed,
		RunOptions: exec.options(ctx), Collector: exec.col}

	type runner struct {
		name string
		run  func() (interface{ Render() string }, error)
	}
	runners := []runner{
		{"table1", func() (interface{ Render() string }, error) { return experiments.Table1(scale) }},
		{"figure3", func() (interface{ Render() string }, error) { return experiments.Figure3(scale) }},
		{"figure4", func() (interface{ Render() string }, error) { return experiments.Figure4(scale) }},
		{"table2", func() (interface{ Render() string }, error) { return experiments.Table2(scale) }},
		{"figure5", func() (interface{ Render() string }, error) { return experiments.Figure5(scale) }},
		{"table3", func() (interface{ Render() string }, error) { return experiments.Table3(scale) }},
		{"table4", func() (interface{ Render() string }, error) { return experiments.Table4(scale) }},
		{"monotonic", func() (interface{ Render() string }, error) { return experiments.Monotonicity(scale) }},
		{"baseline", func() (interface{ Render() string }, error) { return experiments.Baseline(scale) }},
		{"ablation", func() (interface{ Render() string }, error) { return experiments.Ablation(scale) }},
		{"sensitivity", func() (interface{ Render() string }, error) { return experiments.Sensitivity(scale) }},
	}
	ran := false
	for _, r := range runners {
		if which != "all" && which != r.name {
			continue
		}
		ran = true
		start := time.Now()
		res, err := r.run()
		exec.finish()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %v]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return exec.flush()
}
