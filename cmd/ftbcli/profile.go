package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ftb"
)

// cmdProfile renders the wall-clock attribution table of a campaign's
// span timeline: per phase, how much worker time went to executing
// experiments versus restoring checkpoints, replaying tails, composed
// prediction/fallback, and queue waits. Two modes:
//
//   - `profile -spans FILE` attributes a previously recorded JSONL span
//     file (from -spans-out or a coordinator's stitched timeline) with
//     zero engine runs;
//   - `profile -kernel K -size S` runs the exhaustive campaign with
//     span tracing on and attributes the fresh timeline.
func cmdProfile(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	kernel, size := kernelFlags(fs)
	spansIn := fs.String("spans", "", "attribute this JSONL span file instead of running a campaign (-kernel/-size are ignored)")
	spansOut := fs.String("spans-out", "", "also write the recorded span timeline to this file (.json = Chrome trace-event for Perfetto, otherwise JSONL)")
	sample := fs.Int("span-sample", 0, "record one experiment span (with typed sub-spans) per this many experiments per worker (default 64, auto-raised on very large campaigns; 1 = every experiment)")
	workers := fs.Int("workers", 0, "cap campaign parallelism (default GOMAXPROCS)")
	progress := fs.Bool("progress", false, "render a live progress line on stderr")
	jsonOut := jsonFlag(fs)
	verbose := verboseFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *spansIn != "" {
		f, err := os.Open(*spansIn)
		if err != nil {
			return err
		}
		spans, err := ftb.ReadSpansJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("profile: %s: %w", *spansIn, err)
		}
		if len(spans) == 0 {
			return fmt.Errorf("profile: %s holds no spans", *spansIn)
		}
		return emitAttribution(os.Stdout, spans, *jsonOut)
	}

	an, err := ftb.NewKernelAnalysis(*kernel, *size)
	if err != nil {
		return err
	}
	rec := ftb.NewSpanRecorder()
	opts := []ftb.RunOption{
		ftb.WithContext(ctx),
		ftb.WithLogger(setupLogger(*verbose)),
		ftb.WithSpans(ftb.SpanOptions{Recorder: rec, ExperimentSample: *sample}),
	}
	var pp *progressPrinter
	if *progress {
		pp = &progressPrinter{}
		opts = append(opts, ftb.WithObserver(pp))
	}
	if *workers > 0 {
		opts = append(opts, ftb.WithWorkers(*workers))
	}
	start := time.Now()
	gt, err := an.Exhaustive(opts...)
	if pp != nil {
		pp.Finish()
	}
	if err != nil {
		return err
	}
	spans := rec.Cut()
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "ftbcli: span buffer overflowed; %d spans dropped (raise -span-sample)\n", d)
	}
	if *spansOut != "" {
		if err := writeSpansFile(*spansOut, *kernel, spans); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s\n", len(spans), *spansOut)
	}
	overall := gt.Overall()
	fmt.Printf("profiled exhaustive campaign: %d experiments in %v\n",
		overall.Total(), time.Since(start).Round(time.Millisecond))
	return emitAttribution(os.Stdout, spans, *jsonOut)
}

// emitAttribution reduces a span set to its attribution and writes it
// as the text table or, with -json, the raw attribution document.
func emitAttribution(w io.Writer, spans []ftb.Span, jsonOut bool) error {
	a := ftb.AttributeSpans(spans)
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(a)
	}
	renderAttribution(w, a)
	return nil
}

// renderAttribution prints the wall-clock attribution table. Control
// spans (cluster leases, store appends) overlap phase time — a lease
// wraps a remote phase, an append runs inside a range hook — so they
// are reported as their own lines rather than added to coverage.
func renderAttribution(w io.Writer, a ftb.SpanAttribution) {
	name := a.Campaign
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(w, "campaign %s: wall-clock %v, spans explain %.1f%% of worker time\n",
		name, fmtNS(a.WallNS), a.CoveragePct)
	for _, p := range a.Phases {
		fmt.Fprintf(w, "\nphase %s: %d worker(s), worker time %v, %d sampled experiments, coverage %.1f%%\n",
			p.Phase, p.Workers, fmtNS(p.WorkerNS), p.Samples, p.CoveragePct)
		for _, c := range p.Categories {
			fmt.Fprintf(w, "  %-14s %14v %6.1f%%\n", c.Cat, fmtNS(c.NS), c.Pct)
		}
		// Restore-tier mix: where the sampled experiments' prefixes came
		// from (zero restores means the phase ran without replay).
		if n := p.Restores.Total(); n > 0 {
			r := p.Restores
			pct := func(c int) float64 { return 100 * float64(c) / float64(n) }
			fmt.Fprintf(w, "  restores: %d sampled: %.0f%% per-site, %.0f%% boundary, %.0f%% pool-seeded, %.0f%% golden-prefix\n",
				n, pct(r.Tier2), pct(r.Tier1), pct(r.Pool), pct(r.Build))
		}
	}
	if a.Leases > 0 {
		fmt.Fprintf(w, "\ncluster leases: %d, total %v (overlaps phase time)\n", a.Leases, fmtNS(a.LeaseNS))
	}
	if a.StoreAppendNS > 0 {
		fmt.Fprintf(w, "store appends: %v (overlaps phase time)\n", fmtNS(a.StoreAppendNS))
	}
}

// fmtNS renders nanoseconds at table precision: milliseconds past one
// second, microseconds past one millisecond, exact below that.
func fmtNS(ns int64) time.Duration {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	}
	return d
}

// writeSpansFile writes a span timeline to path: Chrome trace-event
// JSON (for Perfetto / chrome://tracing) when the name ends in .json,
// JSONL (the lossless archival format `profile -spans` reads back)
// otherwise.
func writeSpansFile(path, program string, spans []ftb.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = ftb.WriteSpansChromeTrace(f, program, spans)
	} else {
		err = ftb.WriteSpansJSONL(f, spans)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
