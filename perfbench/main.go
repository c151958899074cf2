// Command ftbbench runs one repetition of a benchmark workload against
// ftb and prints its result as one JSON line on standard output.
//
// A repetition is one fresh process, so no in-process memo (the
// experiments package's ground-truth cache, a warm replay pool) survives
// from one repetition into the next. run.py, next to this file, builds
// this program, repeats it for a fixed time, checks the results and
// aggregates the metrics; see README.md for the workloads and metrics.
//
//	ftbbench -workload infer-paper -seed 1 -trace 0 -t0 <unix ns> -scratch <dir>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ftb"
)

// workers is the campaign worker count of every workload: the core
// count of the 2-core reference box, fixed so that a larger machine runs
// the same schedule rather than a different one.
const workers = 2

// provenance stamps every repetition's result with what produced it.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Workers    int    `json:"workers"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Scale      string `json:"scale"`
}

// result is one repetition's output line.
type result struct {
	Provenance provenance         `json:"provenance"`
	Traced     bool               `json:"traced"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	WallS      float64            `json:"wall_s"`
	SetupS     float64            `json:"setup_s"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload name: paper-small, infer-paper or groundtruth-paper")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	traced := flag.Int("trace", 0, "1 attaches the collector and span recorder and reports per-layer metrics")
	scale := flag.String("scale", scaleFull, "input scale: full, or test for a seconds-long smoke run")
	t0 := flag.Int64("t0", 0, "process start as Unix nanoseconds (default: now)")
	scratch := flag.String("scratch", "", "directory for this repetition's ground-truth store (must be empty or absent)")
	commit := flag.String("commit", "unknown", "source revision to stamp into the result")
	setupOnly := flag.Bool("setup-only", false, "stop after set-up and report only setup_s")
	record := flag.Bool("record", false, "print the output digests of this run instead of checking them against the references")
	flag.Parse()

	start := time.Now()
	if *t0 != 0 {
		start = time.Unix(0, *t0)
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	w, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	sz, ok := scales[*scale]
	if !ok {
		fatalf("unknown scale %q", *scale)
	}
	refs, err := loadReferences()
	if err != nil {
		fatalf("%v", err)
	}
	env := &runEnv{
		name:    *workload,
		seed:    *seed,
		scale:   *scale,
		sizes:   sz,
		traced:  *traced == 1,
		scratch: *scratch,
		refs:    refs,
		start:   start,

		setupOnly: *setupOnly,
	}
	if env.traced {
		env.col = ftb.NewCollector()
		env.layers = make(map[string]float64)
	}
	if *record {
		env.digests = map[string]string{}
	}
	if err := w(env); err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if *record {
		out, _ := json.MarshalIndent(env.digests, "", "  ")
		fmt.Println(string(out))
		return
	}
	rss, err := peakRSSMB()
	if err != nil {
		fatalf("peak RSS: %v", err)
	}
	res := result{
		Provenance: provenance{
			Commit:     *commit,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc:      runtime.NumCPU(),
			Workers:    workers,
			Workload:   *workload,
			Seed:       *seed,
			Scale:      *scale,
		},
		Traced:    env.traced,
		Attempted: env.attempted,
		Failed:    len(env.failures),
		Failures:  env.failures,
		WallS:     env.wall.Seconds(),
		SetupS:    env.setup.Seconds(),
		PeakRSSMB: rss,
		Layers:    env.layers,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// peakRSSMB is the process's resident-set high-water mark in MiB, read
// from VmHWM: getrusage's maxrss would also count the parent process's
// memory, which a child inherits across exec.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ftbbench: "+format+"\n", args...)
	os.Exit(1)
}
