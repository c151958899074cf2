package campaign

import (
	"fmt"
	"testing"

	"ftb/internal/kernels"
	"ftb/internal/outcome"
	"ftb/internal/trace"
)

// benchCrashHeavyPairs builds the workload dynamic scheduling exists for:
// flipping the top exponent bit (62) makes most runs blow up and crash
// shortly after the injection site, so an experiment's cost is roughly
// proportional to its site index. In ascending site order, static
// chunking would hand the first worker the cheapest contiguous block and
// the last worker the most expensive one; the dynamic queue rebalances.
func benchCrashHeavyPairs(sites int) []Pair {
	pairs := make([]Pair, 0, sites)
	for s := 0; s < sites; s++ {
		pairs = append(pairs, Pair{Site: s, Bit: 62})
	}
	return pairs
}

func benchConfig(b *testing.B, workers int) Config {
	b.Helper()
	k, err := kernels.New("cg", kernels.SizeSmall)
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Factory: func() trace.Program {
			kk, err := kernels.New("cg", kernels.SizeSmall)
			if err != nil {
				panic(err)
			}
			return kk
		},
		Golden:  g,
		Tol:     k.Tolerance(),
		Workers: workers,
		Batch:   8,
	}
}

// BenchmarkScheduling times the dynamic queue on the crash-heavy CG
// workload (see results_extra.txt for recorded runs). On a single-core
// host ns/op mainly shows that the queue costs nothing; the load-balance
// advantage over static chunking is what BenchmarkSchedulingMakespan
// simulates.
func BenchmarkScheduling(b *testing.B) {
	for _, workers := range []int{4, 8} {
		b.Run(fmt.Sprintf("dynamic/workers=%d", workers), func(b *testing.B) {
			cfg := benchConfig(b, workers)
			pairs := benchCrashHeavyPairs(cfg.Golden.Sites())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunPairs(cfg, pairs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// costSink records the cost of each experiment (stores executed, observed
// via the per-store diff callback), keyed by injection site. The
// crash-heavy workload uses one pair per site, so the site is the index.
type costSink struct {
	costs     []int
	site, cur int
}

func (s *costSink) BeginRun(_, _ int, site int, _ uint8)       { s.site, s.cur = site, 0 }
func (s *costSink) Observe(int, float64, float64)              { s.cur++ }
func (s *costSink) EndRun(outcome.Kind, float64, float64, int) { s.costs[s.site] = s.cur }

// BenchmarkSchedulingMakespan measures every experiment's true cost, then
// replays static chunking and the dynamic queue over those costs with each worker
// advancing at its own pace — exactly the engine's behaviour when workers
// run on real parallel cores. It reports the resulting makespans (in
// store-executions) and "speedup": static makespan over dynamic makespan,
// i.e. the wall-clock factor the dynamic queue wins on a multi-core host —
// the record of why the engine has no static mode.
// (On this package's single-core CI box BenchmarkScheduling's ns/op can't
// show the gap — total work per core is identical — which is why the
// makespan is simulated from measured costs instead.)
func BenchmarkSchedulingMakespan(b *testing.B) {
	const workers = 4
	cfg := benchConfig(b, 1)
	pairs := benchCrashHeavyPairs(cfg.Golden.Sites())
	costs := make([]int, cfg.Golden.Sites())
	var static, dynamic float64
	for i := 0; i < b.N; i++ {
		sinks := 0
		cfg.Sink = func(int) RunSink {
			sinks++ // one worker: never called concurrently
			return &costSink{costs: costs}
		}
		if err := RunPairsInPhase(cfg, pairs, "propagate", nil); err != nil {
			b.Fatal(err)
		}
		if sinks != 1 {
			b.Fatalf("expected 1 worker, got %d sinks", sinks)
		}
		static = simulateStatic(costs, workers)
		dynamic = simulateDynamic(costs, workers, DefaultBatch)
	}
	b.ReportMetric(static, "static-makespan")
	b.ReportMetric(dynamic, "dynamic-makespan")
	b.ReportMetric(static/dynamic, "speedup")
}

// simulateStatic returns the makespan of contiguous per-worker chunks:
// every worker's chunk cost is fixed up front, so the slowest chunk is
// the campaign's finish time.
func simulateStatic(costs []int, workers int) float64 {
	n := len(costs)
	chunk := (n + workers - 1) / workers
	max := 0
	for w := 0; w < workers; w++ {
		sum := 0
		for i := w * chunk; i < min((w+1)*chunk, n); i++ {
			sum += costs[i]
		}
		if sum > max {
			max = sum
		}
	}
	return float64(max)
}

// simulateDynamic returns the makespan of batch claims off a shared
// queue: the least-loaded worker always claims the next batch, which is
// what happens in real time when workers claim as they finish.
func simulateDynamic(costs []int, workers, batch int) float64 {
	clocks := make([]int, workers)
	for lo := 0; lo < len(costs); lo += batch {
		w := 0
		for i := 1; i < workers; i++ {
			if clocks[i] < clocks[w] {
				w = i
			}
		}
		for i := lo; i < min(lo+batch, len(costs)); i++ {
			clocks[w] += costs[i]
		}
	}
	max := 0
	for _, c := range clocks {
		if c > max {
			max = c
		}
	}
	return float64(max)
}
