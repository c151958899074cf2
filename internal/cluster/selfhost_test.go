package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"ftb/internal/campaign"
	"ftb/internal/kernels"
	"ftb/internal/obs"
	"ftb/internal/trace"
)

// workerEnv makes the test binary re-exec itself as a worker process:
// when set to "kernel:size", TestMain serves that kernel over HTTP
// instead of running tests — the same shape as `ftbcli worker`, but
// crash-testable without building the CLI first.
const workerEnv = "FTB_CLUSTER_WORKER"

func TestMain(m *testing.M) {
	spec := os.Getenv(workerEnv)
	if spec == "" {
		os.Exit(m.Run())
	}
	name, size, ok := strings.Cut(spec, ":")
	if !ok {
		fmt.Fprintf(os.Stderr, "bad %s=%q, want kernel:size\n", workerEnv, spec)
		os.Exit(2)
	}
	w, err := NewWorker(WorkerConfig{
		Factory: func() trace.Program {
			k, err := kernels.New(name, size)
			if err != nil {
				panic(err)
			}
			return k
		},
		Procs: 2,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Serve until killed: the parent test SIGKILLs or kills the process
	// group when done.
	if err := w.Serve(context.Background(), ln, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// spawnTestWorkers forks n copies of this test binary in worker mode.
func spawnTestWorkers(t *testing.T, spec string, n int) []*Proc {
	t.Helper()
	t.Setenv(workerEnv, spec)
	procs, err := SpawnWorkers(context.Background(), []string{os.Args[0]}, n, os.Stderr, time.Minute)
	os.Unsetenv(workerEnv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { KillAll(procs) })
	return procs
}

// TestSelfHostDeterminism is the headline acceptance check: a campaign
// sharded across 4 freshly forked worker processes produces a ground
// truth byte-identical to the single-process run.
func TestSelfHostDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	const name, bits = "cg", 2
	golden, err := trace.Golden(testFactory(t, name)())
	if err != nil {
		t.Fatal(err)
	}
	tol := testTolerance(t, name)
	want := gtBytes(t, inProcessGT(t, name, golden, tol, bits))

	procs := spawnTestWorkers(t, name+":"+kernels.SizeTest, 4)
	res, err := Exhaustive(Config{
		Campaign: campaign.Config{
			Golden: golden,
			Tol:    tol,
			Bits:   bits,
		},
		Workers:   URLs(procs),
		Program:   name,
		ShardSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := gtBytes(t, res.GT); !bytes.Equal(got, want) {
		t.Fatal("-selfhost 4 ground truth is not byte-identical to the single-process run")
	}
	if res.WorkersLost != 0 {
		t.Errorf("WorkersLost = %d, want 0", res.WorkersLost)
	}
}

// TestSelfHostWorkerKill SIGKILLs one worker mid-campaign while span
// tracing is on: the campaign must still complete, losing only that
// worker's in-flight lease to a retry, with an identical ground truth —
// and the coordinator must still emit one stitched timeline from the
// surviving workers' spans.
func TestSelfHostWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	const name, bits = "cg", 2
	golden, err := trace.Golden(testFactory(t, name)())
	if err != nil {
		t.Fatal(err)
	}
	tol := testTolerance(t, name)
	want := gtBytes(t, inProcessGT(t, name, golden, tol, bits))

	procs := spawnTestWorkers(t, name+":"+kernels.SizeTest, 3)
	victim := procs[0]
	killed := false
	rec := obs.NewRecorder()
	root := rec.Start(obs.CatCampaign, name, 0, -1)
	res, err := Exhaustive(Config{
		Campaign: campaign.Config{
			Golden:     golden,
			Tol:        tol,
			Bits:       bits,
			Spans:      rec,
			SpanParent: root.ID(),
			Observer: campaign.ObserverFunc(func(e campaign.Event) {
				// SIGKILL the victim after the first shard lands, while more
				// than half the campaign remains. The observer runs under
				// the coordinator's merge lock, so the kill is guaranteed to
				// land mid-campaign.
				if !killed && e.Done > 0 && e.Done < e.Total/2 {
					killed = true
					victim.Kill()
				}
			}),
		},
		Workers:           URLs(procs),
		Program:           name,
		ShardSize:         32,
		Backoff:           time.Millisecond,
		MaxWorkerFailures: 2,
		MaxLeaseAttempts:  100,
		LeaseTimeout:      30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End(0)
	if !killed {
		t.Fatal("campaign finished before the kill fired; shrink ShardSize")
	}
	if got := gtBytes(t, res.GT); !bytes.Equal(got, want) {
		t.Fatal("ground truth diverged after SIGKILLing a worker")
	}

	// One stitched timeline from the survivors: every span parents back
	// to the root, worker spans cover the full experiment space, and the
	// victim contributed at most its merged pre-kill leases.
	spans := rec.Cut()
	byID := make(map[uint64]obs.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var leases, phases int
	for _, sp := range spans {
		switch sp.Cat {
		case obs.CatLease:
			leases++
		case obs.CatPhase:
			phases++
		}
		for cur := sp; cur.ID != root.ID(); {
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %d (%s, shard %q) does not chain to the root: dangling parent %d", sp.ID, sp.Cat, sp.Shard, cur.Parent)
			}
			cur = parent
		}
	}
	// Failed attempts against the killed worker record lease spans too
	// (that is the retry cost showing up in the timeline), so leases may
	// exceed merged shards; phase spans only arrive with merges.
	if leases < res.Shards || phases != res.Shards {
		t.Errorf("lease/phase spans = %d/%d, want ≥/= merged shards (%d)", leases, phases, res.Shards)
	}
	a := obs.Attribute(spans)
	if len(a.Phases) != 1 || a.Phases[0].BusyNS <= 0 {
		t.Fatalf("stitched attribution = %+v, want one busy exhaustive group", a.Phases)
	}
}

func TestSpawnWorkerFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes")
	}
	if _, err := SpawnWorker(context.Background(), nil, nil, time.Second); err == nil {
		t.Error("empty argv accepted")
	}
	// A process that exits without announcing is reported, not hung.
	if _, err := SpawnWorker(context.Background(), []string{"/bin/true"}, nil, 5*time.Second); err == nil {
		t.Error("silent process accepted as a worker")
	}
	if _, err := SpawnWorkers(context.Background(), []string{os.Args[0]}, 0, nil, time.Second); err == nil {
		t.Error("zero worker count accepted")
	}
}

// BenchmarkClusterOverhead measures the coordinator tax: the same
// exhaustive campaign in-process versus through one self-hosted worker.
// The recorded selfhost1/inprocess ratio is 1.54 (BENCH_cluster.json).
// Nothing gates the ratio; `make bench-check` compares each side's
// ns/op with its own recording only. The campaign is
// sized (16 bits, ~6.7k experiments) so the fixed per-campaign HTTP
// costs amortize the way they do in real runs; tiny campaigns would
// measure connection setup, not steady-state sharding. Both sides
// replay (cluster workers always do), so the ratio isolates the tax.
func BenchmarkClusterOverhead(b *testing.B) {
	const name, bits = "cg", 16
	factory := testFactory(b, name)
	golden, err := trace.Golden(factory())
	if err != nil {
		b.Fatal(err)
	}
	tol := testTolerance(b, name)

	b.Run("inprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := campaign.Exhaustive(campaign.Config{
				Factory: factory,
				Golden:  golden,
				Tol:     tol,
				Bits:    bits,
				Workers: 2,
				Replay:  true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("selfhost1", func(b *testing.B) {
		os.Setenv(workerEnv, name+":"+kernels.SizeTest)
		procs, err := SpawnWorkers(context.Background(), []string{os.Args[0]}, 1, os.Stderr, time.Minute)
		os.Unsetenv(workerEnv)
		if err != nil {
			b.Fatal(err)
		}
		defer KillAll(procs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Exhaustive(Config{
				Campaign: campaign.Config{
					Golden: golden,
					Tol:    tol,
					Bits:   bits,
				},
				Workers:   URLs(procs),
				Program:   name,
				ShardSize: 4096,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
