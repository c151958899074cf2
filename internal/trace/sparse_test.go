package trace_test

import (
	"math"
	"testing"

	"ftb/internal/kernels"
	"ftb/internal/trace"
)

// observation is one Observe call.
type observation struct {
	site          int
	golden, delta float64
}

// denseSink records every observation of a run.
type denseSink struct{ got []observation }

func (s *denseSink) Observe(site int, golden, delta float64) {
	s.got = append(s.got, observation{site, golden, delta})
}

// sparseSink records like denseSink but opts into the sparse contract.
type sparseSink struct{ denseSink }

func (*sparseSink) SparseDeltas() {}

// sameObservations reports the first index where a and b differ, bit
// for bit, or -1 when they agree.
func sameObservations(a, b []observation) int {
	for i := range min(len(a), len(b)) {
		if a[i].site != b[i].site ||
			math.Float64bits(a[i].golden) != math.Float64bits(b[i].golden) ||
			math.Float64bits(a[i].delta) != math.Float64bits(b[i].delta) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestSparseSinkSeesDenseStreamWithoutZeros checks the sink contracts
// of a diff run on every kernel, the single-precision stencil32
// included, for plans run from the entry, resumed from a snapshot,
// truncated by Until, and crashing. A dense sink observes every site
// from 0 in order (a resumed run replays its prefix as zeros), the same
// stream whether the run resumed or not. A SparseSink observes exactly
// that stream with its zero entries removed, and so no prefix.
func TestSparseSinkSeesDenseStreamWithoutZeros(t *testing.T) {
	crashed, paused := 0, 0
	for _, name := range kernels.Names() {
		vk, err := kernels.New(name, kernels.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		rk, _ := kernels.New(name, kernels.SizeTest)
		g, err := trace.Golden(vk)
		if err != nil {
			t.Fatal(err)
		}
		n := g.Sites()
		bitsToTry := []uint{0, 30, 52, 62, 63}
		if vk.Width() == 32 {
			bitsToTry = []uint{0, 15, 23, 30, 31}
		}
		resume := n / 3
		var ctx trace.Ctx
		if err := trace.Advance(&ctx, rk, 0, resume); err != nil {
			t.Fatal(err)
		}
		snap := rk.(trace.Snapshotter)
		state := snap.Snapshot()

		// run executes pl with a fresh sink of the given kind, on the
		// resumed instance when pl resumes.
		run := func(pl trace.Plan, sparse bool) (trace.InjectResult, []observation) {
			t.Helper()
			var sink trace.DiffSink = &denseSink{}
			if sparse {
				sink = &sparseSink{}
			}
			p := trace.Program(vk)
			if pl.Resume > 0 {
				snap.Restore(state)
				p = rk
			}
			pl.Sink = sink
			res, err := trace.Run(&ctx, p, g, pl)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, pl, err)
			}
			if s, ok := sink.(*sparseSink); ok {
				return res, s.got
			}
			return res, sink.(*denseSink).got
		}

		for _, site := range []int{resume, resume + (n-resume)/2, n - 1} {
			for _, bit := range bitsToTry {
				until := site + (n-site)/2 + 1
				entry, entryObs := run(trace.Plan{Site: site, Bit: bit}, false)
				for _, pl := range []trace.Plan{
					{Site: site, Bit: bit},
					{Site: site, Bit: bit, Resume: resume},
					{Site: site, Bit: bit, Until: until},
					{Site: site, Bit: bit, Resume: resume, Until: until},
				} {
					res, dense := run(pl, false)
					sres, sparse := run(pl, true)
					if res.Crashed != sres.Crashed || res.CrashAt != sres.CrashAt || res.Paused != sres.Paused ||
						math.Float64bits(res.InjErr) != math.Float64bits(sres.InjErr) {
						t.Fatalf("%s %+v: sparse result %+v, dense %+v", name, pl, sres, res)
					}
					// A truncated run stops before a crash at or past Until.
					if c := entry.Crashed && (pl.Until == 0 || entry.CrashAt < pl.Until); res.Crashed != c || c && res.CrashAt != entry.CrashAt {
						t.Fatalf("%s %+v: crash %v at %d, from entry %v at %d", name, pl, res.Crashed, res.CrashAt, entry.Crashed, entry.CrashAt)
					}

					// The dense stream is the from-entry run's stream,
					// cut where the run crashed or paused.
					want := n
					switch {
					case res.Crashed:
						want = res.CrashAt
						crashed++
					case res.Paused:
						want = pl.Until
						paused++
					}
					if len(dense) != want {
						t.Fatalf("%s %+v: dense sink observed %d sites, want %d", name, pl, len(dense), want)
					}
					if i := sameObservations(dense, entryObs[:want]); i >= 0 {
						t.Fatalf("%s %+v: dense observation %d differs from the run from entry", name, pl, i)
					}
					for i, o := range dense {
						if o.site != i || math.Float64bits(o.golden) != math.Float64bits(g.Trace[i]) ||
							(i < pl.Resume && o.delta != 0) {
							t.Fatalf("%s %+v: dense observation %d = %+v", name, pl, i, o)
						}
					}

					var nonzero []observation
					for _, o := range dense {
						if o.delta != 0 {
							nonzero = append(nonzero, o)
						}
					}
					if i := sameObservations(sparse, nonzero); i >= 0 {
						t.Fatalf("%s %+v: sparse observation %d differs from the dense stream without zeros (%d vs %d observations)",
							name, pl, i, len(sparse), len(nonzero))
					}
					for _, o := range sparse {
						if o.site < pl.Resume {
							t.Fatalf("%s %+v: sparse sink observed prefix site %d", name, pl, o.site)
						}
					}
				}
			}
		}
	}
	if crashed == 0 || paused == 0 {
		t.Fatalf("covered %d crashing and %d truncated plans; want some of each", crashed, paused)
	}
}
