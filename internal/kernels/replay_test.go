package kernels

import (
	"math"
	"testing"

	"ftb/internal/trace"
)

// Every registered kernel must support checkpointed prefix replay: the
// campaign layer falls back gracefully for foreign programs, but the
// in-tree suite opts in wholesale.
func TestAllKernelsImplementSnapshotter(t *testing.T) {
	for _, name := range Names() {
		k, err := New(name, SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := trace.Program(k).(trace.Snapshotter); !ok {
			t.Errorf("%s does not implement trace.Snapshotter", name)
		}
	}
}

// TestAllKernelsResumeEquivalence drives the snapshot contract directly:
// for boundaries spread across the run (including ones that split
// multi-store units), an injection resumed from a restored checkpoint
// must match a from-scratch injection bit for bit — output, crash site,
// and injected-error magnitude alike.
func TestAllKernelsResumeEquivalence(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rk, err := New(name, SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			vk, err := New(name, SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			g, err := trace.Golden(vk)
			if err != nil {
				t.Fatal(err)
			}
			sites := g.Sites()
			snap := rk.(trace.Snapshotter)
			bitsToTry := []uint{0, 30, 62, 63}
			if vk.Width() == 32 {
				bitsToTry = []uint{0, 15, 30, 31}
			}
			var rctx, vctx trace.Ctx
			prev := 0
			for _, boundary := range []int{1, sites / 3, sites / 2, 2 * sites / 3, sites - 1} {
				if boundary <= prev {
					continue
				}
				// Advance incrementally, as the campaign cache does.
				if err := trace.Advance(&rctx, rk, prev, boundary); err != nil {
					t.Fatal(err)
				}
				prev = boundary
				state := snap.Snapshot()
				for _, site := range []int{boundary, boundary + (sites-boundary)/2, sites - 1} {
					for _, bit := range bitsToTry {
						want, _ := trace.Run(&vctx, vk, nil, trace.Plan{Site: site, Bit: bit})
						snap.Restore(state)
						got, _ := trace.Run(&rctx, rk, nil, trace.Plan{Site: site, Bit: bit, Resume: boundary})
						if got.Crashed != want.Crashed || got.CrashAt != want.CrashAt || got.Injected != want.Injected {
							t.Fatalf("boundary %d site %d bit %d: got %+v, want %+v",
								boundary, site, bit, got, want)
						}
						if got.InjErr != want.InjErr && !(math.IsNaN(got.InjErr) && math.IsNaN(want.InjErr)) {
							t.Fatalf("boundary %d site %d bit %d: InjErr %g, want %g",
								boundary, site, bit, got.InjErr, want.InjErr)
						}
						if want.Crashed {
							continue
						}
						for i := range want.Output {
							if math.Float64bits(got.Output[i]) != math.Float64bits(want.Output[i]) {
								t.Fatalf("boundary %d site %d bit %d: output[%d] = %g, want %g",
									boundary, site, bit, i, got.Output[i], want.Output[i])
							}
						}
					}
				}
				// Leave the kernel at the boundary for the next advance.
				snap.Restore(state)
			}
		})
	}
}
