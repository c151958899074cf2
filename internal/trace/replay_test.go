package trace

import (
	"math"
	"strings"
	"testing"
)

// chainProg is a minimal Snapshotter: a chain of n stores where each
// value depends on its predecessor, so injected errors propagate to the
// output. State is the committed-value array; Run resumes by starting
// the loop at the context's resume offset.
type chainProg struct {
	n    int
	v    []float64
	snap []float64
}

func newChainProg(n int) *chainProg { return &chainProg{n: n, v: make([]float64, n)} }

func (p *chainProg) Name() string { return "chain" }

func (p *chainProg) Run(ctx *Ctx) []float64 {
	for i := ctx.ResumePos(); i < p.n; i++ {
		prev := 1.0
		if i > 0 {
			prev = p.v[i-1]
		}
		p.v[i] = ctx.Store(prev*1.0001 + float64(i%7))
	}
	return []float64{p.v[p.n-1]}
}

func (p *chainProg) Snapshot() State {
	if p.snap == nil {
		p.snap = make([]float64, p.n)
	}
	copy(p.snap, p.v)
	return p.snap
}

func (p *chainProg) Restore(s State) { copy(p.v, s.([]float64)) }

func TestAdvancePausesAtExactBoundary(t *testing.T) {
	p := newChainProg(10)
	g, err := Golden(newChainProg(10))
	if err != nil {
		t.Fatal(err)
	}
	var ctx Ctx
	if err := Advance(&ctx, p, 0, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if p.v[i] != g.Trace[i] {
			t.Errorf("v[%d] = %g, want golden %g", i, p.v[i], g.Trace[i])
		}
	}
	// Store 4 must not have been committed: the pause fires inside the
	// Store call, before the kernel assigns the value.
	if p.v[4] != 0 {
		t.Errorf("v[4] = %g, want 0 (store past the boundary committed)", p.v[4])
	}
	// Advancing incrementally from the paused state extends the prefix.
	if err := Advance(&ctx, p, 4, 7); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 7; i++ {
		if p.v[i] != g.Trace[i] {
			t.Errorf("after extend, v[%d] = %g, want golden %g", i, p.v[i], g.Trace[i])
		}
	}
	if p.v[7] != 0 {
		t.Errorf("v[7] = %g, want 0", p.v[7])
	}
}

func TestAdvancePastEndErrors(t *testing.T) {
	p := newChainProg(5)
	var ctx Ctx
	err := Advance(&ctx, p, 0, 6)
	if err == nil {
		t.Fatal("advance past the trace end succeeded")
	}
	if !strings.Contains(err.Error(), "never paused") {
		t.Errorf("err = %v, want a never-paused diagnosis", err)
	}
}

func TestAdvanceRejectsInvalidRange(t *testing.T) {
	p := newChainProg(5)
	var ctx Ctx
	if err := Advance(&ctx, p, 3, 2); err == nil {
		t.Error("advance with to < from succeeded")
	}
	if err := Advance(&ctx, p, -1, 2); err == nil {
		t.Error("advance with negative from succeeded")
	}
}

func TestInjectFromRejectsSiteBeforeResume(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a plan with site < resume did not panic")
		}
	}()
	var ctx Ctx
	Run(&ctx, newChainProg(10), nil, Plan{Site: 2, Resume: 5})
}

// TestRunInjectFromMatchesVanilla is the substrate half of the
// correctness bar: a run resumed from a restored checkpoint must be
// byte-identical — output, crash classification, injected error — to a
// from-scratch run at the same (site, bit).
func TestRunInjectFromMatchesVanilla(t *testing.T) {
	const n = 12
	g, err := Golden(newChainProg(n))
	if err != nil {
		t.Fatal(err)
	}
	_ = g

	// One advanced instance checkpointed at the boundary, restored
	// before each replayed experiment.
	const boundary = 5
	rp := newChainProg(n)
	var rctx Ctx
	if err := Advance(&rctx, rp, 0, boundary); err != nil {
		t.Fatal(err)
	}
	state := rp.Snapshot()

	vp := newChainProg(n)
	var vctx Ctx
	for site := boundary; site < n; site++ {
		for _, bit := range []uint{0, 31, 52, 62, 63} {
			want, _ := Run(&vctx, vp, nil, Plan{Site: site, Bit: bit})
			rp.Restore(state)
			got, _ := Run(&rctx, rp, nil, Plan{Site: site, Bit: bit, Resume: boundary})
			if got.Crashed != want.Crashed || got.CrashAt != want.CrashAt ||
				got.Injected != want.Injected ||
				(got.InjErr != want.InjErr && !(math.IsNaN(got.InjErr) && math.IsNaN(want.InjErr))) {
				t.Fatalf("site %d bit %d: got %+v, want %+v", site, bit, got, want)
			}
			if !want.Crashed {
				if len(got.Output) != len(want.Output) {
					t.Fatalf("site %d bit %d: output lengths %d vs %d", site, bit, len(got.Output), len(want.Output))
				}
				for i := range want.Output {
					if math.Float64bits(got.Output[i]) != math.Float64bits(want.Output[i]) {
						t.Fatalf("site %d bit %d: output[%d] = %g, want %g", site, bit, i, got.Output[i], want.Output[i])
					}
				}
			}
		}
	}
}

// TestRunInjectDiffFromReplaysPrefixZeros checks the diff-mode resume
// contract: the sink must observe the same per-site stream as a
// from-scratch run, with the skipped prefix replayed as zero deltas.
func TestRunInjectDiffFromReplaysPrefixZeros(t *testing.T) {
	const n = 10
	g, err := Golden(newChainProg(n))
	if err != nil {
		t.Fatal(err)
	}

	const boundary = 4
	rp := newChainProg(n)
	var rctx Ctx
	if err := Advance(&rctx, rp, 0, boundary); err != nil {
		t.Fatal(err)
	}
	state := rp.Snapshot()

	vp := newChainProg(n)
	var vctx Ctx
	for _, site := range []int{boundary, n - 1} {
		vsink := &recordingSink{}
		want, err := Run(&vctx, vp, g, Plan{Site: site, Bit: 63, Sink: vsink})
		if err != nil {
			t.Fatal(err)
		}
		rp.Restore(state)
		rsink := &recordingSink{}
		got, err := Run(&rctx, rp, g, Plan{Site: site, Bit: 63, Resume: boundary, Sink: rsink})
		if err != nil {
			t.Fatal(err)
		}
		if got.Crashed != want.Crashed {
			t.Fatalf("site %d: crashed %v, want %v", site, got.Crashed, want.Crashed)
		}
		if len(rsink.sites) != len(vsink.sites) {
			t.Fatalf("site %d: sink observed %d sites, want %d", site, len(rsink.sites), len(vsink.sites))
		}
		for i := range vsink.sites {
			if rsink.sites[i] != vsink.sites[i] || rsink.golden[i] != vsink.golden[i] || rsink.deltas[i] != vsink.deltas[i] {
				t.Fatalf("site %d: sink record %d = (%d, %g, %g), want (%d, %g, %g)",
					site, i, rsink.sites[i], rsink.golden[i], rsink.deltas[i],
					vsink.sites[i], vsink.golden[i], vsink.deltas[i])
			}
		}
		for i := 0; i < boundary; i++ {
			if rsink.deltas[i] != 0 {
				t.Errorf("site %d: prefix delta[%d] = %g, want 0", site, i, rsink.deltas[i])
			}
		}
	}
}

// sum32Prog is a minimal single-precision program.
type sum32Prog struct {
	inputs []float32
}

func (p *sum32Prog) Name() string { return "sum32" }

func (p *sum32Prog) Run(ctx *Ctx) []float64 {
	var s float32
	for _, v := range p.inputs {
		v = ctx.Store32(v)
		s = ctx.Store32(s + v)
	}
	return []float64{float64(s)}
}

// TestTailFinishesPausedRun: a truncated diff run paused at Until, then
// finished by a tail plan on the same instance, must match the full run.
func TestTailFinishesPausedRun(t *testing.T) {
	const n, until = 12, 8
	g, err := Golden(newChainProg(n))
	if err != nil {
		t.Fatal(err)
	}
	var ctx Ctx
	for _, bit := range []uint{0, 31, 52, 63} {
		want, err := Run(&ctx, newChainProg(n), g, Plan{Site: 3, Bit: bit})
		if err != nil {
			t.Fatal(err)
		}
		p := newChainProg(n)
		head, err := Run(&ctx, p, g, Plan{Site: 3, Bit: bit, Until: until, Sink: &recordingSink{}})
		if err != nil {
			t.Fatal(err)
		}
		if !head.Paused {
			t.Fatalf("bit %d: truncated run did not pause at %d", bit, until)
		}
		tail, err := Run(&ctx, p, g, Plan{Site: -1, Resume: until})
		if err != nil {
			t.Fatal(err)
		}
		if tail.Injected || tail.Crashed != want.Crashed ||
			(!want.Crashed && math.Float64bits(tail.Output[0]) != math.Float64bits(want.Output[0])) {
			t.Fatalf("bit %d: tail %+v, full run %+v", bit, tail, want)
		}
	}
}
